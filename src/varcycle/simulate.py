"""Stochastic simulation: noise paths, the step recursion, and the
explicit solution evaluated in block-basis coordinates.

Both trajectory generators consume the same pre-drawn noise path, so a
recursive run and an explicit run with a shared seed are directly
comparable; their agreement is the main correctness oracle for the
spectral decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, RangeError
from .model import ModelParams, NoiseSpec, TransitionMatrix
from .spectral import SpectralDecomposition

METHOD_RECURSIVE = "recursive"
METHOD_EXPLICIT = "explicit"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(seed: int, r: int) -> int:
    """Derive the seed for key ``r`` (a Monte Carlo grid point) from a
    base seed.

    Splitmix-style avalanche: add (r + 1) Weyl increments of the golden
    ratio to the base, then apply the two xor-multiply finalizer rounds.
    Documented so reports can state exactly how each grid point's stream
    was derived.
    """
    z = (seed + (r + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class NoisePath:
    """A full noise path stored as arrays.

    ``epsilon`` and ``eta`` have shape (..., T, n) and ``gamma`` shape
    (..., T, 2n), the stacked gamma_t = (alpha * epsilon_t, -beta * eta_t)
    that enters the recursion; leading axes index independent paths.
    ``seed`` is None when the path was assembled from raw arrays or drawn
    from a caller's generator rather than from a seed.
    """

    def __init__(
        self,
        epsilon: np.ndarray,
        eta: np.ndarray,
        alpha: float,
        beta: float,
        seed: int | None = None,
    ):
        epsilon = np.asarray(epsilon, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if epsilon.shape != eta.shape or epsilon.ndim < 2:
            raise DimensionMismatch(
                f"epsilon and eta must both be (..., T, n), got {epsilon.shape} and {eta.shape}"
            )
        n = epsilon.shape[-1]
        self.epsilon = epsilon
        self.eta = eta
        self.gamma = np.empty(epsilon.shape[:-1] + (2 * n,))
        np.multiply(epsilon, alpha, out=self.gamma[..., :n])
        np.multiply(eta, -beta, out=self.gamma[..., n:])
        self.seed = seed


@dataclass(frozen=True)
class Trajectory:
    """States z_0..z_T (rows) with the noise that produced them."""

    z: np.ndarray
    noises: NoisePath
    seed: int | None
    method: str


@dataclass(frozen=True)
class AggregateSeries:
    """Weighted aggregates xbar(t) = b . x_t and ybar(t) = a . y_t."""

    xbar: np.ndarray
    ybar: np.ndarray


def _scale_shift(draws: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Turn standard draws of shape (..., 2, T, n) into shocks in place:
    coordinate i of block k is scaled by sigma[k*n + i] and shifted by
    mu[k*n + i], which is bitwise what ``rng.normal`` computes."""
    law_shape = (2, 1, draws.shape[-1])
    draws *= spec.sigma.reshape(law_shape)
    draws += spec.mu.reshape(law_shape)
    return draws


def sample_noise_path(
    spec: NoiseSpec,
    params: ModelParams,
    T: int,
    seed: int | np.random.Generator,
    zero_noise: bool = False,
    reps: int | None = None,
) -> NoisePath:
    """Draw T i.i.d. Gaussian noise steps, deterministic in ``seed``.

    Coordinate i of epsilon uses (mu_i, sigma_i) and coordinate i of eta
    uses (mu_{n+i}, sigma_{n+i}); both come from one standard-normal draw
    of shape (2, T, n) on ``default_rng(seed)``, epsilon's block first.
    ``seed`` is a non-negative integer or a generator, which the draw
    advances.  With ``reps`` the path is a batch of that many independent
    paths on a leading axis, drawn in one (reps, 2, T, n) call.  With
    ``zero_noise`` every draw equals its mean (degenerate paths are
    requested explicitly, never by sigma = 0, which the spec validation
    rejects).
    """
    if T < 1:
        raise RangeError(f"T must be >= 1, got {T}")
    from_rng = isinstance(seed, np.random.Generator)
    if not from_rng and seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    n = params.n
    batch = () if reps is None else (reps,)
    if zero_noise:
        eps = np.tile(spec.mu[:n], batch + (T, 1))
        eta = np.tile(spec.mu[n:], batch + (T, 1))
    else:
        draws = _scale_shift(np.random.default_rng(seed).standard_normal(batch + (2, T, n)), spec)
        eps, eta = draws[..., 0, :, :], draws[..., 1, :, :]
    return NoisePath(eps, eta, params.alpha, params.beta, seed=None if from_rng else seed)


def _iterate(
    step: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Run z_{t+1} = step(z_t) + gamma_t over any leading batch axes.

    z0 has shape (..., m) and gamma (..., T, m); returns the states
    z_0..z_T as (..., T + 1, m).  This is the one loop over time steps
    behind every recursion on numpy state vectors.  Overflow is left in
    the states (callers that care use :func:`_check_finite`), not
    raised as a numpy warning.
    """
    g = np.moveaxis(gamma, -2, 0)
    z = np.empty((g.shape[0] + 1,) + g.shape[1:])
    z[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for zt, gt, znext in zip(z, g, z[1:]):
            np.add(step(zt), gt, out=znext)
    return np.moveaxis(z, 0, -2)


def _check_finite(z: np.ndarray) -> None:
    """Raise NonFiniteState at the first time row of z holding a
    non-finite entry.  A non-finite state stays non-finite under the
    linear step, so this is the first t at which the run overflowed."""
    bad = np.flatnonzero(~np.all(np.isfinite(z), axis=1))
    if bad.size:
        raise NonFiniteState(int(bad[0]))


def _initial_state(params: ModelParams, z0: np.ndarray) -> np.ndarray:
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * params.n,):
        raise DimensionMismatch(f"z0 must have length 2n={2*params.n}, got shape {z0.shape}")
    return z0


def simulate_recursive(
    params: ModelParams,
    M: TransitionMatrix,
    z0: np.ndarray,
    noises: NoisePath,
) -> Trajectory:
    """Iterate z_{t+1} = M z_t + gamma_t, each step in O(n) through M's
    diagonal-plus-rank-two form (:meth:`TransitionMatrix.apply`).

    Raises
    ------
    NonFiniteState
        If any state entry overflows to a non-finite value; the error
        carries the first bad time index so explosive parameter sets
        fail loudly instead of saturating silently.
    """
    z = _iterate(M.apply, _initial_state(params, z0), noises.gamma)
    _check_finite(z)
    return Trajectory(z=z, noises=noises, seed=noises.seed, method=METHOD_RECURSIVE)


def _aggregate_path(A: np.ndarray, v0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(xbar, ybar)_{t+1} = A (xbar, ybar)_t + g_t from v0, for g of shape
    (T, 2); returns the T + 1 states.  Python floats step faster than
    numpy scalars and overflow to inf silently."""
    (a11, a12), (a21, a22) = A.tolist()
    x, y = v0.tolist()
    xs, ys = [x], [y]
    for gx, gy in zip(g[:, 0].tolist(), g[:, 1].tolist()):
        x, y = a11 * x + a12 * y + gx, a21 * x + a22 * y + gy
        xs.append(x)
        ys.append(y)
    return np.column_stack([xs, ys])


def simulate_explicit(
    params: ModelParams,
    decomposition: SpectralDecomposition,
    z0: np.ndarray,
    noises: NoisePath,
) -> Trajectory:
    """Evaluate the closed-form solution

        z_{t+1} = R J_R^{t+1} R^-1 z_0 + sum_{i=0..t} R J_R^i R^-1 gamma_{t-i}

    in the coordinates of the block basis R, in every regime: each
    deviation accumulates through its scalar rate (the running form of
    the moving-average sum), the aggregate pair through the 2x2 map A,
    and R maps every step back at the end, all in O(n) per step.
    """
    R = decomposition.R
    # rows R^-1 z_0, R^-1 gamma_0, ...; each column block's path overwrites them
    w = R.solve(np.vstack([_initial_state(params, z0), noises.gamma]))
    w[:, :-2] = _iterate(lambda u: R.rates * u, w[0, :-2], w[1:, :-2])
    w[:, -2:] = _aggregate_path(R.A, w[0, -2:], w[1:, -2:])
    with np.errstate(over="ignore", invalid="ignore"):
        z = R.apply(w)
    _check_finite(z)
    return Trajectory(z=z, noises=noises, seed=noises.seed, method=METHOD_EXPLICIT)


def aggregates(trajectory: Trajectory, params: ModelParams) -> AggregateSeries:
    """Weighted aggregate series of a trajectory."""
    n = params.n
    if trajectory.z.shape[1] != 2 * n:
        raise DimensionMismatch(
            f"trajectory state width {trajectory.z.shape[1]} does not match 2n={2*n}"
        )
    return AggregateSeries(
        xbar=trajectory.z[:, :n] @ params.b,
        ybar=trajectory.z[:, n:] @ params.a,
    )
