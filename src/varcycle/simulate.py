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


class NoisePath:
    """A full noise path stored as arrays.

    ``epsilon`` and ``eta`` have shape (..., T, n) and ``gamma`` shape
    (..., T, 2n), the stacked gamma_t = (alpha * epsilon_t, -beta * eta_t)
    that enters the recursion; leading axes index independent paths.
    """

    def __init__(self, epsilon: np.ndarray, eta: np.ndarray, alpha: float, beta: float):
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
        # overflow is left in gamma for the recursion's finite check
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(epsilon, alpha, out=self.gamma[..., :n])
            np.multiply(eta, -beta, out=self.gamma[..., n:])


@dataclass(frozen=True)
class Trajectory:
    """States z_0..z_T (rows)."""

    z: np.ndarray


@dataclass(frozen=True)
class AggregateSeries:
    """Weighted aggregates xbar(t) = b . x_t and ybar(t) = a . y_t."""

    xbar: np.ndarray
    ybar: np.ndarray


def _generator(seed: int | np.random.Generator) -> np.random.Generator:
    """``default_rng(seed)`` for a seed, which must be >= 0; a generator
    passes through, and what is drawn from it advances it."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _draw_shocks(
    seed: int | np.random.Generator, mu: np.ndarray, sigma: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """The one shock draw: a standard-normal array of ``shape`` = (..., 2,
    T, n) from ``_generator(seed)``, in which coordinate i of block k is
    scaled by sigma[k*n + i] and shifted by mu[k*n + i].  That is bitwise
    what ``rng.normal`` computes, so a zero sigma draws exactly the mean.
    RangeError where the array is too large to hold."""
    rng = _generator(seed)
    try:
        draws = rng.standard_normal(shape)
    except (ValueError, MemoryError) as exc:
        raise RangeError(f"cannot draw shocks of shape {shape}: {exc}") from exc
    law_shape = (2, 1, shape[-1])
    draws *= np.reshape(sigma, law_shape)
    draws += np.reshape(mu, law_shape)
    return draws


def sample_noise_path(
    spec: NoiseSpec,
    params: ModelParams,
    T: int,
    seed: int | np.random.Generator,
    reps: int | None = None,
) -> NoisePath:
    """Draw T i.i.d. Gaussian noise steps, deterministic in ``seed``.

    Coordinate i of epsilon uses (mu_i, sigma_i) and coordinate i of eta
    uses (mu_{n+i}, sigma_{n+i}); both come from one :func:`_draw_shocks`
    of shape (2, T, n), epsilon's block first.  ``seed`` is a
    non-negative integer or a generator, which the draw advances.  With
    ``reps`` the path is a batch of that many independent paths on a
    leading axis, drawn in one (reps, 2, T, n) call.
    """
    if T < 1:
        raise RangeError(f"T must be >= 1, got {T}")
    batch = () if reps is None else (reps,)
    draws = _draw_shocks(seed, spec.mu, spec.sigma, batch + (2, T, params.n))
    return NoisePath(draws[..., 0, :, :], draws[..., 1, :, :], params.alpha, params.beta)


def _iterate(
    step: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Run z_{t+1} = step(z_t) + gamma_t over any leading batch axes.

    z0 has shape (..., m) and gamma (..., T, m); returns the states
    z_0..z_T as (..., T + 1, m).  This is the literal step loop, one
    numpy step per t, behind the recursion in z and the Monte Carlo
    batches; :func:`simulate_explicit` evaluates blocks of steps in
    closed form instead.  Overflow is left in the states (callers that
    care use :func:`_check_finite`), not raised as a numpy warning.
    """
    g = np.moveaxis(gamma, -2, 0)
    z = np.empty((g.shape[0] + 1,) + g.shape[1:])
    z[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for zt, gt, znext in zip(z, g, z[1:]):
            np.add(step(zt), gt, out=znext)
    return np.moveaxis(z, 0, -2)


def _first_non_finite(z: np.ndarray) -> int | None:
    """The first time row (entry, for a 1-D z) holding a non-finite
    value, or None."""
    bad = np.flatnonzero(~np.all(np.isfinite(z), axis=tuple(range(1, z.ndim))))
    return int(bad[0]) if bad.size else None


def _check_finite(z: np.ndarray) -> None:
    """Raise NonFiniteState at :func:`_first_non_finite`.  A non-finite
    state stays non-finite under a linear step, so this is the first t at
    which the run overflowed."""
    if (t := _first_non_finite(z)) is not None:
        raise NonFiniteState(t)


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
    return Trajectory(z=z)


#: Cells of a block of the blocked recursion: a run of width c steps
#: min(64, _BLOCK_CELLS // c) rows at a time.
_BLOCK_CELLS = 16384


def _block_operator(F: np.ndarray, block: int) -> np.ndarray:
    """The (b k, (b + 1) k) matrix K, for k x k F, whose block (i, j) is
    F^(i+1-j) where j <= i + 1 and 0 above, so that K times the rows
    v_s, g_s, .., g_{s+b-1} (each k long) gives v_{s+1}..v_{s+b} of
    v_{t+1} = F v_t + g_t.  b is ``block`` or, where a power of F up to
    F^block is not finite, the largest b below it whose powers all are
    (at least 1): an infinite power times a zero state would be NaN."""
    k, block = len(F), max(block, 1)
    powers = np.empty((block + 1, k, k))
    powers[0], powers[1] = np.eye(k), F
    h = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while h < block:  # F^(h+i) = F^i F^h for i = 1..h, so log2(block) products
            c = min(h, block - h)
            np.matmul(powers[1:c + 1], powers[h], out=powers[h + 1:h + c + 1])
            h += c
    finite = np.all(np.isfinite(powers), axis=(1, 2))
    b = block if finite.all() else max(1, int(np.argmin(finite)) - 1)
    lag = np.arange(1, b + 1)[:, None] - np.arange(b + 1)
    K = np.where((lag >= 0)[..., None, None], powers[np.maximum(lag, 0)], 0.0)
    return K.transpose(0, 2, 1, 3).reshape(b * k, (b + 1) * k)


def _recur_blocked(F: np.ndarray, v: np.ndarray, block: int) -> None:
    """v_{t+1} = (F kron I_m) v_t + g_t in place on the rows of v, which
    hold v_0, g_0, .., g_{T-1} and end up holding v_0..v_T: the k x k F
    maps entry a*m + c of a row through entry b*m + c.  Each block of
    rows is one product with :func:`_block_operator` (Blelloch 1990,
    the blocked form of a linear recurrence), so T / block products
    replace T steps."""
    T, k = len(v) - 1, len(F)
    K = _block_operator(F, block)
    length = K.shape[0] // k
    for s in range(0, T, length):
        b = min(length, T - s)
        v[s + 1:s + b + 1] = (K[:b * k, :(b + 1) * k]
                              @ v[s:s + b + 1].reshape((b + 1) * k, -1)).reshape(b, -1)


def simulate_explicit(
    params: ModelParams,
    decomposition: SpectralDecomposition,
    z0: np.ndarray,
    noises: NoisePath,
) -> Trajectory:
    """Evaluate the closed-form solution

        z_{t+1} = R J_R^{t+1} R^-1 z_0 + sum_{i=0..t} R J_R^i R^-1 gamma_{t-i}

    in the coordinates of the block basis R, in every regime.  J_R is
    block diagonal: each run of deviations decays at its scalar rate and
    the aggregate pair moves by the 2x2 map A, so each of the three runs
    of columns is its own recurrence.  Each is evaluated a block of
    steps at a time, every block one product of the stacked powers of
    its map with the carried state and the block's shocks
    (:func:`_recur_blocked`); the block holds min(64, 16384 // width)
    steps for a run ``width`` columns wide, fewer where a power of the
    map overflows.  R maps every state back at the end, in O(n) per
    step.

    A block product multiplies the zeros above its diagonal by the later
    shocks, so a non-finite shock puts NaN in the rows before it.  Only
    where a state is not finite are the rows from the first such one on
    stepped again one at a time, and NonFiniteState reports the first
    row that stays non-finite.
    """
    R, n = decomposition.R, params.n
    T, m = noises.gamma.shape[0], n - 1
    z0 = _initial_state(params, z0)
    runs = [(R.rates[k * m:k * m + 1, None], slice(k * m, (k + 1) * m)) for k in range(2) if m]
    runs.append((R.A, slice(2 * m, 2 * n)))
    w = np.empty((T + 1, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        # rows R^-1 z_0, R^-1 gamma_0, ...; each run's path overwrites them
        w[0] = R.solve(z0)
        R.solve(noises.gamma, out=w[1:])
        for F, cols in runs:
            _recur_blocked(F, w[:, cols], min(64, _BLOCK_CELLS // (cols.stop - cols.start), T))
        z = R.apply(w)
        if (bad := _first_non_finite(z)) is not None:
            for t in range(bad, T + 1):
                if t:
                    R.solve(noises.gamma[t - 1:t], out=w[t:t + 1])
                    for F, cols in runs:
                        _recur_blocked(F, w[t - 1:t + 1, cols], 1)
                    z[t:t + 1] = R.apply(w[t:t + 1])
                if not np.all(np.isfinite(z[t])):
                    raise NonFiniteState(t)
    return Trajectory(z=z)


def aggregates(trajectory: Trajectory, params: ModelParams) -> AggregateSeries:
    """Weighted aggregate series of a trajectory."""
    n = params.n
    if trajectory.z.shape[1] != 2 * n:
        raise DimensionMismatch(
            f"trajectory state width {trajectory.z.shape[1]} does not match 2n={2*n}"
        )
    return AggregateSeries(*params.aggregate(trajectory.z[:, :n], trajectory.z[:, n:]))
