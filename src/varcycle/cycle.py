"""The induced scalar model for the aggregate output growth rate.

Weighting the vector model by a and b collapses it to

    xbar(t+2) + kappa1 xbar(t+1) + kappa2 xbar(t) = h(t),
    kappa1 = alpha + beta - 2,    kappa2 = 1 - alpha - beta + 2 alpha beta,
    h(t) = alpha [ebar(t+1) - ebar(t)] + alpha beta [ebar(t) - nbar(t)],

with ebar = b . epsilon and nbar = a . eta.  The forcing term consumes
the shock one step ahead, so the recursion at step t+2 is still causal
in the noise indices.  kappa1 = -tr A and kappa2 = det A for the vector
model's 2x2 aggregate map A, so the characteristic roots rho1, rho2 are
the roots lambda3, lambda4 of its quadratic factor, with the
discriminant Delta1 = kappa1^2 - 4 kappa2 = Delta; they are taken from
the spectral module, and the scalar regime trichotomy is the spectral
one.  In the oscillatory regime |rho1| = sqrt(kappa2) and the
homogeneous solutions are damped cosines c1 |rho1|^t cos(c2 + omega t).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, NotInvertible, RangeError, TooShort, WrongRegime
from .model import ModelParams
from .simulate import NoisePath, _draw_shocks, _first_non_finite, _generator
from .spectral import Regime, _quadratic


class CycleRegime(enum.Enum):
    COMPLEX_OSCILLATORY = "complex_oscillatory"
    DISTINCT_REAL = "distinct_real"
    REPEATED_REAL = "repeated_real"


#: The scalar cycle's regime for each spectral regime of the vector model.
SPECTRAL_TO_CYCLE = {
    Regime.COMPLEX_CONJUGATE: CycleRegime.COMPLEX_OSCILLATORY,
    Regime.DIAGONALIZABLE_REAL: CycleRegime.DISTINCT_REAL,
    Regime.REPEATED_ROOT_JORDAN: CycleRegime.REPEATED_REAL,
}


@dataclass(frozen=True)
class CycleModel:
    """Coefficients and root analysis of the scalar equation.

    ``rho1``/``rho2`` are the characteristic roots (complex conjugates
    in the oscillatory regime), ``rho_mod`` is |rho1|, and ``omega`` the
    oscillation angle in (0, pi) — defined only when the roots are
    complex.  ``invertible`` is the direct condition 0 < kappa2 < 1
    under which the lag-polynomial inverse converges.
    """

    alpha: float
    beta: float
    kappa1: float
    kappa2: float
    delta1: float
    rho1: complex
    rho2: complex
    rho_mod: float
    omega: float | None
    regime: CycleRegime
    invertible: bool
    strictly_periodic: bool


@dataclass(frozen=True)
class CycleSolution:
    """A fitted homogeneous solution c1 |rho1|^t cos(c2 + omega t)."""

    c1: float
    c2: float
    values: np.ndarray


@dataclass(frozen=True)
class ScalarNoise:
    """Aggregated shock series ebar/nbar, long enough to evaluate the
    forcing term through the final simulated step (ebar needs index
    t + 1 for h(t))."""

    eps_bar: np.ndarray
    eta_bar: np.ndarray


def reduce_to_cycle(alpha: float, beta: float) -> CycleModel:
    """Collapse (alpha, beta) to the scalar-model coefficients and roots.

    The scalar equation's characteristic polynomial lam^2 + kappa1 lam +
    kappa2 is the quadratic factor g of the vector model: kappa1 is
    minus the trace and kappa2 the determinant of the aggregate map.  So
    its roots, the discriminant delta1 = Delta and the regime are read
    from the spectral solution of g, and the two trichotomies agree by
    construction.  omega is the angle of rho1 in the oscillatory regime.
    NonFiniteResult where the discriminant is NaN.
    """
    kappa1 = alpha + beta - 2.0
    kappa2 = 1.0 - alpha - beta + 2.0 * alpha * beta
    boundaries, regime, lam3, lam4 = _quadratic(alpha, beta)
    rho1, rho2 = complex(lam3), complex(lam4)
    omega: float | None = None
    if regime is Regime.COMPLEX_CONJUGATE:
        rho_mod = float(np.sqrt(kappa2))
        # atan2 lands in the correct quadrant of (0, pi) even at kappa1 = 0,
        # where the principal arctan branch would need patching.
        omega = float(np.arctan2(rho1.imag, rho1.real))
    else:
        rho_mod = abs(rho1.real)
    return CycleModel(
        alpha=alpha,
        beta=beta,
        kappa1=kappa1,
        kappa2=kappa2,
        delta1=boundaries.delta,
        rho1=rho1,
        rho2=rho2,
        rho_mod=rho_mod,
        omega=omega,
        regime=SPECTRAL_TO_CYCLE[regime],
        invertible=bool(0.0 < kappa2 < 1.0),
        strictly_periodic=bool(abs(rho_mod - 1.0) <= 1e-12),
    )


def sample_scalar_noise(
    eps_law: tuple[float, float],
    eta_law: tuple[float, float],
    T: int,
    seed: int,
) -> ScalarNoise:
    """Draw aggregated-shock series of length T + 2 (both, for symmetry).

    Each law is (mean, sd) with a finite mean and a finite sd >= 0; a
    zero sd draws exactly the mean.  The seed must be >= 0.  The two
    series are the vector draw at n = 1, epsilon's first.
    """
    if T < 1:
        raise RangeError(f"T must be >= 1, got {T}")
    rng = _generator(seed)
    for name, (mean, sd) in (("epsilon", eps_law), ("eta", eta_law)):
        if not (np.isfinite(mean) and np.isfinite(sd) and sd >= 0):
            raise RangeError(f"{name} law needs a finite mean and sd >= 0, got ({mean}, {sd})")
    # abs: a zero sd written as -0.0 draws as 0.0 does
    draws = _draw_shocks(rng, (eps_law[0], eta_law[0]), (abs(eps_law[1]), abs(eta_law[1])),
                         (2, T + 2, 1))
    return ScalarNoise(eps_bar=draws[0, :, 0], eta_bar=draws[1, :, 0])


def scalar_noise_from_vector(params: ModelParams, noises: NoisePath) -> ScalarNoise:
    """Aggregate a vector noise path: ebar = b . epsilon, nbar = a . eta."""
    return ScalarNoise(*params.aggregate(noises.epsilon, noises.eta))


def forcing_series(noise: ScalarNoise, alpha: float, beta: float) -> np.ndarray:
    """Vectorized h(t) for t = 0 .. len(eps_bar) - 2.  Overflow is left
    in the series, not raised as a numpy warning."""
    e = noise.eps_bar
    n0 = noise.eta_bar[: len(e) - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return alpha * (e[1:] - e[:-1]) + alpha * beta * (e[:-1] - n0)


def _recurse(model: CycleModel, x0: float, x1: float, h: np.ndarray, rows: int = 0) -> np.ndarray:
    """x(t+2) = -kappa1 x(t+1) - kappa2 x(t) + h(t) from x(0) = x0, x(1) = x1.

    Returns x(0) .. x(len(h) + 1) by a two-level scan (Blelloch 1990) in
    elementwise numpy, so no BLAS kernel touches the bits.  The N steps are
    C blocks of B, the columns of a buffer of B + 2 rows: each block's
    solution from a zero state is stepped down the rows in place over its
    forcing, two more columns step from (0, 1) and (1, 0) to the basis P
    and Q, a Python loop carries the block start states (a, b) through the
    last rows of P and Q, and P b + Q a is added.  B is ``rows`` or
    max(2, sqrt(N / 32)), 96 at N = 3e5, which balances the row operations
    against the carry; where the larger root modulus rho exceeds 1 it is at
    most 480 / log2(rho), so P and Q stay below 2^493 while the state grows.

    Raises NonFiniteState at the first t >= 2 (x0 and x1 are finite) whose
    state is not: from the start of the block where it first comes within
    2 (1 + |kappa1| + |kappa2|) of overflow, the steps are taken one at a
    time, so t is the step-by-step recursion's.
    """
    k1, k2, N = float(model.kappa1), float(model.kappa2), len(h)
    rho = max(abs(model.rho1), abs(model.rho2))
    B = rows or max(2, min(int((N / 32) ** 0.5), int(480 / np.log2(rho)) if rho > 1 else N))
    C = -(-N // B)
    out = np.zeros(C * B + 2)
    out[:2], out[2:N + 2] = (x0, x1), h
    buf = np.zeros((B + 2, C + 2))  # two zero states and B steps of C blocks, P and Q
    buf[2:, :C] = out[2:].reshape(C, B).T
    buf[1, C] = buf[0, C + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for prev2, prev1, row in zip(buf, buf[1:], buf[2:]):
            row -= k1 * prev1 + k2 * prev2
        (p2, q2), (p1, q1) = buf[-2:, C:].tolist()
        a, b, starts = float(x0), float(x1), array("d")
        for u, v in zip(memoryview(buf[-2, :C]), memoryview(buf[-1, :C])):
            starts.extend((a, b))
            a, b = u + (p2 * b + q2 * a), v + (p1 * b + q1 * a)
        sa, sb = np.frombuffer(starts).reshape(C, 2).T
        for row, p, q in zip(buf[2:, :C], buf[2:, C].tolist(), buf[2:, C + 1].tolist()):
            row += p * sb + q * sa
        out[2:].reshape(C, B)[...] = buf[2:, :C].T
        x, scaled = out[:N + 2], buf.reshape(-1)[:N + 2]  # buf is read no more
        t = _first_non_finite(np.multiply(x, 2.0 + 2.0 * abs(k1) + 2.0 * abs(k2), out=scaled))
    if t is not None:
        s = max(2, t - (t - 2) % B)
        a, b = float(x[s - 2]), float(x[s - 1])
        for t, ht in enumerate(memoryview(h[s - 2:]), s):
            a, b = b, -k1 * b - k2 * a + ht
            x[t] = b
            if not -np.inf < b < np.inf:
                raise NonFiniteState(t)
    return x


def simulate_cycle(
    model: CycleModel, noise: ScalarNoise, x0: float, x1: float, T: int
) -> np.ndarray:
    """Iterate xbar(t+2) = -kappa1 xbar(t+1) - kappa2 xbar(t) + h(t).

    Raises RangeError for a non-finite x0 or x1 or noise shorter than the
    horizon, and NonFiniteState at the first t >= 2 whose state overflowed.
    """
    if T < 2:
        raise RangeError(f"T must be >= 2, got {T}")
    if not (np.isfinite(x0) and np.isfinite(x1)):
        raise RangeError(f"initial state must be finite, got x0={x0}, x1={x1}")
    if len(noise.eps_bar) < T or len(noise.eta_bar) < T - 1:
        raise RangeError(f"noise series of lengths {len(noise.eps_bar)} and "
                         f"{len(noise.eta_bar)} do not cover T={T}, which needs {T} and {T - 1}")
    within = ScalarNoise(noise.eps_bar[:T], noise.eta_bar[: T - 1])
    return _recurse(model, x0, x1, forcing_series(within, model.alpha, model.beta))


def fit_constants(model: CycleModel, x0: float, x1: float) -> tuple[float, float]:
    """Solve c1 cos(c2) = x0 and c1 |rho1| cos(c2 + omega) = x1.

    Writing u = c1 cos c2 and v = c1 sin c2, the second equation gives
    v = (x0 cos(omega) - x1/|rho1|) / sin(omega) (sin(omega) > 0 since
    omega lies in (0, pi)); then c1 = hypot(u, v) >= 0 and
    c2 = atan2(v, u), which also covers the cos(c2) = 0 branch where
    x0 = 0.  The all-zero case returns (0, 0) by convention.
    """
    if model.regime is not CycleRegime.COMPLEX_OSCILLATORY or model.omega is None:
        raise WrongRegime("constant fitting applies to the oscillatory regime")
    if x0 == 0.0 and x1 == 0.0:
        return 0.0, 0.0
    u = x0
    v = (x0 * np.cos(model.omega) - x1 / model.rho_mod) / np.sin(model.omega)
    return float(np.hypot(u, v)), float(np.arctan2(v, u))


def homogeneous_solution(model: CycleModel, c1: float, c2: float, t_max: int) -> CycleSolution:
    """Evaluate the damped-cosine solution for t = 0 .. t_max."""
    if model.regime is not CycleRegime.COMPLEX_OSCILLATORY or model.omega is None:
        raise WrongRegime("the cosine solution applies to the oscillatory regime")
    t = np.arange(t_max + 1)
    values = c1 * model.rho_mod**t * np.cos(c2 + model.omega * t)
    return CycleSolution(c1=c1, c2=c2, values=values)


def psi_weights(model: CycleModel, count: int) -> np.ndarray:
    """Moving-average weights psi_0 .. psi_count of the inverted lag
    polynomial.

    psi_0 = 1, psi_1 = -kappa1, psi_s = -kappa1 psi_{s-1} - kappa2
    psi_{s-2}: the homogeneous recursion from psi_{-1} = 0, psi_0 = 1.
    """
    if count < 0:
        raise RangeError(f"count must be >= 0, got {count}")
    return _recurse(model, 0.0, 1.0, np.zeros(count))[1:]


def particular_solution(model: CycleModel, h: np.ndarray) -> np.ndarray:
    """The particular solution by lag-operator inversion.

    Returns xbar_p(t) for t = 0 .. len(h) + 1 with

        xbar_p(t) = sum_{s=0..t-2} psi_s h(t - 2 - s),

    the inverse lag polynomial applied to forcing that is zero before
    t = 0, aligned so that h(t) drives step t + 2.  With no earlier
    forcing the sum is exactly the recursion started from
    xbar_p(0) = xbar_p(1) = 0, which is how it is evaluated.  Raises
    NotInvertible unless 0 < kappa2 < 1.
    """
    if not model.invertible:
        raise NotInvertible(f"kappa2 = {model.kappa2} is outside (0, 1)")
    return _recurse(model, 0.0, 0.0, np.asarray(h, dtype=float))


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant-frequency estimate with a prominence flag, all from the
    mean periodogram of 8 equal segments, 4 below 256 points (Welch 1967).

    ``frequency`` (cycles/step) and ``period`` come from its argmax bin on
    the grid 1/seg_len, refined by quadratic interpolation of its
    neighbors.  ``peak_power``/``median_power`` are its maximum and median:
    the averaged noise floor is concentrated enough that "peak above 3x
    median" separates genuine oscillations from white noise (the raw
    periodogram's max/median ratio grows like log N even for white noise).
    """

    frequency: float
    period: float
    peak_power: float
    median_power: float
    prominent: bool


def _periodogram(x: np.ndarray) -> np.ndarray:
    """Mean-removed, untapered periodogram of each row over bins 1 .. N//2."""
    x = x - x.mean(axis=-1, keepdims=True)
    p = np.abs(np.fft.rfft(x)) ** 2 / x.shape[-1]
    return p[..., 1:]


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bitwise, from the same
    partition: NaN sorts last and makes it NaN, and the sum of the middle
    values starts from 0.0 as np.mean's does, so -0.0 reads 0.0.
    np.median imports numpy.ma on its first call, which costs about
    10 ms in a fresh process."""
    k = len(x) // 2
    part = np.partition(x, [k - 1, k, -1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(0.0 + part[k] if len(x) % 2 else (0.0 + part[k - 1] + part[k]) / 2)


def dominant_period(series: np.ndarray) -> PeriodEstimate:
    """Locate the dominant spectral peak over frequencies (0, 0.5].

    Raises TooShort for series of fewer than 64 points.
    """
    x = np.asarray(series, dtype=float)
    N = len(x)
    if N < 64:
        raise TooShort(f"need at least 64 points, got {N}")
    n_seg = 8 if N >= 256 else 4
    seg_len = N // n_seg
    avg = _periodogram(x[:n_seg * seg_len].reshape(n_seg, seg_len)).mean(axis=0)
    k = int(np.argmax(avg)) + 1  # bin index in the segment's rfft layout
    freq = k / seg_len
    if 2 <= k <= len(avg) - 1:
        pm, p0, pp = avg[k - 2], avg[k - 1], avg[k]
        denom = pm - 2.0 * p0 + pp
        if denom < 0:
            freq = (k + 0.5 * (pm - pp) / denom) / seg_len
    peak_power = float(np.max(avg))
    median_power = _median(avg)
    return PeriodEstimate(
        frequency=float(freq),
        period=float(1.0 / freq),
        peak_power=peak_power,
        median_power=median_power,
        prominent=bool(peak_power > 3.0 * median_power),
    )
