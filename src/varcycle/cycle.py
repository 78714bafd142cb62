"""The induced scalar model for the aggregate output growth rate.

Weighting the vector model by a and b collapses it to

    xbar(t+2) + kappa1 xbar(t+1) + kappa2 xbar(t) = h(t),
    kappa1 = alpha + beta - 2,    kappa2 = 1 - alpha - beta + 2 alpha beta,
    h(t) = alpha [ebar(t+1) - ebar(t)] + alpha beta [ebar(t) - nbar(t)],

with ebar = b . epsilon and nbar = a . eta.  The forcing term consumes
the shock one step ahead, so the recursion at step t+2 is still causal
in the noise indices.  The characteristic roots are
rho_{1,2} = (-kappa1 +- sqrt(Delta1))/2 with Delta1 = kappa1^2 - 4 kappa2
equal to the vector model's discriminant, so the scalar regime
trichotomy coincides with the spectral one.  In the oscillatory regime
|rho1| = sqrt(kappa2) and the homogeneous solutions are damped cosines
c1 |rho1|^t cos(c2 + omega t).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, NotInvertible, RangeError, TooShort, WrongRegime
from .model import ModelParams
from .simulate import NoisePath
from .spectral import _trichotomy


class CycleRegime(enum.Enum):
    COMPLEX_OSCILLATORY = "complex_oscillatory"
    DISTINCT_REAL = "distinct_real"
    REPEATED_REAL = "repeated_real"


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
    seed: int | None


def reduce_to_cycle(alpha: float, beta: float) -> CycleModel:
    """Collapse (alpha, beta) to the scalar-model coefficients and roots.

    The scalar discriminant equals the vector one (asserted to 1e-12),
    and the regime uses the same scale-relative boundary tolerance as
    the spectral classification, so the two trichotomies agree by
    construction.
    """
    kappa1 = alpha + beta - 2.0
    kappa2 = 1.0 - alpha - beta + 2.0 * alpha * beta
    delta1 = kappa1 * kappa1 - 4.0 * kappa2
    delta = alpha * alpha + beta * beta - 6.0 * alpha * beta
    scale = max(1.0, abs(delta), abs(delta1))
    if abs(delta1 - delta) > 1e-12 * scale:
        raise AssertionError(f"discriminant identity violated: {delta1} vs {delta}")

    sign = _trichotomy(delta1, alpha, beta)
    omega: float | None = None
    if sign < 0:
        regime = CycleRegime.COMPLEX_OSCILLATORY
        half = np.sqrt(-delta1) / 2.0
        rho1 = complex(-kappa1 / 2.0, half)
        rho2 = complex(-kappa1 / 2.0, -half)
        rho_mod = float(np.sqrt(kappa2))
        # atan2 lands in the correct quadrant of (0, pi) even at kappa1 = 0,
        # where the principal arctan branch would need patching.
        omega = float(np.arctan2(half, -kappa1 / 2.0))
    elif sign == 0:
        regime = CycleRegime.REPEATED_REAL
        rho1 = rho2 = complex(-kappa1 / 2.0, 0.0)
        rho_mod = abs(rho1.real)
    else:
        regime = CycleRegime.DISTINCT_REAL
        half = np.sqrt(delta1) / 2.0
        rho1 = complex(-kappa1 / 2.0 + half, 0.0)
        rho2 = complex(-kappa1 / 2.0 - half, 0.0)
        rho_mod = abs(rho1.real)
    return CycleModel(
        alpha=alpha,
        beta=beta,
        kappa1=kappa1,
        kappa2=kappa2,
        delta1=delta1,
        rho1=rho1,
        rho2=rho2,
        rho_mod=rho_mod,
        omega=omega,
        regime=regime,
        invertible=bool(0.0 < kappa2 < 1.0),
        strictly_periodic=bool(abs(rho_mod - 1.0) <= 1e-12),
    )


def sample_scalar_noise(
    eps_law: tuple[float, float],
    eta_law: tuple[float, float],
    T: int,
    seed: int,
    zero_noise: bool = False,
) -> ScalarNoise:
    """Draw aggregated-shock series of length T + 2 (both, for symmetry).

    Each law is (mean, sd) with a finite mean and a finite sd >= 0, and
    the seed must be >= 0 even when nothing is drawn.
    """
    if T < 1:
        raise RangeError(f"T must be >= 1, got {T}")
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    for name, (mean, sd) in (("epsilon", eps_law), ("eta", eta_law)):
        if not (np.isfinite(mean) and np.isfinite(sd) and sd >= 0):
            raise RangeError(f"{name} law needs a finite mean and sd >= 0, got ({mean}, {sd})")
    if zero_noise:
        eps = np.full(T + 2, eps_law[0])
        eta = np.full(T + 2, eta_law[0])
    else:
        rng = np.random.default_rng(seed)
        # abs: a zero sd written as -0.0 draws as 0.0 does
        eps = rng.normal(eps_law[0], abs(eps_law[1]), T + 2)
        eta = rng.normal(eta_law[0], abs(eta_law[1]), T + 2)
    return ScalarNoise(eps_bar=eps, eta_bar=eta, seed=seed)


def scalar_noise_from_vector(params: ModelParams, noises: NoisePath) -> ScalarNoise:
    """Aggregate a vector noise path: ebar = b . epsilon, nbar = a . eta."""
    eps_bar = noises.epsilon @ params.b
    eta_bar = noises.eta @ params.a
    return ScalarNoise(eps_bar=eps_bar, eta_bar=eta_bar, seed=noises.seed)


def forcing_series(noise: ScalarNoise, alpha: float, beta: float) -> np.ndarray:
    """Vectorized h(t) for t = 0 .. len(eps_bar) - 2."""
    e = noise.eps_bar
    n0 = noise.eta_bar[: len(e) - 1]
    return alpha * (e[1:] - e[:-1]) + alpha * beta * (e[:-1] - n0)


def _recurse(k1: float, k2: float, x0: float, x1: float, h: list[float]) -> np.ndarray:
    """x(t+2) = -k1 x(t+1) - k2 x(t) + h(t) from x(0) = x0, x(1) = x1.

    Returns x(0) .. x(len(h) + 1).  Raises NonFiniteState at the first
    t >= 2 whose state is not finite.  Callers pass h as a list that
    nothing else holds, so it is freed before x is copied to an array:
    both lists are as long as the run.
    """
    # Python floats step faster than numpy scalars and overflow to inf silently
    x = [float(x0), float(x1)]
    for ht in h:
        x.append(-k1 * x[-1] - k2 * x[-2] + ht)
    del h
    out = np.array(x)
    bad = np.flatnonzero(~np.isfinite(out[2:]))
    if bad.size:
        raise NonFiniteState(int(bad[0]) + 2)
    return out


def simulate_cycle(
    model: CycleModel, noise: ScalarNoise, x0: float, x1: float, T: int
) -> np.ndarray:
    """Iterate xbar(t+2) = -kappa1 xbar(t+1) - kappa2 xbar(t) + h(t).

    Raises RangeError for a non-finite x0 or x1, and NonFiniteState at
    the first t >= 2 whose state overflowed.
    """
    if T < 2:
        raise RangeError(f"T must be >= 2, got {T}")
    if not (np.isfinite(x0) and np.isfinite(x1)):
        raise RangeError(f"initial state must be finite, got x0={x0}, x1={x1}")
    if len(noise.eps_bar) < T or len(noise.eta_bar) < T - 1:
        raise IndexError("noise series do not cover the requested horizon")
    within = ScalarNoise(noise.eps_bar[:T], noise.eta_bar[: T - 1], noise.seed)
    return _recurse(model.kappa1, model.kappa2, x0, x1,
                    forcing_series(within, model.alpha, model.beta).tolist())


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
    return _recurse(model.kappa1, model.kappa2, 0.0, 1.0, [0.0] * count)[1:]


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
    return _recurse(model.kappa1, model.kappa2, 0.0, 0.0, np.asarray(h, dtype=float).tolist())


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant-frequency estimate with a prominence flag.

    ``frequency`` (cycles/step) and ``period`` come from the argmax bin
    of the full-length periodogram refined by quadratic interpolation of
    its neighbors.  ``peak_power``/``median_power`` are taken from a
    segment-averaged periodogram whose noise floor is concentrated
    enough that "peak above 3x median" separates genuine oscillations
    from white noise (the raw periodogram's max/median ratio grows like
    log N even for white noise, so the averaged spectrum carries the
    flag).
    """

    frequency: float
    period: float
    peak_power: float
    median_power: float
    prominent: bool


def _periodogram(x: np.ndarray) -> np.ndarray:
    """Mean-removed, untapered periodogram over bins 1 .. N//2."""
    x = x - x.mean()
    p = np.abs(np.fft.rfft(x)) ** 2 / len(x)
    return p[1:]


def dominant_period(series: np.ndarray) -> PeriodEstimate:
    """Locate the dominant spectral peak over frequencies (0, 0.5].

    Raises TooShort for series of fewer than 64 points.
    """
    x = np.asarray(series, dtype=float)
    N = len(x)
    if N < 64:
        raise TooShort(f"need at least 64 points, got {N}")
    power = _periodogram(x)
    k = int(np.argmax(power)) + 1  # bin index in the full rfft layout
    freq = k / N
    if 2 <= k <= len(power) - 1:
        pm, p0, pp = power[k - 2], power[k - 1], power[k]
        denom = pm - 2.0 * p0 + pp
        if denom < 0:
            freq = (k + 0.5 * (pm - pp) / denom) / N

    n_seg = 8 if N >= 256 else 4
    seg_len = N // n_seg
    avg = np.mean([_periodogram(x[i * seg_len:(i + 1) * seg_len]) for i in range(n_seg)], axis=0)
    peak_power = float(np.max(avg))
    median_power = float(np.median(avg))
    return PeriodEstimate(
        frequency=float(freq),
        period=float(1.0 / freq),
        peak_power=peak_power,
        median_power=median_power,
        prominent=bool(peak_power > 3.0 * median_power),
    )
