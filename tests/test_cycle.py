import decimal
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import (
    CycleRegime,
    Regime,
    aggregates,
    build_transition_matrix,
    classify_regime,
    dominant_period,
    fit_constants,
    forcing_series,
    homogeneous_solution,
    particular_solution,
    psi_weights,
    reduce_to_cycle,
    sample_noise_path,
    sample_scalar_noise,
    scalar_noise_from_vector,
    simulate_cycle,
    simulate_recursive,
    validate_noise,
    validate_params,
)
from varcycle.cycle import ScalarNoise
from varcycle.errors import NonFiniteState, NotInvertible, RangeError, TooShort, WrongRegime

BENCH_ALPHA, BENCH_BETA = 1.09804, 0.7


def forcing_term(noise, alpha, beta, t):
    """Oracle: h(t) = alpha*(ebar(t+1) - ebar(t)) + alpha*beta*(ebar(t) - nbar(t)),
    one index at a time.  Raises IndexError when the series do not cover
    index t + 1."""
    if t < 0:
        raise IndexError(f"t must be >= 0, got {t}")
    if t + 1 >= len(noise.eps_bar) or t >= len(noise.eta_bar):
        raise IndexError(f"noise series too short for forcing term at t={t}")
    e, e1, n0 = noise.eps_bar[t], noise.eps_bar[t + 1], noise.eta_bar[t]
    return float(alpha * (e1 - e) + alpha * beta * (e - n0))


def invertibility_region_check(alpha, beta):
    """Oracle: invertibility from the published region bounds.

    (beta-1)/(2beta-1) < alpha < beta/(2beta-1) for beta > 1/2, with the
    bounds swapped for beta < 1/2; undefined (None) at beta = 1/2 where
    the direct condition 0 < kappa2 < 1 holds trivially.
    """
    if beta == 0.5:
        return None
    lo = (beta - 1.0) / (2.0 * beta - 1.0)
    hi = beta / (2.0 * beta - 1.0)
    if beta < 0.5:
        lo, hi = hi, lo
    return bool(lo < alpha < hi)


class TestReduceToCycle:
    def test_benchmark_coefficients(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        assert_allclose(m.kappa1, -0.20196, atol=1e-12)
        assert_allclose(m.kappa2, 0.739216, atol=1e-12)
        assert_allclose(m.delta1, -2.9160761584, atol=1e-10)
        assert_allclose(m.rho_mod, 0.8597767152, atol=1e-9)
        assert_allclose(m.omega, 1.4530755172, atol=1e-9)
        assert m.regime is CycleRegime.COMPLEX_OSCILLATORY
        assert m.invertible and not m.strictly_periodic
        # proof identities: |rho1|^2 = kappa2 and |rho1| cos(omega) = -kappa1/2
        assert abs(m.rho_mod**2 - m.kappa2) < 1e-12
        assert abs(m.rho_mod * np.cos(m.omega) + m.kappa1 / 2) < 1e-12

    def test_equal_adjustment_is_oscillatory(self):
        for alpha in (0.3, -0.7, 1.5):
            m = reduce_to_cycle(alpha, alpha)
            assert_allclose(m.delta1, -4 * alpha**2, rtol=1e-12)
            assert m.regime is CycleRegime.COMPLEX_OSCILLATORY

    def test_beta_half_kappa2(self):
        for alpha in (-1.0, 0.2, 2.5):
            m = reduce_to_cycle(alpha, 0.5)
            assert m.kappa2 == pytest.approx(0.5, abs=1e-15)
            assert m.invertible

    def test_coefficient_identities_random(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            alpha, beta = rng.uniform(-3, 3, 2)
            k1 = alpha + beta - 2
            k2 = 1 - alpha - beta + 2 * alpha * beta
            delta = alpha**2 + beta**2 - 6 * alpha * beta
            scale = max(1.0, abs(delta))
            assert abs((k1 * k1 - 4 * k2) - delta) < 1e-12 * scale
            assert abs((1 + k1 + k2) - 2 * alpha * beta) < 1e-12 * scale

    def test_regime_agreement_with_spectral(self):
        rng = np.random.default_rng(19)
        mapping = {
            Regime.COMPLEX_CONJUGATE: CycleRegime.COMPLEX_OSCILLATORY,
            Regime.DIAGONALIZABLE_REAL: CycleRegime.DISTINCT_REAL,
            Regime.REPEATED_ROOT_JORDAN: CycleRegime.REPEATED_REAL,
        }
        for _ in range(10_000):
            alpha, beta = rng.uniform(-3, 3, 2)
            if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
                continue
            _, spectral_regime = classify_regime(alpha, beta)
            assert reduce_to_cycle(alpha, beta).regime is mapping[spectral_regime]

    def test_boundary_classified_repeated(self):
        alpha = (3 - 2 * np.sqrt(2)) * 0.7
        m = reduce_to_cycle(alpha, 0.7)
        assert m.regime is CycleRegime.REPEATED_REAL
        assert m.rho1 == m.rho2

    def test_omega_quadrant_kappa1_zero(self):
        # alpha + beta = 2 with complex roots: omega is exactly pi/2
        m = reduce_to_cycle(1.0, 1.0 - 1e-9)
        assert m.regime is CycleRegime.COMPLEX_OSCILLATORY
        assert_allclose(m.omega, np.pi / 2, atol=1e-8)

    def test_omega_is_exact_at_small_adjustment(self):
        # kappa1^2 - 4 kappa2 cancels here; Delta = alpha^2 + beta^2 -
        # 6 alpha beta does not.  Reference: exact Delta, a 50-digit square
        # root, and the arctan series, which converges fast at 1e-5
        alpha = beta = 1e-5
        m = reduce_to_cycle(alpha, beta)
        assert m.regime is CycleRegime.COMPLEX_OSCILLATORY
        a, b = Fraction(alpha), Fraction(beta)
        delta = a * a + b * b - 6 * a * b
        assert m.delta1 == float(delta)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            half = (Decimal(-delta.numerator) / Decimal(delta.denominator)).sqrt() / 2
            mid = 1 - (a + b) / 2
            x = half / (Decimal(mid.numerator) / Decimal(mid.denominator))
            omega, power, k = Decimal(0), x, 1
            while abs(power) > Decimal(10) ** -60:
                omega += power / k if k % 4 == 1 else -power / k
                power *= x * x
                k += 2
        assert abs(m.omega - float(omega)) <= 1e-15 * float(omega)

    def test_invertibility_matches_region_descriptions(self):
        for beta in np.linspace(-1.5, 2.5, 41):
            if abs(beta - 0.5) < 1e-12:
                assert invertibility_region_check(0.3, 0.5) is None
                continue
            for alpha in np.linspace(-2.0, 3.0, 51):
                region = invertibility_region_check(alpha, beta)
                assert reduce_to_cycle(alpha, beta).invertible == region, (alpha, beta)


class TestForcingTerm:
    def test_zero_noise(self):
        noise = sample_scalar_noise((0.0, 0.0), (0.0, 0.0), 10, seed=0)
        assert np.all(forcing_series(noise, 0.7, 0.3) == 0.0)

    def test_unit_impulse(self):
        eps = np.zeros(8)
        eps[0] = 1.0
        noise = ScalarNoise(eps_bar=eps, eta_bar=np.zeros(8))
        h = forcing_series(noise, 1.0, 0.5)
        assert h[0] == pytest.approx(-0.5, abs=1e-15)
        assert h[1] == 0.0

    def test_index_error(self):
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.0), 5, seed=0)
        with pytest.raises(IndexError):
            forcing_term(noise, 0.5, 0.5, len(noise.eps_bar) - 1)

    def test_series_matches_scalar(self):
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 20, seed=3)
        h = forcing_series(noise, 1.2, 0.4)
        for t in range(len(h)):
            assert h[t] == pytest.approx(forcing_term(noise, 1.2, 0.4, t), abs=0)


# Ten sets spanning all three regimes, both boundaries, and beta < 0.
# Sets whose lambda1/lambda2 modes dominate explosively are excluded:
# aggregation annihilates those modes exactly, so in floating point the
# aggregate of hugely grown coordinates is cancellation noise and the
# identity cannot be checked at the aggregate scale.
PARAM_SETS = [
    (1.09804, 0.7),
    (0.5, 0.5),
    (-0.3, -0.4),
    (0.1, 0.9),
    (2.0, 0.1),
    (-0.5, 0.3),
    (1.5, -0.2),
    (0.9, 0.1),
    ((3 - 2 * np.sqrt(2)) * 0.7, 0.7),
    ((3 + 2 * np.sqrt(2)) * 0.3, 0.3),
]


class TestReductionConsistency:
    @pytest.mark.parametrize("alpha,beta", PARAM_SETS)
    def test_aggregate_satisfies_scalar_equation(self, alpha, beta):
        n, T = 3, 200
        params = validate_params(
            {"n": n, "alpha": alpha, "beta": beta, "a": [0.2, 0.3, 0.5], "b": [0.5, 0.2, 0.3]}
        )
        spec = validate_noise({"mu": [0.05] * (2 * n), "sigma": [1.0] * (2 * n)}, n)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, T, seed=hash((alpha, beta)) % 2**32)
        traj = simulate_recursive(params, M, np.linspace(-1, 1, 2 * n), path)
        agg = aggregates(traj, params)
        model = reduce_to_cycle(alpha, beta)
        noise = scalar_noise_from_vector(params, path)
        h = forcing_series(noise, alpha, beta)
        resid = (
            agg.xbar[2:]
            + model.kappa1 * agg.xbar[1:-1]
            + model.kappa2 * agg.xbar[:-2]
            - h[: T - 1]
        )
        scale = 1.0 + np.max(np.abs(agg.xbar))
        assert np.max(np.abs(resid)) < 1e-10 * scale


class TestSimulateCycle:
    def test_zero_everything(self):
        m = reduce_to_cycle(0.3, 0.6)
        noise = sample_scalar_noise((0.0, 0.0), (0.0, 0.0), 50, seed=0)
        x = simulate_cycle(m, noise, 0.0, 0.0, 50)
        assert np.all(x == 0.0)

    def test_zero_noise_equals_fitted_cosine(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        noise = sample_scalar_noise((0.0, 0.0), (0.0, 0.0), 100, seed=0)
        x0, x1 = 0.8, -0.3
        x = simulate_cycle(m, noise, x0, x1, 100)
        c1, c2 = fit_constants(m, x0, x1)
        sol = homogeneous_solution(m, c1, c2, 100)
        assert np.max(np.abs(x - sol.values)) < 1e-9

    def test_benchmark_path_finite_and_oscillatory(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 700, seed=12)
        x = simulate_cycle(m, noise, 0.0, 0.0, 700)
        assert x.shape == (701,) and np.all(np.isfinite(x))
        # oscillation around zero: plenty of sign changes
        assert np.sum(np.sign(x[1:]) != np.sign(x[:-1])) > 100

    def test_explosive_raises(self):
        m = reduce_to_cycle(2.0, 2.0)  # |rho| = sqrt(5) > 1
        noise = sample_scalar_noise((0.0, 0.0), (0.0, 0.0), 2000, seed=0)
        with pytest.raises(NonFiniteState) as info:
            simulate_cycle(m, noise, 1.0, 1.0, 2000)
        x = per_step_cycle(m, noise, 1.0, 1.0, 2000)
        assert info.value.t == np.flatnonzero(~np.isfinite(x))[0]

    def test_noise_shorter_than_horizon_is_range_error(self):
        m = reduce_to_cycle(0.3, 0.6)
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.0), 60, seed=0)
        # eps covers T = 60 but eta holds one step fewer than the T - 1 it needs
        short = ScalarNoise(noise.eps_bar[:60], noise.eta_bar[:58])
        with pytest.raises(RangeError, match=r"lengths 60 and 58 do not cover T=60"):
            simulate_cycle(m, short, 0.0, 0.0, 60)
        with pytest.raises(RangeError, match=r"lengths 62 and 62 do not cover T=63"):
            simulate_cycle(m, noise, 0.0, 0.0, 63)
        assert simulate_cycle(m, noise, 0.0, 0.0, 62).shape == (63,)

    @pytest.mark.parametrize("alpha,beta", [(BENCH_ALPHA, BENCH_BETA), (0.1, 0.9), (0.5, 0.5)])
    def test_equals_per_step_forcing_loop(self, alpha, beta):
        # equal within the scan's stated bound, not bitwise: the blocks
        # round differently from the step-by-step recursion
        m = reduce_to_cycle(alpha, beta)
        noise = sample_scalar_noise((0.1, 1.0), (-0.2, 1.6), 500, seed=17)
        x = simulate_cycle(m, noise, 0.4, -0.3, 500)
        assert_tracks(x, per_step_cycle(m, noise, 0.4, -0.3, 500))

    @pytest.mark.parametrize("alpha,beta", [(-35.0, -35.0), (-2000.0, -2000.0), (0.1, 2.5)])
    def test_explosive_long_run_raises_at_the_loops_step(self, alpha, beta):
        # |rho| = 50, 2.8e3 and 1.4: the block is capped by 480 / log2(rho)
        # (84 and 41 rows) or sized by T (96 rows), and the rows of the
        # overflowing block are stepped again one at a time
        m = reduce_to_cycle(alpha, beta)
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 300_000, seed=5)
        with pytest.raises(NonFiniteState) as info:
            simulate_cycle(m, noise, 0.0, 0.0, 300_000)
        h = forcing_series(ScalarNoise(noise.eps_bar[:300_000], noise.eta_bar[:299_999]),
                           alpha, beta)
        x = literal_recursion(m, 0.0, 0.0, h)
        assert info.value.t == np.flatnonzero(~np.isfinite(x))[0]

    def test_memory_is_a_few_times_the_result(self):
        # a Python float per step would take 32 bytes of list slot and
        # object against the 8 of the result, twice over with the forcing
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 300_000, seed=3)
        tracemalloc.start()
        try:
            x = simulate_cycle(m, noise, 0.0, 0.0, 300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (300_001,)
        assert peak < 4 * x.nbytes, (peak, x.nbytes)


def literal_recursion(model, x0, x1, h):
    """Oracle: the recursion one step at a time in Python floats, each
    step -kappa1 x(t+1) - kappa2 x(t) + h(t) in that order; overflow is
    left in the result."""
    k1, k2 = float(model.kappa1), float(model.kappa2)
    a, b = float(x0), float(x1)
    x = [a, b]
    for ht in np.asarray(h, dtype=float).tolist():
        a, b = b, -k1 * b - k2 * a + ht
        x.append(b)
    return np.array(x)


def assert_tracks(x, ref):
    """The scan's stated bound against a step-by-step recursion: 1e-13 of
    one plus the largest |entry|, as in test_random_forcing_residual."""
    assert x.shape == ref.shape
    scale = 1.0 + np.max(np.abs(ref), initial=0.0)
    assert np.max(np.abs(x - ref), initial=0.0) <= 1e-13 * scale


def per_step_cycle(model, noise, x0, x1, T):
    """Oracle: the recursion with one forcing_term call per step."""
    x = np.empty(T + 1)
    x[0], x[1] = x0, x1
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1):
            h = forcing_term(noise, model.alpha, model.beta, t)
            x[t + 2] = -model.kappa1 * x[t + 1] - model.kappa2 * x[t] + h
    return x


class TestFitConstants:
    def setup_method(self):
        self.m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)

    def test_cos_phase_zero(self):
        c1, c2 = fit_constants(self.m, 1.0, self.m.rho_mod * np.cos(self.m.omega))
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)

    def test_quarter_phase(self):
        c1, c2 = fit_constants(self.m, 0.0, -self.m.rho_mod * np.sin(self.m.omega))
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(np.pi / 2, abs=1e-12)

    def test_both_zero_convention(self):
        assert fit_constants(self.m, 0.0, 0.0) == (0.0, 0.0)

    def test_random_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x0, x1 = rng.uniform(-2, 2, 2)
            c1, c2 = fit_constants(self.m, x0, x1)
            assert c1 >= 0.0
            sol = homogeneous_solution(self.m, c1, c2, 50)
            assert sol.values[0] == pytest.approx(x0, abs=1e-12)
            assert sol.values[1] == pytest.approx(x1, abs=1e-12)
            resid = (
                sol.values[2:]
                + self.m.kappa1 * sol.values[1:-1]
                + self.m.kappa2 * sol.values[:-2]
            )
            assert np.max(np.abs(resid)) < 1e-9

    def test_wrong_regime(self):
        m = reduce_to_cycle(0.1, 0.9)
        with pytest.raises(WrongRegime):
            fit_constants(m, 1.0, 0.0)


class TestHomogeneousSolution:
    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            homogeneous_solution(reduce_to_cycle(0.1, 0.9), 1.0, 0.0, 10)

    def test_zero_amplitude(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        sol = homogeneous_solution(m, 0.0, 1.3, 20)
        assert np.all(sol.values == 0.0)

    def test_t0_value(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        sol = homogeneous_solution(m, 2.0, 0.7, 5)
        assert sol.values[0] == pytest.approx(2.0 * np.cos(0.7), abs=1e-15)

    def test_benchmark_t4_value(self):
        # frozen from the zero-noise recursion started at
        # (1, |rho1| cos omega); the closed form reproduces it exactly
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        sol = homogeneous_solution(m, 1.0, 0.0, 4)
        assert_allclose(sol.values[4], 0.4869700684, atol=1e-9)

    def test_termwise_recursion_residual(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        sol = homogeneous_solution(m, 1.0, 0.4, 100)
        v = sol.values
        resid = v[2:] + m.kappa1 * v[1:-1] + m.kappa2 * v[:-2]
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(v)))


def general_homogeneous_solution(model, x0, x1, t_max):
    """Oracle: the homogeneous solution fitted from (x0, x1) in any regime.

    Oscillatory: the fitted damped cosine.  Distinct real roots:
    c1 rho1^t + c2 rho2^t.  Repeated root: (c0 + c1 t) rho^t, with the
    degenerate rho = 0 case (both roots zero) handled directly since
    every solution then vanishes from step 2 on.
    """
    t = np.arange(t_max + 1, dtype=float)
    if model.regime is CycleRegime.COMPLEX_OSCILLATORY:
        c1, c2 = fit_constants(model, x0, x1)
        return homogeneous_solution(model, c1, c2, t_max).values
    if model.regime is CycleRegime.DISTINCT_REAL:
        r1, r2 = model.rho1.real, model.rho2.real
        c1 = (x1 - r2 * x0) / (r1 - r2)
        c2 = x0 - c1
        return c1 * r1**t + c2 * r2**t
    r = model.rho1.real
    if r == 0.0:
        out = np.zeros(t_max + 1)
        out[0] = x0
        if t_max >= 1:
            out[1] = x1
        return out
    c0 = x0
    c1 = x1 / r - x0
    return (c0 + c1 * t) * r**t


class TestGeneralHomogeneous:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.1, 0.9), (2.0, 0.1), ((3 - 2 * np.sqrt(2)) * 0.7, 0.7), (0.5, 0.5)],
    )
    def test_matches_recursion(self, alpha, beta):
        m = reduce_to_cycle(alpha, beta)
        x0, x1 = 0.7, -0.4
        values = general_homogeneous_solution(m, x0, x1, 60)
        zero = sample_scalar_noise((0.0, 0.0), (0.0, 0.0), 60, seed=0)
        ref = simulate_cycle(m, zero, x0, x1, 60)
        assert np.max(np.abs(values - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))


def psi_loop(model, count):
    """Oracle: the psi recursion as a loop over a preallocated array."""
    psi = np.empty(count + 1)
    psi[0] = 1.0
    if count >= 1:
        psi[1] = -model.kappa1
    for s in range(2, count + 1):
        psi[s] = -model.kappa1 * psi[s - 1] - model.kappa2 * psi[s - 2]
    return psi


class TestParticularSolution:
    def setup_method(self):
        self.m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)

    def test_zero_forcing(self):
        assert np.all(particular_solution(self.m, np.zeros(50)) == 0.0)

    def test_constant_forcing_steady_state(self):
        c = 0.8
        x = particular_solution(self.m, np.full(4000, c))
        steady = c / (1 + self.m.kappa1 + self.m.kappa2)
        assert steady == pytest.approx(c / (2 * BENCH_ALPHA * BENCH_BETA), rel=1e-12)
        assert x[-1] == pytest.approx(steady, rel=1e-10)

    def test_random_forcing_residual(self):
        rng = np.random.default_rng(61)
        h = rng.standard_normal(600)
        x = particular_solution(self.m, h)
        assert x.shape == (602,) and x[0] == 0.0 and x[1] == 0.0
        resid = x[2:] + self.m.kappa1 * x[1:-1] + self.m.kappa2 * x[:-2] - h
        assert np.max(np.abs(resid)) <= 1e-13 * (1.0 + np.max(np.abs(x)))

    def test_equals_untruncated_psi_series(self):
        # xbar_p(t) = sum_{s <= t-2} psi_s h(t-2-s), summed in full
        h = np.random.default_rng(62).standard_normal(600)
        x = particular_solution(self.m, h)
        series = np.convolve(h, psi_loop(self.m, len(h)))[: len(h)]
        assert np.max(np.abs(x[2:] - series)) <= 1e-13 * (1.0 + np.max(np.abs(x)))

    @pytest.mark.parametrize(
        "alpha,beta", [(BENCH_ALPHA, BENCH_BETA), (0.1, 0.9), ((3 - 2 * np.sqrt(2)) * 0.7, 0.7)]
    )
    def test_psi_weights_track_the_loop(self, alpha, beta):
        m = reduce_to_cycle(alpha, beta)
        for count in (0, 1, 2, 300):
            psi = psi_weights(m, count)
            assert psi[0] == 1.0
            assert_tracks(psi, psi_loop(m, count))
        with pytest.raises(RangeError):
            psi_weights(m, -1)

    def test_psi_weights_match_root_convolution(self):
        psi = psi_weights(self.m, 200)
        r1, r2 = self.m.rho1, self.m.rho2
        direct = np.array(
            [np.real(sum(r1**j * r2 ** (s - j) for j in range(s + 1))) for s in range(201)]
        )
        assert np.max(np.abs(psi - direct)) < 1e-10

    def test_not_invertible(self):
        m = reduce_to_cycle(2.0, 2.0)  # kappa2 = 5
        with pytest.raises(NotInvertible):
            particular_solution(m, np.ones(10))


class TestDominantPeriod:
    def test_pure_cosine(self):
        omega = 1.4530755172
        t = np.arange(700)
        est = dominant_period(np.cos(omega * t))
        target = 2 * np.pi / omega
        assert abs(est.period - target) / target < 0.02
        assert est.prominent

    def test_white_noise_not_prominent(self):
        x = np.random.default_rng(8).standard_normal(4096)
        est = dominant_period(x)
        assert not est.prominent

    def test_too_short(self):
        with pytest.raises(TooShort):
            dominant_period(np.zeros(63))

    def test_benchmark_simulation_period(self):
        m = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 700, seed=4)
        x = simulate_cycle(m, noise, 0.0, 0.0, 700)
        est = dominant_period(x)
        pred = 2 * np.pi / m.omega
        assert abs(est.period - pred) / pred < 0.10

    @pytest.mark.parametrize("T", [700, 20_000])
    def test_narrow_peak_within_half_a_segment_bin(self, T):
        # kappa2 = 0.9995, |rho| = 0.99975: a peak far narrower than the
        # segments' bin 1/seg_len (87 and 2,500 points).  Interpolated on that
        # grid, the frequency stays within half a bin of omega / 2 pi; 50
        # seeds gave at most 0.24 and 0.12 bins
        m = reduce_to_cycle(0.99975, 0.99975)
        assert abs(m.kappa2 - 1.0) < 1e-3
        seg_len = (T + 1) // 8
        for seed in range(5):
            noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), T, seed=seed)
            est = dominant_period(simulate_cycle(m, noise, 0.0, 0.0, T))
            assert abs(est.frequency - m.omega / (2 * np.pi)) <= 0.5 / seg_len
            assert est.prominent


class TestScalarNoise:
    def test_lengths_cover_forcing(self):
        T = 25
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.0), T, seed=1)
        assert len(noise.eps_bar) == T + 2 and len(noise.eta_bar) == T + 2
        assert len(forcing_series(noise, 0.5, 0.5)) == T + 1  # h(T) needs ebar(T + 1)

    def test_from_vector_path(self):
        params = validate_params(
            {"n": 2, "alpha": 0.2, "beta": 0.6, "a": [0.3, 0.7], "b": [0.6, 0.4]}
        )
        spec = validate_noise({"mu": [0.0] * 4, "sigma": [1.0] * 4}, 2)
        path = sample_noise_path(spec, params, 10, seed=9)
        noise = scalar_noise_from_vector(params, path)
        assert_allclose(noise.eps_bar, path.epsilon @ params.b, rtol=0, atol=0)
        assert_allclose(noise.eta_bar, path.eta @ params.a, rtol=0, atol=0)

    @pytest.mark.parametrize("eps_law, eta_law", [
        ((0.0, 1.0), (0.0, 1.6)),
        ((0.5, 0.0), (-2.0, 3.0)),
        ((0.0, -0.0), (0.0, 2.0)),
    ])
    def test_bitwise_equal_to_the_single_agent_vector_draw(self, eps_law, eta_law):
        # the scalar series are the n = 1 vector path of T + 2 steps, bit for bit
        T, seed = 40, 2**64 - 1
        noise = sample_scalar_noise(eps_law, eta_law, T, seed)
        params = validate_params({"n": 1, "alpha": 0.2, "beta": 0.6, "a": [1.0], "b": [1.0]})
        spec = validate_noise({"mu": [eps_law[0], eta_law[0]],
                               "sigma": [abs(eps_law[1]), eta_law[1]]}, 1)
        path = sample_noise_path(spec, params, T + 2, seed)
        assert noise.eps_bar.tobytes() == path.epsilon[:, 0].tobytes()
        assert noise.eta_bar.tobytes() == path.eta[:, 0].tobytes()
