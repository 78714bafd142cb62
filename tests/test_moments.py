import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import (
    MomentInputs,
    MonteCarloSpec,
    build_transition_matrix,
    cross_covariance,
    decompose,
    limiting_moments,
    mc_cross_covariance,
    mc_long_run,
    moment_inputs,
    sample_noise_path,
    simulate_recursive,
    stationarity_diagnostic,
    transformed_inputs,
    validate_noise,
    validate_params,
)
from varcycle.errors import ConditionViolated, NonFiniteResult, RangeError, WrongRegime
import varcycle.moments as moments_mod
from varcycle.moments import _replication_noise
from varcycle.simulate import _iterate, mix_seed


def setup_model(n=3, alpha=0.1, beta=0.9, sigma=None, mu=None):
    params = validate_params(
        {"n": n, "alpha": alpha, "beta": beta, "a": [1.0 / n] * n, "b": [1.0 / n] * n}
    )
    spec = validate_noise(
        {"mu": mu if mu is not None else [0.0] * (2 * n),
         "sigma": sigma if sigma is not None else [1.0] * (2 * n)},
        n,
    )
    return params, spec


def brute_cross_cov(J, Gt, S0t, t, tau):
    """Oracle: expand ztilde_s = J^s z0 + sum_{i<s} J^{s-1-i} gamma_i and
    take expectations term by term with dense matrix powers."""
    def P(k):
        return np.linalg.matrix_power(J, k)

    out = P(t + tau) @ Gt @ P(t).T
    for s in range(t):  # shared shock indices of the two expansions
        out += P(t + tau - 1 - s) @ S0t @ P(t - 1 - s).T
    return out


def truncated_ma_sum(inputs, dec, tail_tol=1e-12):
    """Oracle: the moving-average series sum_i J^i Sigma0~ J^i summed term
    by term until rho^K < tail_tol, mapped back with Q."""
    d = dec.diag
    _, S0t = transformed_inputs(inputs, dec)
    K = int(np.ceil(np.log(tail_tol) / np.log(np.max(np.abs(d)))))
    acc = np.zeros_like(S0t)
    for i in range(K + 1):
        acc = acc + np.outer(d**i, d**i) * S0t
    return dec.Q @ acc @ dec.Q.T


class TestCrossCovariance:
    def test_matches_brute_force_expansion(self):
        rng = np.random.default_rng(29)
        params, spec = setup_model(n=2)
        dec = decompose(params)
        J = np.diag(dec.diag)
        for _ in range(6):
            A = rng.standard_normal((4, 4))
            G = A @ A.T
            inputs = moment_inputs(params, spec, G=G)
            Gt, S0t = transformed_inputs(inputs, dec)
            for t in (2, 3, 6):
                for tau in (0, 1, 3):
                    got = cross_covariance(inputs, dec, t, tau).gamma_tilde
                    want = brute_cross_cov(J, Gt, S0t, t, tau)
                    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_zero_initial_cov_lag0_t2(self):
        # with G = 0, t = 2: contributions from the two shocks feeding z_2,
        # J Sigma0~ J + Sigma0~ (value frozen from the expansion oracle)
        params, spec = setup_model(n=2)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        _, S0t = transformed_inputs(inputs, dec)
        d = dec.diag
        expected = np.outer(d, d) * S0t + S0t
        got = cross_covariance(inputs, dec, 2, 0).gamma_tilde
        assert_allclose(got, expected, rtol=1e-13)

    def test_time_dependence_difference(self):
        # the lag-0 difference between two times telescopes to the terms in between
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        _, S0t = transformed_inputs(inputs, dec)
        d = dec.diag
        g5 = cross_covariance(inputs, dec, 5, 0).gamma_tilde
        g2 = cross_covariance(inputs, dec, 2, 0).gamma_tilde
        diff = sum(np.outer(d**i, d**i) * S0t for i in range(2, 5))
        assert_allclose(g5 - g2, diff, rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(g5 - g2)) > 1e-3

    def test_overflow_is_non_finite_result(self):
        params, spec = setup_model(n=2, alpha=-0.5, beta=0.3)  # eigenvalue 1.5
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(cross_covariance(inputs, dec, 2, 0).gamma))
            with pytest.raises(NonFiniteResult, match="t=2000"):
                cross_covariance(inputs, dec, 2000, 0)

    def test_range_errors(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        with pytest.raises(RangeError):
            cross_covariance(inputs, dec, 1, 0)
        with pytest.raises(RangeError):
            cross_covariance(inputs, dec, 3, -1)

    def test_wrong_regime(self):
        params, spec = setup_model(alpha=1.09804, beta=0.7)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        with pytest.raises(WrongRegime):
            cross_covariance(inputs, dec, 3, 0)

    def test_coordinate_round_trip(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        cc = cross_covariance(inputs, dec, 4, 1)
        back = dec.Qinv @ cc.gamma @ dec.Qinv.T
        assert np.max(np.abs(back - cc.gamma_tilde)) < 1e-10 * max(1.0, np.max(np.abs(cc.gamma_tilde)))

    def test_lag0_symmetric_psd(self):
        params, spec = setup_model()
        dec = decompose(params)
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6))
        inputs = moment_inputs(params, spec, G=A @ A.T)
        for t in (2, 5, 9):
            g = cross_covariance(inputs, dec, t, 0).gamma_tilde
            assert np.max(np.abs(g - g.T)) < 1e-12 * np.max(np.abs(g))
            assert np.min(np.linalg.eigvalsh((g + g.T) / 2)) > -1e-10 * np.trace(g)


class TestStationarityDiagnostic:
    def test_degenerate_inputs_have_zero_gap(self):
        params, _ = setup_model()
        dec = decompose(params)
        inputs = MomentInputs(
            G=np.zeros((6, 6)), Sigma0=np.zeros((6, 6)), mu_gamma=np.zeros(6), n=3
        )
        report = stationarity_diagnostic(inputs, dec, [2, 5, 10], [0, 1])
        assert report.stationarity_gap == 0.0
        assert report.stationarity_gap_original == 0.0

    def test_positive_gap(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = stationarity_diagnostic(inputs, dec, [2, 5, 10], [0, 1])
        assert report.stationarity_gap > 1e-3
        assert report.stationarity_gap_original > 1e-3
        assert set(report.gamma_tilde) == {(t, tau) for t in (2, 5, 10) for tau in (0, 1)}

    def test_gap_equals_pairwise_loop(self):
        params, spec = setup_model(n=4, sigma=[0.5, 1.0, 2.0, 1.5, 1.0, 0.7, 1.2, 2.2])
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        t_grid, tau_grid = [10, 2, 5, 3, 5], [1, 0, 3]
        report = stationarity_diagnostic(inputs, dec, t_grid, tau_grid)
        for grid, gap in ((report.gamma_tilde, report.stationarity_gap),
                          (report.gamma, report.stationarity_gap_original)):
            want = 0.0
            for tau in tau_grid:
                for i, s in enumerate(t_grid):
                    for t in t_grid[i + 1:]:
                        want = max(want, float(np.max(np.abs(grid[(s, tau)] - grid[(t, tau)]))))
            assert gap == want

    def test_gaps_vanish_together(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = stationarity_diagnostic(inputs, dec, [2, 4], [0])
        assert (report.stationarity_gap > 0) == (report.stationarity_gap_original > 0)

    def test_empty_grid_rejected(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        with pytest.raises(RangeError):
            stationarity_diagnostic(inputs, dec, [], [0])

    def test_mc_attachment(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        mc = MonteCarloSpec(params=params, noise_spec=spec, reps=4000, seed=55)
        report = stationarity_diagnostic(inputs, dec, [2, 3], [0], mc=mc)
        for key, theory in report.gamma.items():
            est, se = report.mc_estimate[key]
            assert np.all(np.abs(est - theory) < 6 * se + 1e-12)


class TestBatchedRecursion:
    def test_matches_per_replication_simulation(self):
        params, spec = setup_model(n=2)
        M = build_transition_matrix(params)
        reps, steps, seed = 5, 7, 77
        gamma = _replication_noise(params, spec, steps, reps, seed)
        out = _iterate(lambda z: z @ M.entries.T, np.zeros((reps, 4)), gamma)
        assert out.shape == (reps, steps + 1, 4)
        for r in range(reps):
            path = sample_noise_path(spec, params, steps, seed=mix_seed(seed, r))
            assert np.array_equal(gamma[r], path.gamma)
            traj = simulate_recursive(params, M, np.zeros(4), path)
            assert_allclose(out[r], traj.z, rtol=1e-12, atol=1e-14)


class TestReplicationNoise:
    def test_bitwise_equal_to_per_replication_paths(self):
        n = 2
        params, spec = setup_model(
            n=n, alpha=0.3, beta=0.7, mu=[0.5, -1.0, 2.0, 0.0], sigma=[0.2, 1.5, 3.0, 0.9]
        )
        reps, steps, seed, offset = 6, 9, 31, 128
        gamma = _replication_noise(params, spec, steps, reps, seed, rep_offset=offset)
        assert gamma.shape == (reps, steps, 2 * n)
        for r in range(reps):
            path = sample_noise_path(spec, params, steps, seed=mix_seed(seed, offset + r))
            assert np.array_equal(gamma[r], path.gamma)


class TestLimitingMoments:
    def test_lambda_tilde_values(self):
        params, spec = setup_model()
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = limiting_moments(inputs, dec)
        # frozen from the partial-geometric-sum oracle
        assert_allclose(
            report.lambda_tilde, [10.0, 10.0 / 9.0, 4.2476396173, 1.3079159383], atol=1e-9
        )
        assert report.spectral_radius_ok

    def test_geometric_sum_oracle(self):
        params, spec = setup_model()
        dec = decompose(params)
        for lam, lt in zip(
            [dec.eig.lambda1, dec.eig.lambda2, dec.eig.lambda3, dec.eig.lambda4],
            limiting_moments(moment_inputs(params, spec), dec).lambda_tilde,
        ):
            partial = np.sum(np.real(lam) ** np.arange(0, 700))
            assert abs(partial - lt) < 1e-10

    def test_zero_mean_gives_zero_limit(self):
        params, spec = setup_model()
        dec = decompose(params)
        report = limiting_moments(moment_inputs(params, spec), dec)
        assert_allclose(report.limiting_mean, np.zeros(6), atol=1e-15)

    def test_limiting_mean_is_resolvent_fixed_point(self):
        params, spec = setup_model(mu=[0.5, -0.2, 0.1, 0.3, -0.4, 0.2])
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = limiting_moments(inputs, dec)
        M = build_transition_matrix(params).entries
        fixed = np.linalg.solve(np.eye(6) - M, inputs.mu_gamma)
        assert_allclose(report.limiting_mean, fixed, rtol=1e-10)

    def test_candidates_differ_and_are_psd(self):
        params, spec = setup_model()
        dec = decompose(params)
        report = limiting_moments(moment_inputs(params, spec), dec)
        assert report.covariance_discrepancy > 1e-2
        for mat in (report.resolvent_limit_cov, report.ma_infinity_cov):
            assert np.max(np.abs(mat - mat.T)) < 1e-10 * np.max(np.abs(mat))
            assert np.min(np.linalg.eigvalsh((mat + mat.T) / 2)) > -1e-10 * np.trace(mat)

    @pytest.mark.parametrize("alpha", [0.1, 4e-4])
    def test_ma_limit_solves_stein_equation(self, alpha):
        # Sigma = M Sigma M^T + Sigma0; at alpha = 4e-4 the spectral radius is 0.9996
        from scipy.linalg import solve_discrete_lyapunov

        params, spec = setup_model(alpha=alpha, sigma=[0.5, 1.0, 1.5, 2.0, 0.7, 1.2])
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = limiting_moments(inputs, dec)
        M = build_transition_matrix(params).entries
        got = report.ma_infinity_cov
        scale = np.max(np.abs(got))
        want = solve_discrete_lyapunov(M, inputs.Sigma0)
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        assert np.max(np.abs(got - truncated_ma_sum(inputs, dec))) < 1e-12 * scale
        assert np.max(np.abs(M @ got @ M.T + inputs.Sigma0 - got)) < 1e-12 * scale
        assert report.truncation_terms is None

    def test_long_run_equals_per_step_accumulation(self):
        params, spec = setup_model(n=2, mu=[0.4, -0.2, 0.3, 0.1])
        reps, t_burn, t_final, seed = 5, 20, 60, 13
        got = mc_long_run(params, spec, reps=reps, t_burn=t_burn, t_final=t_final, seed=seed)
        # oracle: per-replication running sums over t in (t_burn, t_final]
        M = build_transition_matrix(params)
        means, covs = [], []
        for r in range(reps):
            path = sample_noise_path(spec, params, t_final, seed=mix_seed(seed, r))
            tail = simulate_recursive(params, M, np.zeros(4), path).z[t_burn + 1:]
            m = sum(tail) / len(tail)
            means.append(m)
            covs.append(sum(np.outer(z, z) for z in tail) / len(tail) - np.outer(m, m))
        assert_allclose(got.mean, np.mean(means, axis=0), rtol=1e-12, atol=1e-14)
        assert_allclose(got.cov, np.mean(covs, axis=0), rtol=1e-12, atol=1e-14)
        assert_allclose(got.cov_se, np.std(covs, axis=0, ddof=1) / np.sqrt(reps), rtol=1e-10)

    def test_condition_violated(self):
        params, spec = setup_model(alpha=-0.5, beta=0.3)  # lambda1 = 1.5
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = limiting_moments(inputs, dec)
        assert not report.spectral_radius_ok and report.limiting_mean is None
        with pytest.raises(ConditionViolated):
            limiting_moments(inputs, dec, allow_skip=False)

    def test_long_run_mc_matches_mean_and_ma_covariance(self):
        params, spec = setup_model(n=2, mu=[0.4, -0.2, 0.3, 0.1], sigma=[1.0, 0.5, 0.8, 1.2])
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = limiting_moments(inputs, dec)
        mc = mc_long_run(params, spec, reps=160, t_burn=300, t_final=1200, seed=97)
        assert np.all(np.abs(mc.mean - report.limiting_mean) < 5 * mc.mean_se + 1e-12)
        assert np.all(np.abs(mc.cov - report.ma_infinity_cov) < 5 * mc.cov_se + 1e-12)
        # the resolvent-style candidate is NOT what the process converges to
        assert np.any(
            np.abs(mc.cov - report.resolvent_limit_cov) > 8 * mc.cov_se
        )


class TestMCCrossCovariance:
    def test_formula_vs_sample(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        theory = cross_covariance(inputs, dec, 4, 1).gamma
        est, se = mc_cross_covariance(params, spec, inputs.G, 4, 1, reps=20000, seed=404)
        assert np.all(np.abs(est - theory) < 5 * se)

    def test_nonzero_initial_covariance(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        G = 0.25 * np.eye(4)
        inputs = moment_inputs(params, spec, G=G)
        theory = cross_covariance(inputs, dec, 3, 0).gamma
        est, se = mc_cross_covariance(params, spec, G, 3, 0, reps=20000, seed=505)
        assert np.all(np.abs(est - theory) < 5 * se)

    @pytest.mark.parametrize("G_scale", [0.0, 0.25])
    def test_matches_product_tensor_oracle(self, G_scale):
        params, spec = setup_model(n=3, mu=[0.1, 0.0, -0.2, 0.3, 0.0, 1.0],
                                   sigma=[0.5, 1.0, 1.5, 2.0, 0.7, 1.1])
        G = G_scale * (np.eye(6) + 0.5 * np.ones((6, 6)))
        t, tau, reps, seed = 4, 2, 3000, 808
        est, se = mc_cross_covariance(params, spec, G, t, tau, reps=reps, seed=seed)
        # the estimator as it was: one (reps, 2n, 2n) product tensor
        if G_scale:
            L = np.linalg.cholesky(G + 1e-15 * np.trace(G) * np.eye(6))
            z0 = np.random.default_rng(mix_seed(seed, reps)).standard_normal((reps, 6)) @ L.T
        else:
            z0 = np.zeros((reps, 6))
        mat_t = build_transition_matrix(params).entries.T
        z = _iterate(lambda z: z @ mat_t, z0,
                     _replication_noise(params, spec, t + tau, reps, seed))
        u = z[:, t + tau] - z[:, t + tau].mean(axis=0)
        v = z[:, t] - z[:, t].mean(axis=0)
        prod = u[:, :, None] * v[:, None, :]
        old_est = prod.sum(axis=0) / (reps - 1)
        old_se = prod.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.max(np.abs(est - old_est)) <= 1e-12 * np.max(np.abs(old_est))
        assert np.max(np.abs(se - old_se)) <= 1e-12 * np.max(np.abs(old_se))


def test_mc_recursion_memory_is_linear_in_n(monkeypatch):
    # the estimates are 2n x 2n by nature, so the peak is read when the step
    # loop returns; a dense M at n = 2000 alone would be 128 MB
    n = 2000
    params, spec = setup_model(n=n)
    peaks = []

    class Stepped(Exception):
        pass

    def measured(step, z0, gamma):
        _iterate(step, z0, gamma)
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Stepped

    monkeypatch.setattr(moments_mod, "_iterate", measured)
    G = np.broadcast_to(0.0, (2 * n, 2 * n))  # deterministic z_0, without 128 MB of zeros
    tracemalloc.start()
    try:
        with pytest.raises(Stepped):
            mc_cross_covariance(params, spec, G, 2, 1, reps=3, seed=0)
    finally:
        tracemalloc.stop()
    assert peaks[0] < (2 * n) ** 2 * 8 / 4


def test_moment_inputs_shapes_and_validation():
    params, spec = setup_model(n=2, sigma=[0.5, 1.0, 1.5, 2.0])
    inputs = moment_inputs(params, spec)
    expected = np.diag(
        [0.01 * 0.25, 0.01 * 1.0, 0.81 * 2.25, 0.81 * 4.0]
    )
    assert_allclose(inputs.Sigma0, expected, rtol=1e-14)
    with pytest.raises(ValueError):
        moment_inputs(params, spec, G=np.triu(np.ones((4, 4))))
