import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import (
    MomentInputs,
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
    validate_noise,
    validate_params,
)
from varcycle.errors import DimensionMismatch, NonFiniteResult, ParameterError, RangeError
import varcycle.moments as moments_mod
from varcycle.simulate import NoisePath, _iterate
from varcycle.spectral import apply_blockdiag, eigen_coordinates


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


def transformed_inputs(inputs, dec):
    """Oracle: G and Sigma0 in the coordinates of the paper's basis Q,
    X~ = Q^-1 X Q^-T.  Sigma0 is diagonal, so its product is summed
    term by term: an entry that symmetry makes 0 comes out exactly 0."""
    Qinv = dec.Qinv
    return (Qinv @ inputs.G @ Qinv.T,
            np.einsum("ik,k,jk->ij", Qinv, np.diag(inputs.Sigma0), Qinv))


def dense_cross_cov(M, G, Sigma0, t, tau):
    """Oracle: Cov(z_{t+tau}, z_t) from dense powers of M."""
    def P(k):
        return np.linalg.matrix_power(M, k)

    return P(t + tau) @ G @ P(t).T + sum(P(tau + i) @ Sigma0 @ P(i).T for i in range(t))


def brute_cross_cov(J, Gt, S0t, t, tau):
    """Oracle: expand ztilde_s = J^s z0 + sum_{i<s} J^{s-1-i} gamma_i and
    take expectations term by term with dense matrix powers."""
    def P(k):
        return np.linalg.matrix_power(J, k)

    out = P(t + tau) @ Gt @ P(t).T
    for s in range(t):  # shared shock indices of the two expansions
        out += P(t + tau - 1 - s) @ S0t @ P(t - 1 - s).T
    return out


def per_point_covariance(inputs, dec, t, tau):
    """Oracle: one grid point on its own, P stepped from t = 0 in R's
    coordinates, then tau' lag steps; at lag 0 the upper triangle is
    copied onto the lower one."""
    R = dec.R
    J = partial(apply_blockdiag, R.rates, R.A)
    S, P = (moments_mod._congruence(R.solve, X) for X in (inputs.Sigma0, inputs.G))
    for _ in range(t):
        P = moments_mod._congruence(J, P) + S
    for _ in range(tau):
        P = J(P.T).T

    def cov(f):
        X = moments_mod._congruence(f, P)
        return np.where(np.tri(len(X), k=-1, dtype=bool), X.T, X) if tau == 0 else X

    tilde = None if dec.V is None else cov(partial(eigen_coordinates, dec.V))
    return moments_mod.CrossCovariance(gamma_tilde=tilde, gamma=cov(R.apply))


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


def assert_exact(n, alpha, beta, basis):
    """gamma matches the dense oracle, and gamma_tilde is Q^-1 gamma Q^-T
    where the paper's basis exists (``basis``), None elsewhere."""
    params, spec = setup_model(n=n, alpha=alpha, beta=beta,
                               sigma=np.linspace(0.5, 2.0, 2 * n).tolist())
    dec = decompose(params)
    assert (dec.Q is not None) == basis
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2 * n, 2 * n))
    inputs = moment_inputs(params, spec, G=A @ A.T)
    M = build_transition_matrix(params).entries
    for t, tau in ((2, 0), (5, 3)):
        cc = cross_covariance(inputs, dec, t, tau)
        want = dense_cross_cov(M, inputs.G, inputs.Sigma0, t, tau)
        assert np.max(np.abs(cc.gamma - want)) < 1e-13 * np.max(np.abs(want))
        if basis:
            tilde = dec.Qinv @ want @ dec.Qinv.T
            assert np.max(np.abs(cc.gamma_tilde - tilde)) < 1e-13 * np.max(np.abs(tilde))
        else:
            assert cc.gamma_tilde is None


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

    def test_paper_benchmark(self):
        # the complex regime has no paper basis Q: gamma is exact all the same
        assert_exact(3, 1.09804, 0.7, basis=False)

    @pytest.mark.parametrize("n, alpha, beta", [
        (3, (3.0 - 2.0 * np.sqrt(2.0)) * 0.7, 0.7),  # repeated root on d1
        (3, 0.0, 1e-17),  # 1 - beta rounds to 1: the two roots coincide
    ])
    def test_exact_without_paper_basis(self, n, alpha, beta):
        assert_exact(n, alpha, beta, basis=False)

    @pytest.mark.parametrize("n, alpha, beta", [(1, 0.1, 0.9), (3, 0.0, 0.8), (3, 0.4, 0.0)])
    def test_exact_on_the_axes(self, n, alpha, beta):
        # n = 1 and alpha*beta = 0 have the paper's basis: the roots differ
        assert_exact(n, alpha, beta, basis=True)

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

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.9), (1.09804, 0.7)])
    def test_grid_is_bitwise_the_per_point_covariances(self, alpha, beta):
        # one pass over the grid gives each entry bit for bit, with Q
        # (diagonalizable) and without it (the paper's complex benchmark)
        params, spec = setup_model(n=3, alpha=alpha, beta=beta)
        dec = decompose(params)
        X = np.random.default_rng(2).standard_normal((6, 6))
        inputs = moment_inputs(params, spec, G=X @ X.T)
        t_grid, tau_grid = [10, 2, 5, 3, 5], [1, 0, 3]
        report = stationarity_diagnostic(inputs, dec, t_grid, tau_grid)
        for t in t_grid:
            for tau in tau_grid:
                want = per_point_covariance(inputs, dec, t, tau)
                got = cross_covariance(inputs, dec, t, tau)
                for grid, one, ref in ((report.gamma, got.gamma, want.gamma),
                                       (report.gamma_tilde, got.gamma_tilde, want.gamma_tilde)):
                    if ref is None:
                        assert grid is None and one is None
                    else:
                        assert np.array_equal(grid[(t, tau)], ref)
                        assert np.array_equal(one, ref)

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

    @pytest.mark.parametrize("call, error, message", [
        (lambda p, s: moment_inputs(p, s, G=np.zeros((4, 4))), DimensionMismatch,
         "G must be 2n x 2n"),
        (lambda p, s: mc_long_run(p, s, reps=4, t_burn=10, t_final=10, seed=0), RangeError,
         "t_burn < t_final"),
        (lambda p, s: mc_long_run(p, s, reps=1, t_burn=5, t_final=10, seed=0), RangeError,
         "reps >= 2"),
    ])
    def test_input_errors(self, call, error, message):
        with pytest.raises(error, match=message):
            call(*setup_model())

    def test_mc_attachment(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        report = stationarity_diagnostic(inputs, dec, [2, 3], [0])
        mc = mc_cross_covariance(params, spec, inputs.G, [2, 3], [0], 4000, 55)
        for key, theory in report.gamma.items():
            est, se = mc[key]
            assert np.all(np.abs(est - theory) < 6 * se + 1e-12)


class TestBatchedRecursion:
    def test_matches_per_replication_simulation(self):
        params, spec = setup_model(n=2)
        M = build_transition_matrix(params)
        reps, steps, seed = 5, 7, 77
        batch = sample_noise_path(spec, params, steps, np.random.default_rng(seed), reps=reps)
        out = _iterate(lambda z: z @ M.entries.T, np.zeros((reps, 4)), batch.gamma)
        assert out.shape == (reps, steps + 1, 4)
        for r in range(reps):
            path = NoisePath(batch.epsilon[r], batch.eta[r], params.alpha, params.beta)
            assert np.array_equal(batch.gamma[r], path.gamma)
            traj = simulate_recursive(params, M, np.zeros(4), path)
            assert_allclose(out[r], traj.z, rtol=1e-12, atol=1e-14)


class TestReplicationNoise:
    def test_bitwise_equal_to_per_replication_paths(self):
        # oracle: one generator draws each replication's epsilon, then its
        # eta, replication after replication
        n = 2
        params, spec = setup_model(
            n=n, alpha=0.3, beta=0.7, mu=[0.5, -1.0, 2.0, 0.0], sigma=[0.2, 1.5, 3.0, 0.9]
        )
        reps, steps, seed = 6, 9, 31
        batch = sample_noise_path(spec, params, steps, np.random.default_rng(seed), reps=reps)
        assert batch.gamma.shape == (reps, steps, 2 * n)
        rng = np.random.default_rng(seed)
        for r in range(reps):
            eps = rng.normal(spec.mu[:n], spec.sigma[:n], (steps, n))
            eta = rng.normal(spec.mu[n:], spec.sigma[n:], (steps, n))
            assert np.array_equal(batch.epsilon[r], eps) and np.array_equal(batch.eta[r], eta)


class TestLimitingMoments:
    def test_lambda_tilde_is_complex_in_the_complex_regime(self):
        params, spec = setup_model(alpha=1.09804, beta=0.7)
        dec = decompose(params)
        report = limiting_moments(moment_inputs(params, spec), dec)
        lt3, lt4 = report.lambda_tilde[2:]
        assert isinstance(lt3, complex) and lt3.imag > 0.0 and lt4 == lt3.conjugate()
        assert lt3 == 1.0 / (1.0 - dec.eig.lambda3)
        assert report.spectral_radius_ok

    @pytest.mark.parametrize("n, alpha, beta, ones", [
        (3, 0.0, 0.8, (0, 2)), (3, 0.0, -0.6, (0, 3)), (1, 0.0, 2.5, (0, 2)),
        (3, 0.1, 0.0, (1, 2)), (2, 3.7, 0.0, (1, 2)), (2, -0.3, 0.0, (1, 3)),
    ])
    def test_lambda_tilde_is_none_at_an_eigenvalue_of_one(self, n, alpha, beta, ones):
        # alpha*beta = 0 puts an eigenvalue exactly at 1: lambda1 or lambda2,
        # and one root of the quadratic factor
        params, spec = setup_model(n=n, alpha=alpha, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = limiting_moments(moment_inputs(params, spec), decompose(params))
        assert [i for i, v in enumerate(report.lambda_tilde) if v is None] == list(ones)
        assert not report.spectral_radius_ok and report.ma_infinity_cov is None

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
        # oracle: per-replication running sums over t in (t_burn, t_final],
        # the replications drawn in turn from one generator
        M = build_transition_matrix(params)
        rng = np.random.default_rng(seed)
        means, covs = [], []
        for r in range(reps):
            path = sample_noise_path(spec, params, t_final, rng)
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
        assert report.ma_infinity_cov is None and report.covariance_discrepancy is None

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


#: one config per regime, the first the paper's complex benchmark with
#: non-uniform weights
SYMMETRY_CONFIGS = [
    {"n": 5, "alpha": 1.09804, "beta": 0.7, "a": [0.1, 0.2, 0.3, 0.2, 0.2],
     "b": [0.3, 0.3, 0.1, 0.1, 0.2]},
    {"n": 4, "alpha": 0.1, "beta": 0.9, "a": [0.1, 0.2, 0.3, 0.4], "b": [0.4, 0.3, 0.2, 0.1]},
    {"n": 4, "alpha": (3 - 2 * np.sqrt(2)) * 0.7, "beta": 0.7, "a": [0.1, 0.2, 0.3, 0.4],
     "b": [0.25, 0.25, 0.3, 0.2]},
]


@pytest.mark.parametrize("doc", SYMMETRY_CONFIGS,
                         ids=["complex", "diagonalizable", "repeated_root"])
def test_covariances_are_bitwise_symmetric(doc):
    # covariances symmetric in exact arithmetic are reported bitwise symmetric:
    # the lag-0 grid, in both coordinates, the two limit covariances and their
    # aggregate blocks
    params = validate_params(doc)
    spec = validate_noise({"mu": [0.1] * 2 * params.n,
                           "sigma": np.linspace(0.5, 2.0, 2 * params.n).tolist()}, params.n)
    dec = decompose(params)
    inputs = moment_inputs(params, spec)
    report = stationarity_diagnostic(inputs, dec, [2, 5, 10], [0, 1])
    limits = limiting_moments(inputs, dec)
    assert limits.spectral_radius_ok
    covs = [report.gamma[(t, 0)] for t in (2, 5, 10)]
    if report.gamma_tilde is not None:
        covs += [report.gamma_tilde[(t, 0)] for t in (2, 5, 10)]
    for X in (limits.resolvent_limit_cov, limits.ma_infinity_cov):
        covs += [X, moments_mod._aggregate_cov(params, X)]
    for X in covs:
        assert np.array_equal(X, X.T)


class TestMCCrossCovariance:
    def test_formula_vs_sample(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        inputs = moment_inputs(params, spec)
        theory = cross_covariance(inputs, dec, 4, 1).gamma
        est, se = mc_cross_covariance(params, spec, inputs.G, [4], [1],
                                      reps=20000, seed=404)[(4, 1)]
        assert np.all(np.abs(est - theory) < 5 * se)

    def test_nonzero_initial_covariance(self):
        params, spec = setup_model(n=2)
        dec = decompose(params)
        G = 0.25 * np.eye(4)
        inputs = moment_inputs(params, spec, G=G)
        theory = cross_covariance(inputs, dec, 3, 0).gamma
        est, se = mc_cross_covariance(params, spec, G, [3], [0],
                                      reps=20000, seed=505)[(3, 0)]
        assert np.all(np.abs(est - theory) < 5 * se)

    def test_initial_covariance_a_rounding_below_psd(self):
        # moment_inputs accepts eigenvalues down to -1e-12 * scale, which a
        # Cholesky factor of G refuses; the draw takes any G it accepts
        params, spec = setup_model(n=2)
        v = np.array([1.0, 2.0, -1.0, 0.5])
        G = np.outer(v, v) - 5e-13 * np.eye(4)
        inputs = moment_inputs(params, spec, G=G)
        theory = cross_covariance(inputs, decompose(params), 3, 0).gamma
        est, se = mc_cross_covariance(params, spec, G, [3], [0], reps=5000, seed=606)[(3, 0)]
        assert np.all(np.isfinite(est)) and np.all(np.isfinite(se))
        assert np.all(np.abs(est - theory) < 5 * se)

    @pytest.mark.parametrize("G_scale", [0.0, 0.25])
    def test_matches_product_tensor_oracle(self, G_scale):
        params, spec = setup_model(n=3, mu=[0.1, 0.0, -0.2, 0.3, 0.0, 1.0],
                                   sigma=[0.5, 1.0, 1.5, 2.0, 0.7, 1.1])
        G = G_scale * (np.eye(6) + 0.5 * np.ones((6, 6)))
        t_grid, tau_grid, reps, seed = [4, 2], [0, 2], 3000, 808
        got = mc_cross_covariance(params, spec, G, t_grid, tau_grid, reps=reps, seed=seed)
        assert sorted(got) == [(2, 0), (2, 2), (4, 0), (4, 2)]
        # the estimator as one (reps, 2n, 2n) product tensor per grid point,
        # every point read from one batch of max(t + tau') = 6 steps on the
        # draws of one generator (z_0 first, then the noise batch)
        rng = np.random.default_rng(seed)
        if G_scale:
            lam, U = np.linalg.eigh(G)
            z0 = rng.standard_normal((reps, 6)) @ (U * np.sqrt(lam)).T
        else:
            z0 = np.zeros((reps, 6))
        mat_t = build_transition_matrix(params).entries.T
        z = _iterate(lambda z: z @ mat_t, z0,
                     sample_noise_path(spec, params, 6, rng, reps=reps).gamma)
        for (t, tau), (est, se) in got.items():
            u = z[:, t + tau] - z[:, t + tau].mean(axis=0)
            v = z[:, t] - z[:, t].mean(axis=0)
            prod = u[:, :, None] * v[:, None, :]
            old_est = prod.sum(axis=0) / (reps - 1)
            old_se = prod.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.max(np.abs(est - old_est)) <= 1e-12 * np.max(np.abs(old_est)), (t, tau)
            assert np.max(np.abs(se - old_se)) <= 1e-12 * np.max(np.abs(old_se)), (t, tau)

    @pytest.mark.parametrize("t_grid, tau_grid, message", [
        ([-2], [3], "t >= 2"),
        ([0], [0], "t >= 2"),
        ([5, 1], [0], "t >= 2"),
        ([2], [1, -1], "tau_prime must be >= 0"),
        ([], [0], "nonempty"),
        ([2], [], "nonempty"),
    ])
    def test_grid_outside_domain_is_range_error(self, t_grid, tau_grid, message):
        params, spec = setup_model(n=2)
        with pytest.raises(RangeError, match=message):
            mc_cross_covariance(params, spec, np.zeros((4, 4)), t_grid, tau_grid,
                                reps=3, seed=0)


class TestMonteCarloStream:
    def long_run(self, monkeypatch, batch):
        params, spec = setup_model(n=2, mu=[0.4, -0.2, 0.3, 0.1], sigma=[1.0, 0.5, 0.8, 1.2])
        monkeypatch.setattr(moments_mod, "_LONG_RUN_BATCH", batch)
        return mc_long_run(params, spec, reps=10, t_burn=5, t_final=30, seed=2024)

    def test_long_run_does_not_depend_on_batch_size(self, monkeypatch):
        runs = [self.long_run(monkeypatch, batch) for batch in (1, 7, 64)]
        for name in ("mean", "mean_se", "cov", "cov_se"):
            for other in runs[1:]:
                assert np.array_equal(getattr(runs[0], name), getattr(other, name)), name

    def test_long_run_batches_are_one_standard_normal_draw(self, monkeypatch):
        # batches of 7 and 3 replications together are one (10, 2, T, n)
        # draw, scaled by sigma and shifted by mu
        params, spec = setup_model(n=2, mu=[0.4, -0.2, 0.3, 0.1], sigma=[1.0, 0.5, 0.8, 1.2])
        gammas = []

        def recorded(step, z0, gamma):
            gammas.append(gamma)
            return _iterate(step, z0, gamma)

        monkeypatch.setattr(moments_mod, "_iterate", recorded)
        self.long_run(monkeypatch, 7)
        assert [g.shape[0] for g in gammas] == [7, 3]
        draws = np.random.default_rng(2024).standard_normal((10, 2, 30, 2))
        shocks = draws * spec.sigma.reshape(2, 1, 2) + spec.mu.reshape(2, 1, 2)
        want = np.concatenate([params.alpha * shocks[:, 0], -params.beta * shocks[:, 1]], axis=-1)
        assert np.array_equal(np.concatenate(gammas).reshape(want.shape), want)

    def test_negative_seed_is_range_error(self):
        params, spec = setup_model(n=2)
        with pytest.raises(RangeError, match="seed"):
            mc_cross_covariance(params, spec, np.zeros((4, 4)), [2], [1], reps=3, seed=-1)
        with pytest.raises(RangeError, match="seed"):
            mc_long_run(params, spec, reps=3, t_burn=1, t_final=2, seed=-1)


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
            mc_cross_covariance(params, spec, G, [2], [1], reps=3, seed=0)
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


@pytest.mark.parametrize("G, message", [
    (np.where(np.eye(4) == 1, np.nan, 0.0), "finite"),
    (np.full((4, 4), np.inf), "finite"),
    (np.triu(np.ones((4, 4))), "symmetric"),
    (-np.eye(4), "positive semidefinite"),
])
def test_bad_initial_covariance_is_parameter_error(G, message):
    params, spec = setup_model(n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match=message):
            moment_inputs(params, spec, G=G)


@pytest.mark.parametrize("alpha, beta", [(1e155, 1.0), (0.5, 1e155), (1e150, 1.0)])
def test_overflowing_shock_covariance_is_non_finite_result(alpha, beta):
    # 1e155 squared overflows; 1e150 squared does not, but times sigma^2 = 1e10 it does
    params, spec = setup_model(n=2, alpha=alpha, beta=beta, sigma=[1e5] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteResult, match="overflows"):
            moment_inputs(params, spec)
