import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import (
    NoisePath,
    aggregates,
    build_transition_matrix,
    decompose,
    sample_noise_path,
    simulate_explicit,
    simulate_recursive,
    validate_noise,
    validate_params,
)
from varcycle.errors import DimensionMismatch, NonFiniteState, RangeError
from varcycle.simulate import Trajectory


def setup_model(n=3, alpha=0.1, beta=0.9, mu=None, sigma=None):
    params = validate_params(
        {"n": n, "alpha": alpha, "beta": beta, "a": [1.0 / n] * n, "b": [1.0 / n] * n}
    )
    spec = validate_noise(
        {"mu": mu if mu is not None else [0.0] * (2 * n),
         "sigma": sigma if sigma is not None else [1.0] * (2 * n)},
        n,
    )
    return params, spec


class TestNoisePath:
    def test_deterministic_in_seed(self):
        params, spec = setup_model()
        a = sample_noise_path(spec, params, 50, seed=99)
        b = sample_noise_path(spec, params, 50, seed=99)
        assert np.array_equal(a.gamma, b.gamma)
        c = sample_noise_path(spec, params, 50, seed=100)
        assert not np.array_equal(a.gamma, c.gamma)

    def test_gamma_transform(self):
        params, spec = setup_model(alpha=0.3, beta=0.7)
        path = sample_noise_path(spec, params, 10, seed=1)
        n = params.n
        assert np.array_equal(path.gamma[:, :n], 0.3 * path.epsilon)
        assert np.array_equal(path.gamma[:, n:], -0.7 * path.eta)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bitwise_equal_to_two_normal_calls(self, seed):
        n, T = 3, 40
        mu = [1.0, -2.0, 0.5, 3.0, 0.0, -0.25]
        sigma = [0.1, 2.0, 0.7, 1.3, 5.0, 0.02]
        params, spec = setup_model(n=n, alpha=0.3, beta=0.7, mu=mu, sigma=sigma)
        path = sample_noise_path(spec, params, T, seed=seed)
        rng = np.random.default_rng(seed)
        eps = rng.normal(spec.mu[:n], spec.sigma[:n], (T, n))
        eta = rng.normal(spec.mu[n:], spec.sigma[n:], (T, n))
        assert np.array_equal(path.epsilon, eps) and np.array_equal(path.eta, eta)

    @pytest.mark.parametrize("zero_sigma", [False, True])
    def test_replication_batch_stacks_the_paths_drawn_in_turn(self, zero_sigma):
        sigma = [0.0] * 4 if zero_sigma else [0.2, 1.5, 3.0, 0.9]
        params, spec = setup_model(n=2, alpha=0.3, beta=0.7, mu=[0.5, -1.0, 2.0, 0.0],
                                   sigma=sigma)
        seed = 2**64 - 1
        batch = sample_noise_path(spec, params, 7, np.random.default_rng(seed), reps=3)
        assert batch.gamma.shape == (3, 7, 4)
        rng = np.random.default_rng(seed)
        for k in range(3):
            path = sample_noise_path(spec, params, 7, rng)
            for name in ("epsilon", "eta", "gamma"):
                assert np.array_equal(getattr(batch, name)[k], getattr(path, name))
        # an integer seed draws what its generator's first draw is
        first = sample_noise_path(spec, params, 7, seed)
        assert np.array_equal(first.gamma, batch.gamma[0])

    def test_zero_noise_flag(self):
        # a zero sigma draws exactly the mean
        params, spec = setup_model(mu=[0.5] * 6, sigma=[0.0] * 6)
        path = sample_noise_path(spec, params, 8, seed=3)
        assert np.all(path.epsilon == 0.5) and np.all(path.eta == 0.5)

    def test_coordinate_laws(self):
        # coordinate i of epsilon uses (mu_i, sigma_i); of eta, (mu_{n+i}, sigma_{n+i})
        params, spec = setup_model(
            n=2, mu=[1.0, 2.0, 3.0, 4.0], sigma=[0.1, 0.2, 0.3, 0.4]
        )
        path = sample_noise_path(spec, params, 20000, seed=5)
        assert_allclose(path.epsilon.mean(axis=0), [1.0, 2.0], atol=0.02)
        assert_allclose(path.eta.mean(axis=0), [3.0, 4.0], atol=0.03)
        assert_allclose(path.epsilon.std(axis=0), [0.1, 0.2], rtol=0.05)

    def test_sample_mean_within_standard_error_bound(self):
        params, spec = setup_model()
        N = 100_000
        path = sample_noise_path(spec, params, N, seed=2718)
        # 3 sigma / sqrt(N) = 0.00949, asserted with the stated margin
        assert abs(path.epsilon[:, 0].mean()) < 0.011


class TestRecursive:
    def test_zero_fixed_point(self):
        params, spec = setup_model(sigma=[0.0] * 6)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 30, seed=0)
        traj = simulate_recursive(params, M, np.zeros(6), path)
        assert np.all(traj.z == 0.0)
        assert traj.z.shape == (31, 6)

    def test_zero_noise_is_matrix_power(self):
        params, spec = setup_model(sigma=[0.0] * 6)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 12, seed=0)
        z0 = np.arange(6, dtype=float)
        traj = simulate_recursive(params, M, z0, path)
        for t in (1, 5, 12):
            assert_allclose(traj.z[t], np.linalg.matrix_power(M.entries, t) @ z0, rtol=1e-12)

    def test_step_identity_is_literal(self):
        params, spec = setup_model()
        M = build_transition_matrix(params)
        dense = M.entries
        path = sample_noise_path(spec, params, 40, seed=8)
        traj = simulate_recursive(params, M, np.ones(6), path)
        m, eps = dense.shape[0], np.finfo(float).eps
        for t in range(40):
            z, g = traj.z[t], path.gamma[t]
            recomputed = dense @ z + g
            # each side is within gamma_{m+2} (|M||z| + |g|) of the exact step
            # (Higham 2002, 3.5), so they differ by at most twice that
            bound = 2 * (m + 2) * eps * (np.abs(dense) @ np.abs(z) + np.abs(g))
            assert np.all(np.abs(traj.z[t + 1] - recomputed) <= bound)

    def test_memory_is_linear_in_n(self):
        # a dense M at n = 2000 is 4000 x 4000 doubles, 128 MB; the structured
        # M and its steps need O(n) memory beyond the states themselves
        n = 2000
        params, spec = setup_model(n=n)
        path = sample_noise_path(spec, params, 5, seed=3)
        tracemalloc.start()
        try:
            M = build_transition_matrix(params)
            traj = simulate_recursive(params, M, np.ones(2 * n), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.z.shape == (6, 2 * n)
        assert peak < (2 * n) ** 2 * 8 / 4

    def test_stable_path_stays_finite(self):
        params, spec = setup_model()
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 200, seed=42)
        traj = simulate_recursive(params, M, np.zeros(6), path)
        assert np.all(np.isfinite(traj.z))

    def test_non_finite_state_reports_first_t(self):
        params, spec = setup_model(alpha=-5.0, beta=3.0, sigma=[0.0] * 6)  # spectral radius 6
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 500, seed=0)
        with pytest.raises(NonFiniteState) as info:
            simulate_recursive(params, M, np.ones(6), path)
        assert 300 < info.value.t <= 500


class TestExplicit:
    def test_one_step_identity(self):
        params, spec = setup_model()
        M = build_transition_matrix(params)
        dec = decompose(params)
        path = sample_noise_path(spec, params, 1, seed=11)
        z0 = np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.3])
        traj = simulate_explicit(params, dec, z0, path)
        assert_allclose(traj.z[1], M.entries @ z0 + path.gamma[0], rtol=1e-12, atol=1e-14)

    def test_homogeneous_part(self):
        params, spec = setup_model(sigma=[0.0] * 6)
        dec = decompose(params)
        path = sample_noise_path(spec, params, 10, seed=0)
        z0 = np.arange(6, dtype=float)
        traj = simulate_explicit(params, dec, z0, path)
        for t in (1, 4, 10):
            expected = dec.Q @ (dec.diag**t * (dec.Qinv @ z0))
            assert_allclose(traj.z[t], expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_matches_recursive(self, n):
        params, spec = setup_model(n=n)
        M = build_transition_matrix(params)
        dec = decompose(params)
        path = sample_noise_path(spec, params, 200, seed=n)
        z0 = np.linspace(-1, 1, 2 * n)
        rec = simulate_recursive(params, M, z0, path)
        exp = simulate_explicit(params, dec, z0, path)
        scale = 1.0 + np.max(np.abs(rec.z))
        assert np.max(np.abs(rec.z - exp.z)) < 1e-8 * scale

    def test_transformed_coordinates_match(self):
        params, spec = setup_model()
        M = build_transition_matrix(params)
        dec = decompose(params)
        path = sample_noise_path(spec, params, 100, seed=21)
        z0 = np.ones(6)
        rec = simulate_recursive(params, M, z0, path)
        # accumulate ztilde directly and compare to Qinv applied to the recursion
        zt = dec.Qinv @ z0
        gtilde = path.gamma @ dec.Qinv.T
        for t in range(100):
            zt = dec.diag * zt + gtilde[t]
            ref = dec.Qinv @ rec.z[t + 1]
            assert np.max(np.abs(zt - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))

    def test_matches_recursive_at_benchmark(self):
        # the paper's benchmark is in the complex regime, where Q does not
        # exist; the explicit solution runs through the block basis R
        params, spec = setup_model(alpha=1.09804, beta=0.7)
        dec = decompose(params)
        assert dec.Q is None
        path = sample_noise_path(spec, params, 500, seed=1)
        z0 = np.linspace(-1, 1, 6)
        rec = simulate_recursive(params, build_transition_matrix(params), z0, path)
        exp = simulate_explicit(params, dec, z0, path)
        assert np.max(np.abs(rec.z - exp.z)) < 1e-8 * (1.0 + np.max(np.abs(rec.z)))

    def test_non_finite_state_reports_first_t(self):
        params, spec = setup_model(alpha=-5.0, beta=3.0, sigma=[0.0] * 6)  # spectral radius 7.6
        dec = decompose(params)
        path = sample_noise_path(spec, params, 500, seed=0)
        with pytest.raises(NonFiniteState) as info:
            simulate_explicit(params, dec, np.ones(6), path)
        t = info.value.t
        assert 300 < t <= 500
        # every state before t is finite
        short = NoisePath(path.epsilon[: t - 1], path.eta[: t - 1], params.alpha, params.beta)
        assert np.all(np.isfinite(simulate_explicit(params, dec, np.ones(6), short).z))


class TestAggregates:
    def test_constant_state(self):
        params, spec = setup_model(sigma=[0.0] * 6)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 1, seed=0)
        traj = simulate_recursive(params, M, np.full(6, 3.25), path)
        agg = aggregates(traj, params)
        assert agg.xbar[0] == pytest.approx(3.25, abs=1e-15)
        assert agg.ybar[0] == pytest.approx(3.25, abs=1e-15)

    def test_dot_product_example(self):
        params = validate_params(
            {"n": 2, "alpha": 0.1, "beta": 0.9, "a": [0.5, 0.5], "b": [0.6, 0.4]}
        )
        spec = validate_noise({"mu": [0.0] * 4, "sigma": [0.0] * 4}, 2)
        path = sample_noise_path(spec, params, 1, seed=0)
        M = build_transition_matrix(params)
        traj = simulate_recursive(params, M, np.array([1.0, -1.0, 0.0, 0.0]), path)
        agg = aggregates(traj, params)
        assert agg.xbar[0] == pytest.approx(0.2, abs=1e-15)

    def test_aggregated_recursion_identity(self):
        # both aggregate recursions hold along any simulated path with
        # ebar = b.eps and nbar = a.eta
        params = validate_params(
            {"n": 3, "alpha": 0.4, "beta": 0.7, "a": [0.2, 0.3, 0.5], "b": [0.5, 0.25, 0.25]}
        )
        spec = validate_noise({"mu": [0.1] * 6, "sigma": [1.0] * 6}, 3)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 150, seed=31)
        traj = simulate_recursive(params, M, np.linspace(0, 1, 6), path)
        agg = aggregates(traj, params)
        ebar = path.epsilon @ params.b
        nbar = path.eta @ params.a
        alpha, beta = params.alpha, params.beta
        scale = 1.0 + max(np.max(np.abs(agg.xbar)), np.max(np.abs(agg.ybar)))
        r1 = agg.xbar[1:] - ((1 - alpha) * agg.xbar[:-1] + alpha * agg.ybar[:-1] + alpha * ebar)
        r2 = agg.ybar[1:] - ((1 - beta) * agg.ybar[:-1] - beta * agg.xbar[:-1] - beta * nbar)
        assert np.max(np.abs(r1)) < 1e-12 * scale
        assert np.max(np.abs(r2)) < 1e-12 * scale


def _run_from(z0):
    params, spec = setup_model()
    return simulate_recursive(params, build_transition_matrix(params), z0,
                              sample_noise_path(spec, params, 3, seed=0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: NoisePath(np.zeros((4, 3)), np.zeros((4, 2)), 0.1, 0.9), DimensionMismatch,
     "epsilon and eta"),
    (lambda: NoisePath(np.zeros(3), np.zeros(3), 0.1, 0.9), DimensionMismatch,
     "epsilon and eta"),
    (lambda: sample_noise_path(*setup_model(), 0, seed=0), RangeError, "T must be >= 1"),
    (lambda: _run_from(np.zeros(5)), DimensionMismatch, "z0 must have length"),
    (lambda: aggregates(Trajectory(np.zeros((4, 4))), setup_model()[0]), DimensionMismatch,
     "state width 4"),
])
def test_shape_and_range_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_single_agent_simulation_supported():
    # n = 1 is admissible for matrix construction and simulation
    params = validate_params({"n": 1, "alpha": 0.1, "beta": 0.9, "a": [1.0], "b": [1.0]})
    spec = validate_noise({"mu": [0.0, 0.0], "sigma": [1.0, 1.0]}, 1)
    M = build_transition_matrix(params)
    path = sample_noise_path(spec, params, 50, seed=6)
    traj = simulate_recursive(params, M, np.zeros(2), path)
    assert traj.z.shape == (51, 2)
    agg = aggregates(traj, params)
    assert np.array_equal(agg.xbar, traj.z[:, 0])
