"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure once its assertions hold.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from varcycle import (
    CycleRegime,
    MomentInputs,
    Regime,
    aggregates,
    build_transition_matrix,
    characteristic_polynomial_eval,
    classify_regime,
    cross_covariance,
    decompose,
    dominant_period,
    fit_constants,
    forcing_series,
    homogeneous_solution,
    limiting_moments,
    mc_cross_covariance,
    mc_long_run,
    moment_inputs,
    reduce_to_cycle,
    sample_noise_path,
    sample_scalar_noise,
    scalar_noise_from_vector,
    simulate_cycle,
    simulate_explicit,
    simulate_recursive,
    validate_noise,
    validate_params,
)

BENCH_ALPHA, BENCH_BETA = 1.09804, 0.7


def make_params(n, alpha, beta, rng=None):
    if rng is None:
        a = b = [1.0 / n] * n
    else:
        w = rng.uniform(0.5, 1.5, (2, n))
        a, b = w[0] / w[0].sum(), w[1] / w[1].sum()
    return validate_params({"n": n, "alpha": alpha, "beta": beta, "a": a, "b": b})


def unit_noise(n, mu=0.0):
    return validate_noise({"mu": [mu] * (2 * n), "sigma": [1.0] * (2 * n)}, n)


def draw_diagonalizable(rng, stable=False):
    while True:
        alpha, beta = rng.uniform(-2, 2, 2)
        delta = alpha**2 + beta**2 - 6 * alpha * beta
        if delta < 0.05 * max(1.0, alpha**2 + beta**2):
            continue
        if abs(alpha) < 0.05 or abs(beta) < 0.05:
            continue
        if stable:
            mid = 1 - (alpha + beta) / 2
            lams = [1 - alpha, 1 - beta, mid + np.sqrt(delta) / 2, mid - np.sqrt(delta) / 2]
            if max(abs(v) for v in lams) >= 0.999:
                continue
        return alpha, beta


def test_c01_decomposition_correctness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_basis, worst_inverse = 0.0, 0.0
    for i in range(100):
        n = [2, 3, 5, 10, 50][i % 5]
        alpha, beta = draw_diagonalizable(rng)
        params = make_params(n, alpha, beta, rng)
        dec = decompose(params)
        assert dec.regime is Regime.DIAGONALIZABLE_REAL
        M = build_transition_matrix(params).entries
        J = np.diag(dec.diag)
        r1 = np.max(np.abs(M @ dec.Q - dec.Q @ J))
        r2 = np.max(np.abs(dec.Q @ dec.Qinv - np.eye(2 * n)))
        assert r1 < 1e-10 * np.max(np.abs(M))
        assert r2 < 1e-10
        worst_basis = max(worst_basis, r1 / np.max(np.abs(M)))
        worst_inverse = max(worst_inverse, r2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: 100 configs, worst |MQ-QJ|/|M| = {worst_basis:.2e}, "
        f"worst |QQ^-1 - I| = {worst_inverse:.2e}, {elapsed:.2f}s"
    )


def test_c02_characteristic_polynomial_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        alpha, beta = rng.uniform(-2, 2, 2)
        if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
            continue
        lam = float(rng.uniform(-2, 2))
        params = make_params(n, alpha, beta, rng)
        f = characteristic_polynomial_eval(params, lam)
        det = np.linalg.det(lam * np.eye(2 * n) - build_transition_matrix(params).entries)
        scale = max(abs(f), abs(det), 1e-12)
        assert abs(f - det) <= 1e-8 * scale
        worst = max(worst, abs(f - det) / scale)
    print(f"\nACCEPTANCE 2 PASS: 200 samples, worst relative gap = {worst:.2e}")


def test_c03_explicit_equals_recursive():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        n = [2, 3, 5, 10][seed % 4]
        alpha, beta = draw_diagonalizable(rng, stable=True)
        params = make_params(n, alpha, beta, rng)
        spec = unit_noise(n)
        dec = decompose(params)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 200, seed=seed)
        z0 = rng.uniform(-1, 1, 2 * n)
        rec = simulate_recursive(params, M, z0, path)
        exp = simulate_explicit(params, dec, z0, path)
        rel = np.max(np.abs(rec.z - exp.z)) / (1.0 + np.max(np.abs(rec.z)))
        assert rel < 1e-8
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: 20 seeds, worst relative deviation = {worst:.2e}, {elapsed:.2f}s")


def test_c04_nonstationarity_gap():
    params = make_params(3, 0.1, 0.9)
    dec = decompose(params)
    inputs = MomentInputs(
        G=np.zeros((6, 6)), Sigma0=np.eye(6), mu_gamma=np.zeros(6), n=3
    )
    from varcycle import stationarity_diagnostic

    report = stationarity_diagnostic(inputs, dec, [2, 5, 10], [0, 1])
    assert report.stationarity_gap > 1e-3
    assert report.stationarity_gap_original > 1e-3
    print(
        f"\nACCEPTANCE 4 PASS: stationarity gap {report.stationarity_gap:.4f} "
        f"(transformed), {report.stationarity_gap_original:.4f} (original)"
    )


def test_c05_covariance_formula_vs_monte_carlo():
    start = time.perf_counter()
    params = make_params(3, 0.1, 0.9)
    spec = unit_noise(3)
    dec = decompose(params)
    inputs = moment_inputs(params, spec)
    theory = cross_covariance(inputs, dec, 5, 2).gamma
    est, se = mc_cross_covariance(params, spec, inputs.G, [5], [2],
                                  reps=100_000, seed=555)[(5, 2)]
    deviations = np.abs(est - theory) / se
    assert np.all(deviations < 4.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 PASS: 1e5 replications, max |theory - sample| = "
        f"{np.max(deviations):.2f} standard errors, {elapsed:.1f}s"
    )


def test_c06_limiting_mean_and_covariance_discrepancy():
    params = make_params(3, 0.1, 0.9)
    spec = validate_noise(
        {"mu": [0.5, -0.3, 0.2, 0.4, -0.1, 0.3], "sigma": [1.0, 0.5, 0.8, 1.2, 0.9, 0.6]}, 3
    )
    dec = decompose(params)
    inputs = moment_inputs(params, spec)
    report = limiting_moments(inputs, dec)
    assert report.spectral_radius_ok
    mc = mc_long_run(params, spec, reps=600, t_burn=1000, t_final=4000, seed=606)
    deviations = np.abs(mc.mean - report.limiting_mean) / mc.mean_se
    assert np.all(deviations < 4.0)
    print(
        f"\nACCEPTANCE 6 PASS: limiting mean within {np.max(deviations):.2f} standard "
        f"errors over 600 replications; claimed-vs-MA(inf) covariance discrepancy "
        f"= {report.covariance_discrepancy:.4f} (reported, not asserted: the two differ)"
    )


def test_c07_reduction_consistency():
    param_sets = [
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
    regimes_seen = set()
    worst = 0.0
    for k, (alpha, beta) in enumerate(param_sets):
        params = validate_params(
            {"n": 3, "alpha": alpha, "beta": beta,
             "a": [0.2, 0.3, 0.5], "b": [0.5, 0.2, 0.3]}
        )
        regimes_seen.add(classify_regime(alpha, beta)[1])
        spec = unit_noise(3, mu=0.05)
        M = build_transition_matrix(params)
        path = sample_noise_path(spec, params, 200, seed=700 + k)
        traj = simulate_recursive(params, M, np.linspace(-1, 1, 6), path)
        agg = aggregates(traj, params)
        model = reduce_to_cycle(alpha, beta)
        h = forcing_series(scalar_noise_from_vector(params, path), alpha, beta)
        resid = (
            agg.xbar[2:] + model.kappa1 * agg.xbar[1:-1] + model.kappa2 * agg.xbar[:-2]
            - h[:199]
        )
        scale = 1.0 + np.max(np.abs(agg.xbar))
        rel = np.max(np.abs(resid)) / scale
        assert rel < 1e-10, (alpha, beta, rel)
        worst = max(worst, rel)
    assert regimes_seen == set(Regime)
    print(
        f"\nACCEPTANCE 7 PASS: 10 parameter sets across all regimes, "
        f"worst relative residual = {worst:.2e}"
    )


def test_c08_periodic_solution():
    model = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
    rng = np.random.default_rng(808)
    worst_resid, worst_init = 0.0, 0.0
    for _ in range(20):
        x0, x1 = rng.uniform(-2, 2, 2)
        c1, c2 = fit_constants(model, x0, x1)
        sol = homogeneous_solution(model, c1, c2, 100)
        assert abs(sol.values[0] - x0) < 1e-12
        assert abs(sol.values[1] - x1) < 1e-12
        v = sol.values
        resid = np.max(np.abs(v[2:] + model.kappa1 * v[1:-1] + model.kappa2 * v[:-2]))
        assert resid < 1e-9
        worst_resid = max(worst_resid, resid)
        worst_init = max(worst_init, abs(sol.values[0] - x0), abs(sol.values[1] - x1))
    print(
        f"\nACCEPTANCE 8 PASS: termwise residual <= {worst_resid:.2e} over t <= 100, "
        f"initial values reproduced to {worst_init:.2e}"
    )


def test_c09_benchmark_trajectory_period():
    model = reduce_to_cycle(BENCH_ALPHA, BENCH_BETA)
    predicted = 2 * np.pi / model.omega
    hits = 0
    errors = []
    for seed in range(10):
        noise = sample_scalar_noise((0.0, 1.0), (0.0, 1.6), 700, seed=seed)
        x = simulate_cycle(model, noise, 0.0, 0.0, 700)
        est = dominant_period(x)
        rel = abs(est.period - predicted) / predicted
        errors.append(rel)
        hits += rel <= 0.10
    assert hits >= 9, errors
    print(
        f"\nACCEPTANCE 9 PASS: {hits}/10 fixed seeds within 10% of predicted period "
        f"{predicted:.4f} steps (worst {max(errors):.1%})"
    )


def test_c10_regime_trichotomy_and_agreement():
    rng = np.random.default_rng(1010)
    mapping = {
        Regime.COMPLEX_CONJUGATE: CycleRegime.COMPLEX_OSCILLATORY,
        Regime.DIAGONALIZABLE_REAL: CycleRegime.DISTINCT_REAL,
        Regime.REPEATED_ROOT_JORDAN: CycleRegime.REPEATED_REAL,
    }
    counts = {r: 0 for r in Regime}
    for _ in range(10_000):
        alpha, beta = rng.uniform(-3, 3, 2)
        if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
            continue
        _, spectral_regime = classify_regime(alpha, beta)
        counts[spectral_regime] += 1
        assert reduce_to_cycle(alpha, beta).regime is mapping[spectral_regime]
    # exact boundary cases, including beta < 0
    for beta in (0.7, 0.3, -0.5, 1.1):
        for factor in (3 - 2 * np.sqrt(2), 3 + 2 * np.sqrt(2)):
            alpha = factor * beta
            _, regime = classify_regime(alpha, beta)
            assert regime is Regime.REPEATED_ROOT_JORDAN
            assert reduce_to_cycle(alpha, beta).regime is CycleRegime.REPEATED_REAL
    print(
        f"\nACCEPTANCE 10 PASS: 10^4 random pairs agree "
        f"(complex {counts[Regime.COMPLEX_CONJUGATE]}, "
        f"real {counts[Regime.DIAGONALIZABLE_REAL]}, "
        f"boundary {counts[Regime.REPEATED_ROOT_JORDAN]}); "
        f"8 exact boundary points classified repeated-root"
    )
