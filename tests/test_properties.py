"""Invariants as properties over (alpha, beta, n, weights), with alpha also
drawn within a relative distance of 1e-8 .. 1e-2 of the regime boundaries
d1 = (3 - 2 sqrt 2) beta and d2 = (3 + 2 sqrt 2) beta, on both sides, and
down to |alpha| = 1e-320 |beta|.  The block basis properties reach down to
1e-12, inside the repeated-root tolerance; they and the decomposition
check's properties take n = 1 and alpha*beta = 0 too."""

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from varcycle import (
    CycleRegime,
    Regime,
    aggregates,
    build_transition_matrix,
    classify_regime,
    cross_covariance,
    decompose,
    forcing_series,
    limiting_moments,
    moment_inputs,
    particular_solution,
    reduce_to_cycle,
    sample_noise_path,
    scalar_noise_from_vector,
    simulate_explicit,
    simulate_recursive,
    validate_noise,
    validate_params,
    verify_decomposition,
)
import varcycle.cycle
from varcycle import _decimal, cli
from varcycle.cli import CsvTable, cycle_csv, main, matrix_csv
from varcycle.errors import NonFiniteResult
from varcycle.simulate import NoisePath

from test_cli import assert_same_text
from test_spectral import assert_matches_dense, dense_from_factors, factors

BOUNDARY_FACTORS = {"d1": 3.0 - 2.0 * np.sqrt(2.0), "d2": 3.0 + 2.0 * np.sqrt(2.0)}
SPECTRAL_TO_CYCLE = {
    Regime.COMPLEX_CONJUGATE: CycleRegime.COMPLEX_OSCILLATORY,
    Regime.DIAGONALIZABLE_REAL: CycleRegime.DISTINCT_REAL,
    Regime.REPEATED_ROOT_JORDAN: CycleRegime.REPEATED_REAL,
}
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def pairs(draw, closest=-8.0, axes=False):
    """alpha in [-3, 3] and beta in [-2, 2], or alpha at d1 or d2 times
    1 -+ delta with delta in 10^closest .. 1e-2, or alpha = -+ beta times
    10^-320 .. 1e-4; with ``axes`` also alpha = 0 or beta = 0."""
    beta = draw(st.floats(-2.0, 2.0))
    near = draw(st.sampled_from([None, "d1", "d2", "small"] + (["axis"] if axes else [])))
    if near is None:
        alpha = draw(st.floats(-3.0, 3.0))
    elif near == "axis":
        alpha, beta = draw(st.sampled_from([(0.0, beta), (beta, 0.0)]))
    elif near == "small":
        side = draw(st.sampled_from([-1.0, 1.0]))
        alpha = side * beta * 10.0 ** draw(st.floats(-320.0, -4.0))
    else:
        delta = 10.0 ** draw(st.floats(closest, -2.0))
        side = draw(st.sampled_from([-1.0, 1.0]))
        alpha = BOUNDARY_FACTORS[near] * beta * (1.0 + side * delta)
    assume((alpha, beta) not in ((0.0, 0.0), (1.0, 1.0)))
    return alpha, beta


def with_weights(draw, n, alpha, beta):
    """The model of (alpha, beta) with n agents whose weights are drawn in
    [0.5, 1.5] before normalising."""
    weights = [draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)) for _ in "ab"]
    a, b = (np.array(w) / sum(w) for w in weights)
    return validate_params({"n": n, "alpha": alpha, "beta": beta, "a": a, "b": b})


@st.composite
def models(draw, n_min=2, closest=-8.0, axes=False):
    alpha, beta = draw(pairs(closest, axes))
    return with_weights(draw, draw(st.integers(n_min, 8)), alpha, beta)


@PROPERTY
@given(pair=pairs())
def test_spectral_and_scalar_trichotomies_agree(pair):
    _, regime = classify_regime(*pair)
    assert reduce_to_cycle(*pair).regime is SPECTRAL_TO_CYCLE[regime]


@PROPERTY
@given(params=models(n_min=1, closest=-12.0, axes=True))
@example(params=validate_params({"n": 2, "alpha": 0.003944575970102982,
                                 "beta": 0.022990669098271105, "a": [0.5, 0.5],
                                 "b": [0.5, 0.5]}))
@example(params=validate_params({"n": 2, "alpha": 0.0, "beta": 1e-6, "a": [0.5, 0.5],
                                 "b": [0.5, 0.5]}))
def test_cycle_roots_are_the_spectral_roots(params):
    # one solution of the quadratic factor serves both models, bit for bit,
    # down to the repeated-root band's edge and on an axis whose Delta lies
    # inside the band
    def bits(z):
        return np.array([z.real, z.imag]).tobytes()

    dec = decompose(params)
    model = reduce_to_cycle(params.alpha, params.beta)
    assert bits(model.rho1) == bits(complex(dec.eig.lambda3))
    assert bits(model.rho2) == bits(complex(dec.eig.lambda4))
    assert model.delta1 == dec.boundaries.delta
    assert model.regime is SPECTRAL_TO_CYCLE[dec.regime]


def decomposition_check(params):
    """verify_decomposition's verdict, or None where decompose gives no basis."""
    dec = decompose(params)
    if dec.V is None:
        return None
    return verify_decomposition(**factors(dec, build_transition_matrix(params)))


SMALL_ALPHA = [(1e-8, 1.0), (-1e-7, 0.3), (2.2004343959725833e-287, 1.0), (1e-8, -1.0)]


def small_alpha_params(alpha, beta):
    return validate_params({"n": 3, "alpha": alpha, "beta": beta,
                            "a": [0.2, 0.3, 0.5], "b": [0.5, 0.2, 0.3]})


@PROPERTY
@given(params=models(n_min=1, axes=True))
@example(params=small_alpha_params(1e-310, 1.0))
@example(params=small_alpha_params(5e-324, 1.0))
def test_decomposition_passes_wherever_a_basis_exists(params):
    check = decomposition_check(params)
    assume(check is not None)
    assert check.passed, check


@pytest.mark.parametrize("alpha,beta", SMALL_ALPHA)
def test_root_near_lambda1_column_is_exact_at_small_alpha(alpha, beta):
    # for the quadratic root within O(alpha) of lambda1, lam - lambda1
    # cancels; its column takes the form (lambda2 - lam, beta) instead
    params = small_alpha_params(alpha, beta)
    dec = decompose(params)
    M = build_transition_matrix(params).entries
    j = 2 if beta > alpha else 5  # lambda3's column, else lambda4's
    q = dec.Q[:, j]
    assert np.max(np.abs(M @ q - dec.diag[j] * q)) < 1e-15  # a few ulps of 1


@pytest.mark.parametrize("alpha,beta", SMALL_ALPHA)
def test_decomposition_passes_at_small_alpha(alpha, beta):
    check = decomposition_check(small_alpha_params(alpha, beta))
    assert check.passed, check


@PROPERTY
@given(params=models(n_min=1, axes=True))
def test_decomposition_check_matches_dense_oracle(params):
    # the O(n) check against dense products of the arrays Q and Q^-1
    # built from the same factors, within the rounding those products allow
    dec = decompose(params)
    assume(dec.V is not None)
    args = factors(dec, build_transition_matrix(params))
    assert_matches_dense(verify_decomposition(**args), **args)


def exact_residuals(M, R, V, L):
    """The three residuals of the factors in rational arithmetic: Q's
    deviation columns e_q - fl(w_q/w_p) e_p, with p the block's pivot and
    q each other agent in order, R^-1's rows e_q - w and w, V^-1 exactly,
    and J = blockdiag(R.rates, L), all in R's column order."""
    n, m = M.n, 2 * M.n
    F = [Fraction(float(x)) for x in np.ravel(dense_from_factors(M))]
    Mx = [F[i * m:(i + 1) * m] for i in range(m)]
    Vx = [[Fraction(float(x)) for x in row] for row in V]
    det = Vx[0][0] * Vx[1][1] - Vx[0][1] * Vx[1][0]
    Vinv = [[Vx[1][1] / det, -Vx[0][1] / det], [-Vx[1][0] / det, Vx[0][0] / det]]
    Q = [[Fraction(0)] * m for _ in range(m)]
    Qinv = [[Fraction(0)] * m for _ in range(m)]
    for k, (w, pivot) in enumerate(zip((R.b, R.a), R.pivots)):
        wx = [Fraction(float(x)) for x in w]
        for i, q in enumerate(q for q in range(n) if q != pivot):
            col = k * (n - 1) + i
            Q[k * n + q][col] = Fraction(1)
            Q[k * n + pivot][col] = -Fraction(float(w[q] / w[pivot]))
            for j in range(n):
                Qinv[col][k * n + j] = (j == q) - wx[j]
        for i in range(n):
            for g in (0, 1):
                Q[k * n + i][m - 2 + g] = Vx[k][g]
                Qinv[m - 2 + g][k * n + i] = Vinv[g][k] * wx[i]
    J = [[Fraction(0)] * m for _ in range(m)]
    for i, rate in enumerate(R.rates):
        J[i][i] = Fraction(float(rate))
    for g in (0, 1):
        for h in (0, 1):
            J[m - 2 + g][m - 2 + h] = Fraction(float(L[g][h]))

    def mul(A, B):
        return [[sum(A[i][j] * B[j][k] for j in range(m)) for k in range(m)] for i in range(m)]

    MQ, QJ, QQinv = mul(Mx, Q), mul(Q, J), mul(Q, Qinv)
    S = mul(Qinv, MQ)
    cells = [(i, j) for i in range(m) for j in range(m)]
    return (float(max(abs(MQ[i][j] - QJ[i][j]) for i, j in cells)),
            float(max(abs(QQinv[i][j] - (i == j)) for i, j in cells)),
            float(max(abs(S[i][j] - J[i][j]) for i, j in cells)))


NEAR_D1 = (BOUNDARY_FACTORS["d1"] * 0.7 * (1 - 1e-6), 0.7)


@pytest.mark.parametrize("alpha,beta", SMALL_ALPHA + [(0.1, 0.9), NEAR_D1])
def test_check_is_exact_where_q_is_large(alpha, beta):
    # at small alpha and near d1, where V is ill-conditioned, the check
    # stays within a few ulps of 1 of the factors' own residuals, so it
    # judges the factors, not its own rounding
    params = small_alpha_params(alpha, beta)
    args = factors(decompose(params), build_transition_matrix(params))
    check = verify_decomposition(**args)
    got = (check.residual_mq_qj, check.residual_qqinv, check.residual_similarity)
    want = exact_residuals(**args)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14, (got, want)


def example_params(n, alpha, beta):
    return validate_params({"n": n, "alpha": alpha, "beta": beta,
                            "a": np.linspace(1, 2, n) / np.linspace(1, 2, n).sum(),
                            "b": np.full(n, 1.0 / n)})


#: the paper's benchmark (complex regime), the d1 boundary, n = 1, alpha = 0, beta = 0
REGIME_EXAMPLES = [(4, 1.09804, 0.7), (3, BOUNDARY_FACTORS["d1"] * 0.7, 0.7),
                   (1, 0.1, 0.9), (3, 0.0, 0.8), (3, 0.1, 0.0)]
BLOCK_MODELS = models(n_min=1, closest=-12.0, axes=True)


def regime_examples(**others):
    def add(test):
        for n, alpha, beta in REGIME_EXAMPLES:
            test = example(params=example_params(n, alpha, beta), **others)(test)
        return test
    return add


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=BLOCK_MODELS, seed=st.integers(0, 2**32 - 1))
@regime_examples(seed=0)
def test_explicit_equals_recursive_property(params, seed):
    # acceptance criterion c03's bound, in every regime: the explicit
    # solution runs through the block basis R, which needs no eigenbasis
    n = params.n
    spec = validate_noise({"mu": [0.0] * (2 * n), "sigma": [1.0] * (2 * n)}, n)
    path = sample_noise_path(spec, params, 200, seed=seed)
    z0 = np.random.default_rng(seed).uniform(-1, 1, 2 * n)
    rec = simulate_recursive(params, build_transition_matrix(params), z0, path)
    exp = simulate_explicit(params, decompose(params), z0, path)
    assert np.max(np.abs(rec.z - exp.z)) < 1e-8 * (1.0 + np.max(np.abs(rec.z)))


@PROPERTY
@given(params=BLOCK_MODELS)
@regime_examples()
def test_block_basis_residuals_pass(params):
    R = decompose(params).R
    check = verify_decomposition(build_transition_matrix(params), R, np.eye(2), R.A)
    assert check.passed, check


@st.composite
def small_weight_models(draw):
    """n in 1..6 with, from n = 2 on, one weight in [1e-12, 1e-3] at any
    position of either block and the others drawn in [0.5, 1.5] before
    normalising; (alpha, beta) in the regime drawn first, with every
    eigenvalue of M inside the unit circle."""
    n = draw(st.integers(1, 6))
    regime = draw(st.sampled_from(list(Regime)))
    beta = draw(st.floats(0.05, 1.9))
    d1, d2 = BOUNDARY_FACTORS["d1"], BOUNDARY_FACTORS["d2"]
    if regime is Regime.REPEATED_ROOT_JORDAN:
        ratio = draw(st.sampled_from([d1, d2]))
    elif regime is Regime.COMPLEX_CONJUGATE:
        ratio = draw(st.floats(1.01 * d1, 0.99 * d2))
    else:
        ratio = draw(st.one_of(st.floats(0.01, 0.99 * d1), st.floats(1.01 * d2, 20.0)))
    weights = [draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)) for _ in "ab"]
    if n > 1:
        block, position = draw(st.integers(0, 1)), draw(st.integers(0, n - 1))
        weights[block][position] = 10.0 ** draw(st.floats(-12.0, -3.0))
    a, b = (np.array(w) / sum(w) for w in weights)
    params = validate_params({"n": n, "alpha": ratio * beta, "beta": beta, "a": a, "b": b})
    eig = decompose(params).eig
    assume(classify_regime(params.alpha, beta)[1] is regime)
    assume(max(abs(v) for v in (eig.lambda1, eig.lambda2, eig.lambda3, eig.lambda4)) < 1.0)
    return params


@PROPERTY
@given(params=small_weight_models())
def test_small_weight_passes_every_check(params):
    # R pivots each block on its largest weight, so a small weight in any
    # position leaves every verify check and the decompose residuals passing
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"n": params.n, "alpha": params.alpha, "beta": params.beta,
                                      "a": params.a.tolist(), "b": params.b.tolist()}))
        payloads = {}
        for command in ("verify", "decompose"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, "--config", str(config)]) == 0, command
            payloads[command] = json.loads(out.getvalue())["payload"]
    checks = payloads["verify"]["checks"]
    assert all(c["status"] in ("pass", "skipped") for c in checks), checks
    residuals = payloads["decompose"]["residuals"]
    assert (residuals is None) == (decompose(params).V is None)
    assert residuals is None or residuals["passed"], residuals


#: how far a permutation of the agents may move the trajectories: the
#: weighted sums add in another order, and nothing else changes
PERMUTATION_TOL = 1e-12


@PROPERTY
@given(params=small_weight_models(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_permuting_the_agents_permutes_the_trajectories(params, seed, data):
    n = params.n
    perm = np.array(data.draw(st.permutations(range(n))))
    both = np.r_[perm, n + perm]  # agent i's x and y
    moved = validate_params({"n": n, "alpha": params.alpha, "beta": params.beta,
                             "a": params.a[perm], "b": params.b[perm]})
    spec = validate_noise({"mu": [0.0] * (2 * n), "sigma": [1.0] * (2 * n)}, n)
    path = sample_noise_path(spec, params, 200, seed=seed)
    moved_path = NoisePath(path.epsilon[:, perm], path.eta[:, perm], params.alpha, params.beta)
    z0 = np.random.default_rng(seed).uniform(-1, 1, 2 * n)
    for simulate, factor in ((simulate_recursive, build_transition_matrix),
                             (simulate_explicit, decompose)):
        want = simulate(params, factor(params), z0, path).z[:, both]
        got = simulate(moved, factor(moved), z0[both], moved_path).z
        assert np.max(np.abs(got - want)) <= PERMUTATION_TOL * (1.0 + np.max(np.abs(want)))


MOMENT_MODELS = models(n_min=1, axes=True)


def random_moment_inputs(params, seed):
    """Unequal shock sds and a random PSD covariance G of z_0."""
    n, rng = params.n, np.random.default_rng(seed)
    spec = validate_noise({"mu": [0.0] * (2 * n),
                           "sigma": rng.uniform(0.5, 2.0, 2 * n).tolist()}, n)
    X = rng.standard_normal((2 * n, 2 * n))
    return moment_inputs(params, spec, G=X @ X.T)


@PROPERTY
@given(params=MOMENT_MODELS, seed=st.integers(0, 2**32 - 1),
       t=st.integers(2, 10), tau=st.integers(0, 3))
@regime_examples(seed=0, t=5, tau=2)
def test_cross_covariance_matches_dense_powers(params, seed, t, tau):
    # stepped through R in every regime; the oracle expands the moving
    # average with dense powers of M
    inputs = random_moment_inputs(params, seed)
    M = build_transition_matrix(params).entries

    def P(k):
        return np.linalg.matrix_power(M, k)

    want = P(t + tau) @ inputs.G @ P(t).T + sum(P(tau + i) @ inputs.Sigma0 @ P(i).T
                                                 for i in range(t))
    got = cross_covariance(inputs, decompose(params), t, tau).gamma
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@PROPERTY
@given(params=MOMENT_MODELS, seed=st.integers(0, 2**32 - 1))
@regime_examples(seed=0)
def test_ma_limit_matches_lyapunov_solver(params, seed):
    from scipy.linalg import solve_discrete_lyapunov

    inputs = random_moment_inputs(params, seed)
    report = limiting_moments(inputs, decompose(params))
    M = build_transition_matrix(params).entries
    stable = np.max(np.abs(np.linalg.eigvals(M))) < 1.0
    assert report.spectral_radius_ok == stable
    if stable:
        want = solve_discrete_lyapunov(M, inputs.Sigma0)
        got = report.ma_infinity_cov
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@PROPERTY
@given(params=models(), seed=st.integers(0, 2**32 - 1))
def test_cycle_reduction_residual(params, seed):
    # acceptance criterion c07's residual and bound.  The deviation modes
    # 1 - alpha and 1 - beta cancel exactly in the aggregate, so where they
    # outgrow the aggregate modes the residual is cancellation noise at the
    # scale of xbar; those models are left out, as c07 leaves them out.
    alpha, beta, n, T = params.alpha, params.beta, params.n, 100
    model = reduce_to_cycle(alpha, beta)
    aggregate_rate = max(abs(model.rho1), abs(model.rho2))
    assume(max(abs(1.0 - alpha), abs(1.0 - beta)) <= max(1.0, aggregate_rate))
    spec = validate_noise({"mu": [0.05] * (2 * n), "sigma": [1.0] * (2 * n)}, n)
    path = sample_noise_path(spec, params, T, seed)
    traj = simulate_recursive(params, build_transition_matrix(params),
                              np.linspace(-1, 1, 2 * n), path)
    xbar = aggregates(traj, params).xbar
    h = forcing_series(scalar_noise_from_vector(params, path), alpha, beta)
    resid = xbar[2:] + model.kappa1 * xbar[1:-1] + model.kappa2 * xbar[:-2] - h[: T - 1]
    assert np.max(np.abs(resid)) / (1.0 + np.max(np.abs(xbar))) < 1e-10


def run_verify(params, run=None):
    """verify's exit status and its checks by name, or the one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"n": params.n, "alpha": params.alpha, "beta": params.beta,
                                      "a": params.a.tolist(), "b": params.b.tolist(),
                                      "run": run or {}}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(config)])
    if code == 2:
        return code, err.getvalue()
    return code, {c["name"]: c for c in json.loads(out.getvalue())["payload"]["checks"]}


@st.composite
def outgrowing_models(draw):
    """Models whose deviation modes outgrow their aggregate modes.  One of
    alpha, beta is g in [-3, -0.05] or [2.05, 3], so that its deviation
    rate |1 - g| exceeds 1; the other is g q with q in [1e-3, 0.99 d1],
    which puts the pair in the real regime with alpha*beta > 0.  There the
    aggregate roots lie strictly between 1 - alpha and 1 - beta, so every
    aggregate mode is smaller than |1 - g|.  n in 2..7."""
    g = draw(st.one_of(st.floats(-3.0, -0.05), st.floats(2.05, 3.0)))
    other = g * draw(st.floats(1e-3, 0.99 * BOUNDARY_FACTORS["d1"]))
    alpha, beta = draw(st.sampled_from([(g, other), (other, g)]))
    return with_weights(draw, draw(st.integers(2, 7)), alpha, beta)


#: the vector model of a run whose cycle_reduction once read 4.0e-10,
#: judged on the scale of xbar while b . x rounds at the scale of x
OUTGROWING_EXAMPLE = validate_params({
    "n": 4, "alpha": 2.6421829536817425, "beta": 0.26887629371344735,
    "a": [0.23294211436101436, 0.3361385909688015, 0.20175210900739443, 0.22916718566278985],
    "b": [0.33384790337961584, 0.17062238960141077, 0.1650105557329342, 0.3305191512860392]})


@PROPERTY
@given(params=outgrowing_models(), T=st.integers(20, 119), seed=st.integers(0, 2**32 - 1))
@example(params=OUTGROWING_EXAMPLE, T=49, seed=0)
def test_verify_passes_where_deviations_outgrow_the_aggregates(params, T, seed):
    # every residual is judged on the scale of the state it came from, so
    # deviations that cancel in the aggregate fail no check
    model = reduce_to_cycle(params.alpha, params.beta)
    assert max(abs(model.rho1), abs(model.rho2)) < max(abs(1.0 - params.alpha),
                                                       abs(1.0 - params.beta))
    code, checks = run_verify(params, {"T": T, "seed": seed})
    if code == 2:
        assert checks.startswith("error: NonFiniteState: "), checks
        return
    assert code == 0, checks
    assert all(c["status"] == "pass" for c in checks.values()), checks


@st.composite
def stable_models(draw):
    """alpha, beta in [0.1, 1.9] with every eigenvalue of M inside the unit
    circle; n in 1..6.  Both stay away from 0, where xbar would be small
    against the state and a wrong kappa1 would move the residual little."""
    alpha, beta = draw(st.floats(0.1, 1.9)), draw(st.floats(0.1, 1.9))
    model = reduce_to_cycle(alpha, beta)
    assume(max(abs(model.rho1), abs(model.rho2)) < 1.0)
    return with_weights(draw, draw(st.integers(1, 6)), alpha, beta)


@PROPERTY
@given(params=stable_models(), seed=st.integers(0, 2**32 - 1))
def test_cycle_reduction_fails_a_shifted_kappa1(params, seed):
    # wrong code: kappa1 off by 1e-8 moves the residual by 1e-8 xbar, which
    # the state's scale leaves well above the 1e-10 bound on stable models
    reduce = varcycle.cycle.reduce_to_cycle

    def shifted(alpha, beta):
        model = reduce(alpha, beta)
        return dataclasses.replace(model, kappa1=model.kappa1 + 1e-8)

    with mock.patch.object(varcycle.cycle, "reduce_to_cycle", shifted):
        code, checks = run_verify(params, {"seed": seed})
    assert code == 1
    assert [name for name, c in checks.items() if c["status"] == "fail"] == ["cycle_reduction"]


@st.composite
def invertible_pairs(draw):
    """(alpha, beta) inside the invertible region 0 < kappa2 < 1, with
    kappa2 = 1 - alpha - beta + 2 alpha beta drawn in [1e-3, 1 - 1e-3]
    first.  kappa2 is linear in alpha with slope 2 beta - 1, so beta is
    drawn 0.05 .. 2.5 away from 1/2 and alpha = (1 - beta - kappa2) /
    (1 - 2 beta), at most 40 in magnitude."""
    beta = 0.5 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 2.5))
    kappa2 = draw(st.floats(1e-3, 1.0 - 1e-3))
    return (1.0 - beta - kappa2) / (1.0 - 2.0 * beta), beta


@PROPERTY
@given(pair=invertible_pairs(), seed=st.integers(0, 2**32 - 1))
def test_particular_solution_meets_its_equation(pair, seed):
    model = reduce_to_cycle(*pair)
    assert model.invertible
    h = np.random.default_rng(seed).standard_normal(100)
    x = particular_solution(model, h)
    resid = x[2:] + model.kappa1 * x[1:-1] + model.kappa2 * x[:-2] - h
    assert np.max(np.abs(resid)) <= 1e-13 * (1.0 + np.max(np.abs(x)))


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def cli_calls(params, workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "n": params.n, "alpha": params.alpha, "beta": params.beta,
        "a": params.a.tolist(), "b": params.b.tolist(), "run": {"T": 40, "seed": 1},
    }))
    # "--alpha=-1e-05": argparse takes a separate "-1e-05" for an option
    pair = [f"--alpha={params.alpha!r}", f"--beta={params.beta!r}"]
    return [
        ["decompose", "--config", config],
        ["verify", "--config", config],
        ["simulate", "--config", config, "--method", "both", "--out", workdir / "traj.csv"],
        ["moments", "--config", config, "--mc-reps", "3"],
        ["cycle", *pair, "--T", "100", "--analyze", "--out", workdir / "cycle.csv"],
    ]


@PROPERTY
@given(params=models())
def test_every_report_is_strict_json(params):
    # exit 0 or 1 (verify) prints one strict-JSON report; exit 2 prints one
    # error line and nothing on stdout; nothing ends in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cli_calls(params, Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert "Traceback" not in err.getvalue(), argv
            if code == 2:
                assert out.getvalue() == "", argv
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), argv
            else:
                assert code == 0 or (code == 1 and argv[0] == "verify"), (argv, code)
                json.loads(out.getvalue(), parse_constant=reject_constant)


def double_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: Sign bit either way on any magnitude, a subnormal, a NaN payload or one
#: of hypothesis' own floats, which lean to round and boundary values.
FLOAT_BITS = st.builds(
    int.__or__, st.sampled_from([0, 1 << 63]),
    st.one_of(st.integers(0, (1 << 63) - 1), st.integers(1, (1 << 52) - 1),
              st.integers(0x7FF0000000000001, (1 << 63) - 1),
              st.floats().map(lambda v: int(double_bits(v)))))

EDGE_DOUBLES = double_bits(
    [0.0, -0.0, np.inf, -np.inf]
    # 5e-324 .. 1e-322: subnormals whose shortest decimal has one digit
    + [i * 5e-324 for i in range(1, 21)]
    + [2.2250738585072014e-308, float(np.nextafter(2.2250738585072014e-308, 0.0)),
       1.7976931348623157e308]
    + [2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    + [float(2 ** 53 + d) for d in range(-4, 5)]
    # a few of these lie midway between two 17-digit decimals, which round
    # to the even one: 3 * 2**-24 is 1.7881393432617188e-07, not ...87e-07
    + [m * 2.0 ** e for m in range(1, 32, 2) for e in range(-30, -18)]
    # where repr switches between fixed point and exponent form
    + [1e-4, 1e-5, 1e16, 9999999999999998.0])
EDGE_BITS = np.concatenate([EDGE_DOUBLES, EDGE_DOUBLES | np.uint64(1 << 63), np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, (1 << 64) - 1],
    dtype=np.uint64)])


def repr_lines(values, indexed, first_row=0):
    return "".join((f"{t}," if indexed else "") + ",".join(map(repr, row)) + "\n"
                   for t, row in enumerate(values.tolist(), first_row)).encode()


def csv_bytes(table):
    buf = io.BytesIO()
    table.write(buf)
    return buf.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                       elements=FLOAT_BITS),
       first_row=st.integers(0, 10 ** 7) | st.integers(0, 2 ** 64 - 2 ** 13))
# row numbers across digit boundaries, 2^32 and the 18th digit
@example(bits=EDGE_BITS[:, None], first_row=0)
@example(bits=EDGE_BITS[:EDGE_BITS.size // 4 * 4].reshape(-1, 4), first_row=99_999)
@example(bits=EDGE_BITS[:24].reshape(-1, 2), first_row=9)
@example(bits=EDGE_BITS[-40:].reshape(-1, 4), first_row=10 ** 6 - 1)
@example(bits=EDGE_BITS[100:106].reshape(-1, 3), first_row=2 ** 32 - 1)
@example(bits=EDGE_BITS[200:208].reshape(-1, 1), first_row=10 ** 17 - 3)
# one-row blocks wider than a step of the gather loop
@example(bits=EDGE_BITS[None, :_decimal._CHUNK + 1], first_row=10 ** 17 - 3)
@example(bits=EDGE_BITS[None, :], first_row=2 ** 64 - 1)
# the smallest blocks: a 1 x 1 matrix and a one-row cycle table
@example(bits=double_bits([[1.7976931348623157e308]]), first_row=0)
@example(bits=double_bits([[5e-324, -2.2250738585072014e-308]]), first_row=9)
def test_csv_cells_are_the_repr_of_each_double(bits, first_row):
    values = bits.view(np.float64)
    assert _decimal.csv_rows(values, first_row) == repr_lines(values, True, first_row)
    assert csv_bytes(matrix_csv(values)) == repr_lines(values, indexed=False)
    header = ",".join(["t"] + [f"v{j}" for j in range(values.shape[1])])
    indexed = repr_lines(values, indexed=True)
    assert csv_bytes(CsvTable(header, (values,))) == f"{header}\n".encode() + indexed
    if values.shape[1] == 2:
        assert csv_bytes(cycle_csv(*values.T)) == b"t,xbar,h\n" + indexed


def reference_template(layout, n, neg, last):
    """One template, written out case by case: the oracle of _templates."""
    D = _decimal
    digits = list(range(1, 18))
    sign = [D._MINUS] if neg and layout != D._NAN_L else []
    if layout <= D._FIXED_MAX - D._FIXED_MIN:
        p = layout + D._FIXED_MIN
        if p <= 0:
            body = [D._ZERO, D._POINT] + [D._ZERO] * -p + digits[:n]
        else:  # digits past n are "0", so digits[:p] pads an integral value
            body = digits[:p] + [D._POINT] + (digits[p:n] if n > p else [D._ZERO])
    elif layout in (D._EXP2, D._EXP3):
        mantissa = digits[:1] + ([D._POINT] + digits[1:n] if n > 1 else [])
        exponent = [D._HUNDREDS, D._TENS, D._UNITS][layout == D._EXP2:]
        body = mantissa + [D._E, D._SIGN] + exponent
    elif layout == D._ZERO_L:
        body = [D._ZERO, D._POINT, D._ZERO]
    elif layout == D._INF_L:
        body = [D._I, D._N, D._F]
    else:
        body = [D._N, D._A, D._N]
    cell = sign + body + [D._NEWLINE if last else D._COMMA]
    return cell + [D._NUL] * (D._WIDTH - len(cell))


def reference_tables():
    """The formatter's tables, built one Python int and one template at a
    time."""
    D, U = _decimal, np.uint64
    g = []
    for k in range(D._K_MIN, D._K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (125 + (10 ** k).bit_length())) // 10 ** k + 1)
    g1 = np.array([v >> 63 for v in g], dtype=U)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=U)
    t = {"g1": g1, "g1_hi": g1 >> U(32), "g1_lo": g1 & U(0xFFFFFFFF),
         "g0_hi": g0 >> U(32), "g0_lo": g0 & U(0xFFFFFFFF),
         "pow10": np.array([10 ** i for i in range(18)], dtype=U)}
    chars = lambda text: np.frombuffer(text, dtype=np.uint16)  # noqa: E731
    t["pairs"] = chars(b"".join(b"%02d" % v for v in range(100)) * 8)
    t["last"] = np.array([0 if v == 0 else 4 * (2 * i + 1 + (v % 10 != 0))
                          for i in range(8) for v in range(100)], dtype=np.uint8)
    layout, head, tail = [], [], []
    for p in range(-D._POINT_BIAS, 310):
        e = abs(p - 1)
        layout.append(D._PER_LAYOUT * (p - D._FIXED_MIN if D._FIXED_MIN <= p <= D._FIXED_MAX
                                       else D._EXP3 if e >= 100 else D._EXP2))
        head.append(b"%c%d" % (b"-+"[p > 0], e // 100 % 10))
        tail.append(b"%02d" % (e % 100))
    t["layout"] = np.array(layout, dtype=np.intp)
    t["exp_head"], t["exp_tail"] = chars(b"".join(head)), chars(b"".join(tail))
    t["const"] = chars(D._CONST)[:, None, None]
    templates = np.array([reference_template(layout, n, neg, last)
                          for layout in range(D._NAN_L + 1) for n in range(1, 18)
                          for neg in (0, 1) for last in (0, 1)], dtype=np.intp)
    t["plane"], t["byte"] = templates >> 1, templates & 1
    return t


#: SHA-256 of the first 1,700 templates of the formatter that also wrote
#: row numbers through templates, in a 26th layout after the 25 kept.
KEPT_TEMPLATES_SHA256 = "4d024984637fadf2ed411cc15a068c7c4013d26f3601c99793e806df48c9c35d"


def test_formatter_tables_are_the_reference_tables():
    got, want = _decimal._tables(), reference_tables()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name
    templates = _decimal._templates()
    assert templates.shape == (1700, _decimal._WIDTH)
    assert hashlib.sha256(templates.tobytes()).hexdigest() == KEPT_TEMPLATES_SHA256


#: The finite edge doubles and bit patterns of the CSV property, for reports.
FINITE_EDGES = EDGE_BITS[(EDGE_BITS >> np.uint64(52) & np.uint64(0x7FF)) != 0x7FF].view(np.float64)
FINITE_BITS = FLOAT_BITS.filter(lambda b: b >> 52 & 0x7FF != 0x7FF)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
REPORT_LEAVES = st.one_of(
    hnp.arrays(np.uint64, SHAPES, elements=FINITE_BITS).map(lambda b: b.view(np.float64)),
    hnp.arrays(np.int64, SHAPES), hnp.arrays(np.bool_, SHAPES),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.booleans(), st.none(),
    st.text(max_size=4) | st.sampled_from([cli._ARRAY_MARK, "x" + cli._ARRAY_MARK]))
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | st.just(cli._ARRAY_MARK), inner,
                                     max_size=4)),
    max_leaves=12)


def counted_cells(obj):
    """The cells that the encoder's size rule counts."""
    if isinstance(obj, dict):
        return sum(counted_cells(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(counted_cells(v) for v in obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        return obj.size
    return 0


def filler(cells, width, seed):
    """`cells` finite float cells as a (rows, width) and a 1-D array:
    the edge values, then random bit patterns, shuffled."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 64, cells, dtype=np.uint64, endpoint=False)
    bits[(bits >> np.uint64(52) & np.uint64(0x7FF)) == 0x7FF] ^= np.uint64(1 << 62)
    values = bits.view(np.float64)
    edges = min(cells, FINITE_EDGES.size)
    values[:edges] = FINITE_EDGES[:edges]
    rng.shuffle(values)
    rows = cells // width
    return [values[:rows * width].reshape(rows, width), values[rows * width:]]


def emitted(payload, out=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report = cli.emit_report({"n": 1}, payload, {"compute": 0.25}, out)
    return report, buf.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=REPORT_VALUES,
       cells=st.one_of(st.sampled_from([8191, 8192]), st.integers(0, 8191),
                       st.integers(8192, 3 * cli._CSV_BLOCK_CELLS)),
       width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
@example(values={"m": np.array([[0.0, -0.0, 5e-324], [1e-5, 1e16, 3.0]]), "e": np.zeros((0, 3)),
                 "z": np.float64(-0.0) * np.ones(()), "s": cli._ARRAY_MARK},
         cells=8192, width=3, seed=1)
@example(values=[np.ones(2)], cells=8191, width=8191, seed=2)
def test_report_text_is_json_dumps(values, cells, width, seed):
    """Below and above the size rule (8,191 and 8,192 float cells at the
    edge), the report's bytes are those of json.dumps."""
    payload = {"values": values}
    cells -= counted_cells(payload)
    if cells > 0:
        payload["filler"] = filler(cells, width, seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        report, text = emitted(payload, str(out))
        want = json.dumps(report, allow_nan=False, default=cli._json_default) + "\n"
        assert_same_text(text, want)
        assert_same_text(out.read_text(), want)


@pytest.mark.parametrize("cells", [10, 9000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_cell_is_non_finite_result(cells, bad):
    values = np.linspace(0.0, 1.0, cells).reshape(-1, 2)
    values[-1, -1] = bad
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(NonFiniteResult, match="non-finite"):
        cli.emit_report({}, {"values": values}, {})
    assert buf.getvalue() == ""
