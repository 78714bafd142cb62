"""Invariants as properties over (alpha, beta, n, weights), with alpha also
drawn within a relative distance of 1e-8 .. 1e-2 of the regime boundaries
d1 = (3 - 2 sqrt 2) beta and d2 = (3 + 2 sqrt 2) beta, on both sides.  The
block basis properties reach down to 1e-12, inside the repeated-root
tolerance, and take n = 1 and alpha*beta = 0 too."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from varcycle import (
    CycleRegime,
    Regime,
    aggregates,
    build_transition_matrix,
    classify_regime,
    decompose,
    forcing_series,
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
from varcycle.cli import main
from varcycle.spectral import verify_block_basis

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
    1 -+ delta with delta in 10^closest .. 1e-2; with ``axes`` also
    alpha = 0 or beta = 0."""
    beta = draw(st.floats(-2.0, 2.0))
    near = draw(st.sampled_from([None, "d1", "d2"] + (["axis"] if axes else [])))
    if near is None:
        alpha = draw(st.floats(-3.0, 3.0))
    elif near == "axis":
        alpha, beta = draw(st.sampled_from([(0.0, beta), (beta, 0.0)]))
    else:
        delta = 10.0 ** draw(st.floats(closest, -2.0))
        side = draw(st.sampled_from([-1.0, 1.0]))
        alpha = BOUNDARY_FACTORS[near] * beta * (1.0 + side * delta)
    assume((alpha, beta) not in ((0.0, 0.0), (1.0, 1.0)))
    return alpha, beta


@st.composite
def models(draw, n_min=2, closest=-8.0, axes=False):
    alpha, beta = draw(pairs(closest, axes))
    n = draw(st.integers(n_min, 8))
    weights = [draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)) for _ in "ab"]
    a, b = (np.array(w) / sum(w) for w in weights)
    return validate_params({"n": n, "alpha": alpha, "beta": beta, "a": a, "b": b})


@PROPERTY
@given(pair=pairs())
def test_spectral_and_scalar_trichotomies_agree(pair):
    _, regime = classify_regime(*pair)
    assert reduce_to_cycle(*pair).regime is SPECTRAL_TO_CYCLE[regime]


def decomposition_check(params):
    """verify_decomposition's verdict, or None where decompose gives no basis."""
    dec = decompose(params)
    if dec.Q is None:
        return None
    return verify_decomposition(build_transition_matrix(params), dec.diag, dec.Q, dec.Qinv)


@PROPERTY
@given(params=models())
def test_decomposition_passes_wherever_a_basis_exists(params):
    # |alpha| < 1e-4 |beta| is left to the known failure below
    assume(abs(params.alpha) >= 1e-4 * abs(params.beta))
    check = decomposition_check(params)
    assume(check is not None)
    assert check.passed, check


SMALL_ALPHA = [(1e-8, 1.0), (-1e-7, 0.3), (2.2004343959725833e-287, 1.0), (1e-8, -1.0)]


def small_alpha_params(alpha, beta):
    return validate_params({"n": 3, "alpha": alpha, "beta": beta,
                            "a": [0.2, 0.3, 0.5], "b": [0.5, 0.2, 0.3]})


@pytest.mark.parametrize("alpha,beta", SMALL_ALPHA)
def test_root_near_lambda1_column_is_exact_at_small_alpha(alpha, beta):
    # for the quadratic root within O(alpha) of lambda1, c = (lam -
    # lambda1)/alpha cancels; its column takes the form -beta*tau instead
    params = small_alpha_params(alpha, beta)
    dec = decompose(params)
    M = build_transition_matrix(params).entries
    j = 2 if beta > alpha else 5  # lambda3's column, else lambda4's
    q = dec.Q[:, j]
    assert np.max(np.abs(M @ q - dec.diag[j] * q)) < 1e-15  # a few ulps of 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the column (1, c) of the root near lambda2 has |c| ~ |beta/alpha|, "
                   "so the rounding of that eigenvalue and of sum(a) = 1 scaled by |c| "
                   "exceeds the residual bound")
@pytest.mark.parametrize("alpha,beta", SMALL_ALPHA)
def test_decomposition_passes_at_small_alpha(alpha, beta):
    check = decomposition_check(small_alpha_params(alpha, beta))
    assert check.passed, check


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
    r1, r2, passed = verify_block_basis(build_transition_matrix(params), decompose(params).R)
    assert passed, (r1, r2)


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


@PROPERTY
@given(pair=pairs(), seed=st.integers(0, 2**32 - 1))
def test_particular_solution_meets_its_equation(pair, seed):
    model = reduce_to_cycle(*pair)
    assume(model.invertible)
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
