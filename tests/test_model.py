import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import build_transition_matrix, lint_params, validate_noise, validate_params
from varcycle.errors import (
    DimensionMismatch,
    ForbiddenPair,
    ParameterError,
    WeightViolation,
)


def make_params(n=3, alpha=0.1, beta=0.9, a=None, b=None):
    a = a if a is not None else [1.0 / n] * n
    b = b if b is not None else [1.0 / n] * n
    return validate_params({"n": n, "alpha": alpha, "beta": beta, "a": a, "b": b})


class TestValidateParams:
    def test_uniform_weights_valid(self):
        p = make_params(n=3, alpha=0.1, beta=0.9)
        assert p.n == 3
        assert_allclose(p.a.sum(), 1.0, rtol=0, atol=0)

    def test_forbidden_pair_zero(self):
        with pytest.raises(ForbiddenPair):
            make_params(alpha=0.0, beta=0.0)

    def test_forbidden_pair_one(self):
        with pytest.raises(ForbiddenPair):
            make_params(alpha=1.0, beta=1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightViolation):
            make_params(a=[0.5, 0.6, -0.1])

    def test_zero_weight_rejected(self):
        with pytest.raises(WeightViolation):
            make_params(a=[0.5, 0.5, 0.0])

    def test_loose_sum_rejected(self):
        with pytest.raises(WeightViolation):
            make_params(a=[0.4, 0.4, 0.1])

    def test_near_sum_renormalized_exactly(self):
        thirds = [1.0 / 3.0] * 3  # float sum is 1 - ~1e-16
        p = make_params(a=thirds, b=thirds)
        assert p.a.sum() == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_params(n=3, a=[0.5, 0.5])

    def test_missing_key(self):
        with pytest.raises(ParameterError):
            validate_params({"n": 2, "alpha": 0.1, "beta": 0.2, "a": [0.5, 0.5]})

    def test_idempotent(self):
        p = make_params(a=[0.2, 0.3, 0.5], b=[0.1, 0.2, 0.7])
        q = validate_params(p)
        assert q.n == p.n and q.alpha == p.alpha and q.beta == p.beta
        assert np.array_equal(q.a, p.a) and np.array_equal(q.b, p.b)

    def test_n1_allowed(self):
        p = make_params(n=1, a=[1.0], b=[1.0])
        assert p.n == 1

    def test_immutable_arrays(self):
        p = make_params()
        with pytest.raises(ValueError):
            p.a[0] = 2.0


class TestValidateNoise:
    def test_roundtrip(self):
        spec = validate_noise({"mu": [0.0] * 6, "sigma": [1.0] * 6}, 3)
        assert spec.mu.shape == (6,)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            validate_noise({"mu": [0.0] * 4, "sigma": [1.0] * 6}, 3)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ParameterError):
            validate_noise({"mu": [0.0] * 4, "sigma": [1.0, 1.0, 0.0, 1.0]}, 2)


class TestTransitionMatrix:
    def test_n1_example(self):
        p = make_params(n=1, alpha=0.1, beta=0.9, a=[1.0], b=[1.0])
        M = build_transition_matrix(p).entries
        assert_allclose(M, [[0.9, 0.1], [-0.9, 0.1]], rtol=0, atol=1e-15)

    def test_top_right_rows(self):
        p = make_params(n=2, alpha=0.5, beta=0.9, a=[0.3, 0.7], b=[0.5, 0.5])
        M = build_transition_matrix(p).entries
        assert_allclose(M[0, 2:], [0.15, 0.35], rtol=0, atol=0)
        assert_allclose(M[1, 2:], [0.15, 0.35], rtol=0, atol=0)

    def test_diagonal_block(self):
        p = make_params(n=4, alpha=0.3, beta=0.6, a=[0.25] * 4, b=[0.25] * 4)
        M = build_transition_matrix(p).entries
        assert np.all(np.diag(M)[:4] == 1.0 - 0.3)

    def test_block_invariants_random(self):
        # entries are plain products of inputs, so equality is exact
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            alpha, beta = rng.uniform(-2, 2, 2)
            if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
                continue
            w = rng.uniform(0.5, 1.5, (2, n))
            p = make_params(n=n, alpha=alpha, beta=beta, a=w[0] / w[0].sum(), b=w[1] / w[1].sum())
            M = build_transition_matrix(p).entries
            assert np.array_equal(M[:n, :n], (1 - alpha) * np.eye(n))
            assert np.array_equal(M[n:, n:], (1 - beta) * np.eye(n))
            for i in range(n):
                assert np.array_equal(M[i, n:], alpha * p.a)
                assert np.array_equal(M[n + i, :n], -beta * p.b)

    @pytest.mark.parametrize("n, alpha, beta", [(1, 0.1, 0.9), (3, 1.09804, 0.7), (40, -0.4, 1.7)])
    def test_apply_to_identity_is_the_dense_matrix(self, n, alpha, beta):
        # each entry of the rank-two part has one nonzero term, so the
        # structured product reproduces every dense entry exactly
        rng = np.random.default_rng(n)
        w = rng.uniform(0.5, 1.5, (2, n))
        p = make_params(n=n, alpha=alpha, beta=beta, a=w[0] / w[0].sum(), b=w[1] / w[1].sum())
        M = build_transition_matrix(p)
        eye = np.eye(2 * n)
        assert M.shape == (2 * n, 2 * n)
        assert np.array_equal(M.apply(eye), M.entries.T)
        assert np.array_equal(M.apply(eye, transpose=True), M.entries)

    def test_apply_over_batch_axes(self):
        p = make_params(n=4, alpha=0.3, beta=0.6, a=[0.1, 0.2, 0.3, 0.4], b=[0.4, 0.3, 0.2, 0.1])
        M = build_transition_matrix(p)
        Z = np.random.default_rng(5).standard_normal((3, 7, 8))
        dense = M.entries
        assert M.apply(Z).shape == Z.shape
        assert_allclose(M.apply(Z), Z @ dense.T, rtol=0, atol=1e-14)
        assert_allclose(M.apply(Z, transpose=True), Z @ dense, rtol=0, atol=1e-14)
        assert_allclose(M.apply(Z[0, 0]), dense @ Z[0, 0], rtol=0, atol=1e-14)


def test_lint_flags_out_of_range():
    assert lint_params(make_params(alpha=1.09804, beta=0.7))
    assert not lint_params(make_params(alpha=0.1, beta=0.9))
