import dataclasses
import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varcycle import (
    Regime,
    build_transition_matrix,
    characteristic_polynomial_eval,
    classify_regime,
    decompose,
    validate_params,
    verify_decomposition,
)
from varcycle.errors import DimensionMismatch, WrongRegime
from varcycle.spectral import verify_block_basis

D1_FACTOR = 3.0 - 2.0 * np.sqrt(2.0)


def make_params(n=3, alpha=0.1, beta=0.9, a=None, b=None):
    a = a if a is not None else [1.0 / n] * n
    b = b if b is not None else [1.0 / n] * n
    return validate_params({"n": n, "alpha": alpha, "beta": beta, "a": a, "b": b})


def random_diagonalizable(rng, n, stable=False):
    """Random params strictly inside the distinct-real-roots regime."""
    while True:
        alpha, beta = rng.uniform(-2, 2, 2)
        delta = alpha**2 + beta**2 - 6 * alpha * beta
        if delta < 0.05 * max(1.0, alpha**2 + beta**2):
            continue
        if abs(alpha) < 0.05 or abs(beta) < 0.05:
            continue
        if stable:
            lams = [1 - alpha, 1 - beta,
                    1 - (alpha + beta) / 2 + np.sqrt(delta) / 2,
                    1 - (alpha + beta) / 2 - np.sqrt(delta) / 2]
            if max(abs(l) for l in lams) >= 1.0:
                continue
        w = rng.uniform(0.5, 1.5, (2, n))
        return make_params(n=n, alpha=alpha, beta=beta,
                           a=w[0] / w[0].sum(), b=w[1] / w[1].sum())


class TestClassifyRegime:
    def test_oscillatory_benchmark(self):
        boundaries, regime = classify_regime(1.09804, 0.7)
        assert regime is Regime.COMPLEX_CONJUGATE
        assert_allclose(boundaries.d1, 0.120101012677, atol=1e-10)
        assert_allclose(boundaries.d2, 4.079898987322, atol=1e-10)
        assert_allclose(boundaries.delta, -2.9160761584, atol=1e-10)
        # cross-check the sign against the numeric roots of the quadratic factor
        roots = np.roots([1.0, 1.09804 + 0.7 - 2.0, 1 - 1.09804 - 0.7 + 2 * 1.09804 * 0.7])
        assert np.iscomplexobj(roots) and abs(roots[0].imag) > 0.1

    def test_diagonalizable(self):
        boundaries, regime = classify_regime(0.1, 0.9)
        assert regime is Regime.DIAGONALIZABLE_REAL
        assert_allclose(boundaries.delta, 0.28, atol=1e-15)

    def test_boundary_is_jordan(self):
        _, regime = classify_regime(D1_FACTOR * 0.7, 0.7)
        assert regime is Regime.REPEATED_ROOT_JORDAN

    def test_delta_vanishes_exactly_on_boundaries(self):
        for beta in (0.7, -0.4, 1.3):
            for d in classify_regime(0.0, beta)[0].d1, classify_regime(0.0, beta)[0].d2:
                delta = d * d + beta * beta - 6 * d * beta
                assert abs(delta) <= 1e-10 * max(1.0, d * d + beta * beta)

    def test_trichotomy_exclusive(self):
        rng = np.random.default_rng(7)
        counts = {r: 0 for r in Regime}
        for _ in range(2000):
            alpha, beta = rng.uniform(-3, 3, 2)
            if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
                continue
            _, regime = classify_regime(alpha, beta)
            counts[regime] += 1
        assert counts[Regime.COMPLEX_CONJUGATE] > 0
        assert counts[Regime.DIAGONALIZABLE_REAL] > 0


class TestCharacteristicPolynomial:
    def test_lambda1_lambda2_are_roots(self):
        # float cancellation in (lam - 1 + alpha) leaves a residual of a
        # few ulps, raised to the (n-1)-th power
        p = make_params(n=4, alpha=0.3, beta=0.8, a=[0.1, 0.2, 0.3, 0.4], b=[0.25] * 4)
        assert abs(characteristic_polynomial_eval(p, 1 - 0.3)) < 1e-40
        assert abs(characteristic_polynomial_eval(p, 1 - 0.8)) < 1e-40
        p2 = make_params(n=2, alpha=0.25, beta=0.75, a=[0.5, 0.5], b=[0.5, 0.5])
        assert characteristic_polynomial_eval(p2, 0.75) == 0.0
        assert characteristic_polynomial_eval(p2, 0.25) == 0.0

    def test_value_example(self):
        p = make_params(n=3, alpha=0.1, beta=0.9)
        # (0.4)^2 * (-0.4)^2 * g(0.5), g(0.5) = 0.25 - 0.5 + 0.18 = -0.07
        assert_allclose(characteristic_polynomial_eval(p, 0.5), -0.001792, atol=1e-15)
        M = build_transition_matrix(p).entries
        det = np.linalg.det(0.5 * np.eye(6) - M)
        assert_allclose(characteristic_polynomial_eval(p, 0.5), det, rtol=1e-10)

    def test_factorization_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5, 10]))
            alpha, beta = rng.uniform(-2, 2, 2)
            if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
                continue
            lam = float(rng.uniform(-2, 2))
            w = rng.uniform(0.5, 1.5, (2, n))
            p = make_params(n=n, alpha=alpha, beta=beta,
                            a=w[0] / w[0].sum(), b=w[1] / w[1].sum())
            f = characteristic_polynomial_eval(p, lam)
            det = np.linalg.det(lam * np.eye(2 * n) - build_transition_matrix(p).entries)
            assert abs(f - det) <= 1e-8 * max(abs(f), abs(det), 1e-12)


class TestEigenStructure:
    def test_real_pair_example(self):
        p = make_params(alpha=0.1, beta=0.9)
        eig = decompose(p).eig
        assert eig.lambda1 == 0.9 and abs(eig.lambda2 - 0.1) < 1e-15
        assert_allclose(eig.lambda3, 0.7645751311, atol=1e-9)
        assert_allclose(eig.lambda4, 0.2354248689, atol=1e-9)
        # each quadratic root must kill the quadratic factor
        for lam in (eig.lambda3, eig.lambda4):
            g = (lam - 1) ** 2 + (lam - 1) * 1.0 + 2 * 0.09
            assert abs(g) < 1e-14

    def test_complex_pair(self):
        p = make_params(alpha=0.5, beta=0.5)
        dec = decompose(p)
        assert dec.regime is Regime.COMPLEX_CONJUGATE
        eig = dec.eig
        assert_allclose(eig.lambda3, 0.5 + 0.5j, atol=1e-12)
        assert_allclose(eig.lambda4, 0.5 - 0.5j, atol=1e-12)

    def test_double_root_on_boundary(self):
        alpha = D1_FACTOR * 0.7
        p = make_params(alpha=alpha, beta=0.7)
        eig = decompose(p).eig
        assert eig.lambda3 == eig.lambda4 == 1 - (alpha + 0.7) / 2

    def test_trace_and_det(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.choice([2, 3, 5, 10, 20]))
            p = random_diagonalizable(rng, n)
            eig = decompose(p).eig
            M = build_transition_matrix(p).entries
            tr = sum(np.real(v) * m for v, m in eig.eigenvalues_with_multiplicity())
            assert abs(tr - np.trace(M)) < 1e-10 * max(1.0, abs(np.trace(M)))
            det = np.prod([np.real(v) ** m for v, m in eig.eigenvalues_with_multiplicity()])
            num = np.linalg.det(M)
            assert abs(det - num) <= 1e-8 * max(abs(det), abs(num))

    def test_multiplicity_completeness(self):
        p = make_params(n=5, alpha=0.1, beta=0.9, a=[0.2] * 5, b=[0.2] * 5)
        dec = decompose(p)
        assert sum(size for _, size in dec.blocks) == 10
        alpha = D1_FACTOR * 0.7
        pj = make_params(n=5, alpha=alpha, beta=0.7, a=[0.2] * 5, b=[0.2] * 5)
        decj = decompose(pj)
        sizes = [size for _, size in decj.blocks]
        assert sizes.count(1) == 8 and sizes.count(2) == 1

    def test_boundary_gap_shrinks(self):
        beta = 0.7
        d1 = D1_FACTOR * beta
        gaps = []
        for k in range(2, 7):
            alpha = d1 * (1 - 10.0 ** -k)
            boundaries, regime = classify_regime(alpha, beta)
            assert regime is Regime.DIAGONALIZABLE_REAL
            p = make_params(alpha=alpha, beta=beta)
            eig = decompose(p).eig
            gaps.append(eig.lambda3 - eig.lambda4)
        assert all(g > 0 for g in gaps)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2


class TestBasis:
    def test_first_column_example(self):
        p = make_params(n=2, alpha=0.1, beta=0.9, a=[0.5, 0.5], b=[0.5, 0.5])
        dec = decompose(p)
        assert_allclose(dec.Q[:, 0], [-1.0, 1.0, 0.0, 0.0], atol=0)

    def test_quadratic_root_column(self):
        # bottom scale of the lambda3 column solves the eigen equation:
        # (lambda3 - lambda1)/alpha, which is -1.3542486889 here (the
        # published column scalar has the ratio inverted and fails the
        # eigen equation; the residual check below is the authority)
        p = make_params(n=2, alpha=0.1, beta=0.9, a=[0.5, 0.5], b=[0.5, 0.5])
        dec = decompose(p)
        col = dec.Q[:, 1]
        assert_allclose(col[:2], [1.0, 1.0], atol=0)
        assert_allclose(col[2:], -1.3542486889, atol=1e-9)
        M = build_transition_matrix(p).entries
        lam3 = np.real(dec.eig.lambda3)
        assert np.max(np.abs((M - lam3 * np.eye(4)) @ col)) < 1e-12

    def test_columns_are_eigenvectors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.choice([2, 3, 5, 10]))
            p = random_diagonalizable(rng, n)
            dec = decompose(p)
            M = build_transition_matrix(p).entries
            d = dec.diag
            for j in range(2 * n):
                v = dec.Q[:, j]
                resid = np.max(np.abs(M @ v - d[j] * v))
                assert resid < 1e-10 * max(1.0, np.max(np.abs(v)))


class TestBasisInverse:
    def test_dual_rows_example(self):
        p = make_params(n=2, alpha=0.1, beta=0.9, a=[0.5, 0.5], b=[0.5, 0.5])
        Qinv = decompose(p).Qinv
        assert Qinv[0].tolist() == [-0.5, 0.5, 0.0, 0.0]
        assert Qinv[2].tolist() == [0.0, 0.0, -0.5, 0.5]

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_matches_row_operation_recipe(self, n):
        # oracle: reduce Q to diag{Q21, Q22} by two column operations,
        # invert the blocks, and apply the same operations as row operations
        p = random_diagonalizable(np.random.default_rng(100 + n), n)
        dec = decompose(p)
        a, b = p.a, p.b
        eig = dec.eig
        c3, c4 = ((np.real(lam) - eig.lambda1) / p.alpha for lam in (eig.lambda3, eig.lambda4))
        mix = c4 - c3
        ones = np.ones(n - 1)
        q21 = np.zeros((n, n))
        q21[: n - 1, 0] = -b[0]
        q21[: n - 1, 1:] = np.eye(n - 1) - np.outer(ones, b[1:])
        q21[n - 1] = b
        q22 = np.zeros((n, n))
        q22[: n - 1, 0] = -a[0]
        q22[: n - 1, 1:] = np.eye(n - 1) - np.outer(ones, a[1:])
        q22[n - 1] = a / mix
        oracle = np.zeros((2 * n, 2 * n))
        oracle[:n, :n] = q21
        oracle[n:, n:] = q22
        oracle[2 * n - 1] += (-c3 / mix) * oracle[n - 1]
        oracle[n - 1] -= oracle[2 * n - 1]
        scale = np.max(np.abs(dec.Qinv))
        assert np.max(np.abs(dec.Qinv - oracle)) <= 1e-15 * scale

    def test_tau_values(self):
        dec = decompose(make_params(alpha=0.1, beta=0.9))
        assert_allclose(dec.tau_minus, 7.3841681234, atol=1e-9)
        assert_allclose(dec.tau_plus, 1.5047207655, atol=1e-9)
        assert_allclose(dec.tau_tilde, 0.5879447358, atol=1e-9)
        # independent route: tau_minus - tau_plus = sqrt(Delta)/(alpha*beta)
        assert_allclose(dec.tau_tilde, np.sqrt(0.28) / 0.9, rtol=1e-13)
        assert dec.tau_tilde != 0.0

    def test_inverse_identity(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 10, 50):
            p = random_diagonalizable(rng, n)
            dec = decompose(p)
            assert np.max(np.abs(dec.Q @ dec.Qinv - np.eye(2 * n))) < 1e-10

    def test_matches_generic_inverse(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 10):
            p = random_diagonalizable(rng, n)
            dec = decompose(p)
            brute = np.linalg.inv(dec.Q)
            assert np.max(np.abs(dec.Qinv - brute)) < 1e-8


def dense_block_basis(p):
    """Oracle: R, R^-1 and J_R written out entry by entry."""
    n, m = p.n, 2 * p.n
    R, Rinv, J = np.zeros((m, m)), np.zeros((m, m)), np.zeros((m, m))
    for half, w, rate in ((0, p.b, 1.0 - p.alpha), (1, p.a, 1.0 - p.beta)):
        for i in range(n - 1):
            col = half * (n - 1) + i
            R[half * n, col] = -w[i + 1] / w[0]
            R[half * n + i + 1, col] = 1.0
            Rinv[col, half * n:(half + 1) * n] = -w
            Rinv[col, half * n + i + 1] += 1.0
            J[col, col] = rate
        R[half * n:(half + 1) * n, m - 2 + half] = 1.0
        Rinv[m - 2 + half, half * n:(half + 1) * n] = w
    J[m - 2:, m - 2:] = [[1.0 - p.alpha, p.alpha], [-p.beta, 1.0 - p.beta]]
    return R, Rinv, J


def random_weights_params(n, alpha, beta, seed=0):
    w = np.random.default_rng(seed).uniform(0.5, 1.5, (2, n))
    return make_params(n=n, alpha=alpha, beta=beta, a=w[0] / w[0].sum(), b=w[1] / w[1].sum())


#: one model per regime, plus n = 1, alpha = 0 and beta = 0
BLOCK_CASES = [(3, 0.1, 0.9), (4, 1.09804, 0.7), (5, D1_FACTOR * 0.7, 0.7),
               (1, 0.3, 0.6), (3, 0.0, 0.8), (3, 0.4, 0.0)]


class TestBlockBasis:
    @pytest.mark.parametrize("n, alpha, beta", BLOCK_CASES)
    def test_operators_match_dense_oracle(self, n, alpha, beta):
        p = random_weights_params(n, alpha, beta, seed=n)
        R = decompose(p).R
        dense, dense_inv, _ = dense_block_basis(p)
        X = np.random.default_rng(1).standard_normal((2, 3, 2 * n))  # two batch axes
        solve_t = functools.partial(R.solve, transpose=True)
        for op, oracle in ((R.apply, dense), (R.solve, dense_inv), (solve_t, dense_inv.T)):
            assert_allclose(op(X), X @ oracle.T, rtol=0, atol=1e-14)
            assert_allclose(op(X[0, 0]), oracle @ X[0, 0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, alpha, beta", BLOCK_CASES)
    def test_similarity_holds_in_every_regime(self, n, alpha, beta):
        p = random_weights_params(n, alpha, beta, seed=n)
        dense, dense_inv, J = dense_block_basis(p)
        M = build_transition_matrix(p).entries
        assert np.max(np.abs(M @ dense - dense @ J)) < 1e-15 * 4
        assert np.max(np.abs(dense @ dense_inv - np.eye(2 * n))) < 1e-15 * 4
        r1, r2, passed = verify_block_basis(build_transition_matrix(p), decompose(p).R)
        assert passed and r1 < 1e-14 and r2 < 1e-14

    def test_q_is_r_times_blockdiag_v(self):
        # the deviation columns of Q (rows of Q^-1) are R's (R^-1's) exactly;
        # the aggregate columns are (1_n, c 1_n) = R's aggregate pair times V
        p = random_diagonalizable(np.random.default_rng(8), 4)
        dec = decompose(p)
        dense, dense_inv, _ = dense_block_basis(p)
        n, m = p.n, 2 * p.n
        Q_dev = np.r_[0:n - 1, n:m - 1]
        assert np.array_equal(dec.Q[:, Q_dev], dense[:, :m - 2])
        assert np.array_equal(dec.Qinv[Q_dev], dense_inv[:m - 2])
        V = np.array([[1.0, 1.0], dec.Q[n, [n - 1, m - 1]]])
        assert np.array_equal(dec.Q[:, [n - 1, m - 1]], dense[:, m - 2:] @ V)
        assert_allclose(dec.Qinv[[n - 1, m - 1]], np.linalg.solve(V, dense_inv[m - 2:]),
                        rtol=0, atol=1e-14 * np.max(np.abs(dec.Qinv)))

    @pytest.mark.parametrize("field, delta", [("A", [[0.0, 1e-6], [0.0, 0.0]]),
                                              ("rates", 1e-6), ("b", 1e-6)])
    def test_perturbed_basis_fails(self, field, delta):
        p = random_weights_params(4, 1.09804, 0.7)
        R = decompose(p).R
        bad = dataclasses.replace(R, **{field: getattr(R, field) + np.asarray(delta)})
        r1, r2, passed = verify_block_basis(build_transition_matrix(p), bad)
        assert not passed and max(r1, r2) > 1e-8


def dense_residuals(M, d, Q, Qinv):
    """Oracle: the three residuals from dense products as written, each
    with the largest gap that rounding can open between it and the
    structured check (Higham's gamma_m for products of inner dimension
    m, with a safety factor of 4)."""
    m, eps = Q.shape[0], np.finfo(float).eps
    J, aM, aQ, aQinv = np.diag(d), np.abs(M), np.abs(Q), np.abs(Qinv)
    return (
        (np.max(np.abs(M @ Q - Q @ J)), 4 * m * eps * np.max(aM @ aQ + aQ @ np.abs(J))),
        (np.max(np.abs(Q @ Qinv - np.eye(m))), 4 * m * eps * np.max(aQ @ aQinv)),
        (np.max(np.abs(Qinv @ M @ Q - J)), 4 * m * eps * np.max(aQinv @ aM @ aQ)),
    )


def assert_matches_dense(check, M, d, Q, Qinv):
    got = (check.residual_mq_qj, check.residual_qqinv, check.residual_similarity)
    for value, (want, bound) in zip(got, dense_residuals(M, d, Q, Qinv)):
        assert abs(value - want) <= bound


class TestVerifyDecomposition:
    def test_clean_case(self):
        p = make_params(n=3, alpha=0.1, beta=0.9)
        dec = decompose(p)
        M = build_transition_matrix(p)
        scale = np.max(np.abs(M.entries))
        check = verify_decomposition(M, dec.diag, dec.Q, dec.Qinv)
        assert check.passed
        assert check.threshold_mq_qj == 1e-10 * scale
        assert check.residual_mq_qj < 1e-10 * scale
        assert check.residual_qqinv < 1e-10
        assert check.residual_similarity < 1e-10 * scale

    def test_perturbed_basis_fails(self):
        p = make_params(n=3, alpha=0.1, beta=0.9)
        dec = decompose(p)
        M = build_transition_matrix(p)
        Q = dec.Q.copy()
        Q[0, 0] += 1e-3
        check = verify_decomposition(M, dec.diag, Q, dec.Qinv)
        assert not check.passed
        assert 1e-5 < check.residual_mq_qj < 1e-1
        assert 1e-5 < check.residual_similarity < 1e-1

    @pytest.mark.parametrize("which", ["Q", "Qinv"])
    @pytest.mark.parametrize("structural_zero", [True, False])
    def test_perturbed_entry_counts(self, which, structural_zero):
        # a perturbed structural zero must count as much as a nonzero: the
        # products with Q run over the nonzeros of the array passed in
        p = random_diagonalizable(np.random.default_rng(7), 5)
        dec = decompose(p)
        M = build_transition_matrix(p)
        mats = {"Q": dec.Q.copy(), "Qinv": dec.Qinv.copy()}
        target = mats[which]
        i, j = np.argwhere((target == 0.0) if structural_zero else (target != 0.0))[-1]
        target[i, j] += 1e-3
        check = verify_decomposition(M, dec.diag, mats["Q"], mats["Qinv"])
        assert not check.passed
        assert check.residual_qqinv > 1e-6 and check.residual_similarity > 1e-6
        assert_matches_dense(check, M.entries, dec.diag, mats["Q"], mats["Qinv"])

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_residuals_match_dense_oracle(self, n):
        p = random_diagonalizable(np.random.default_rng(n), n)
        dec = decompose(p)
        M = build_transition_matrix(p)
        check = verify_decomposition(M, dec.diag, dec.Q, dec.Qinv)
        assert_matches_dense(check, M.entries, dec.diag, dec.Q, dec.Qinv)
        assert check.passed

    def test_n1_rejected(self):
        M = build_transition_matrix(make_params(n=1, a=[1.0], b=[1.0]))
        with pytest.raises(DimensionMismatch):
            verify_decomposition(M, np.ones(2), np.eye(2), np.eye(2))


class TestJordanPieces:
    def test_diag_layout(self):
        p = make_params(n=3, alpha=0.1, beta=0.9)
        dec = decompose(p)
        eig, d = dec.eig, dec.diag
        assert_allclose(d, [0.9, 0.9, eig.lambda3, 0.1, 0.1, eig.lambda4], rtol=0, atol=1e-15)
        blocks = dec.blocks
        assert [b for _, b in blocks] == [1] * 6

    @pytest.mark.parametrize("n, alpha, beta", [(1, 0.1, 0.9), (3, 0.1, 0.0), (3, 0.0, 0.8)])
    def test_diag_needs_a_basis(self, n, alpha, beta):
        # the diagonalizable regime without a basis: n = 1, or alpha*beta == 0
        p = make_params(n=n, alpha=alpha, beta=beta)
        dec = decompose(p)
        assert dec.regime is Regime.DIAGONALIZABLE_REAL and dec.Q is None
        with pytest.raises(WrongRegime):
            _ = dec.diag

    def test_complex_regime_has_no_blocks(self):
        p = make_params(alpha=1.09804, beta=0.7)
        dec = decompose(p)
        assert dec.blocks is None and dec.Q is None
        with pytest.raises(WrongRegime):
            _ = dec.diag
