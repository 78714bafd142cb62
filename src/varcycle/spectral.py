"""Spectral analysis of the transition matrix.

The characteristic polynomial factors as

    f(lam) = (lam - 1 + beta)^(n-1) (lam - 1 + alpha)^(n-1) g(lam),
    g(lam) = (lam - 1)^2 + (lam - 1)(alpha + beta) + 2 alpha beta,

so lam1 = 1 - alpha and lam2 = 1 - beta are always eigenvalues with
geometric multiplicity n - 1.  The discriminant of g,

    Delta = alpha^2 + beta^2 - 6 alpha beta,

vanishes exactly at alpha = d1 = (3 - 2*sqrt(2)) beta and
alpha = d2 = (3 + 2*sqrt(2)) beta, splitting the parameter plane into
three regimes:

* Delta < 0 — g has a complex-conjugate root pair; M cannot be
  diagonalized over the reals.
* Delta > 0 — two further real roots lam3, lam4; M is diagonalizable
  with an explicit basis Q and inverse built here.
* Delta = 0 — lam3 is a double root carrying a single 2 x 2 Jordan
  block; only the block structure is reported (no explicit basis).

One real block basis R serves every regime: its columns span the
deviations from the weighted aggregates, x = x_perp + (b.x) 1 and
y = y_perp + (a.y) 1, plus the two aggregate directions, so
M R = R J_R with the scalar rates 1 - alpha and 1 - beta on the
deviations and the 2x2 aggregate map A = [[1-alpha, alpha],
[-beta, 1-beta]].  R and R^-1 apply in O(n) and need no root of g and
no division by alpha.  Where M is diagonalizable the paper's basis is
Q = R blockdiag(I, V), with V the eigenvectors of A: only a 2x2 matrix
depends on the regime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, WrongRegime
from .model import ModelParams, TransitionMatrix

#: Scale-relative tolerance for detecting the repeated-root boundary.
BOUNDARY_TOL = 1e-10

#: Threshold of the decomposition residuals in verify_decomposition.
RESIDUAL_TOL = 1e-10

#: Rows and seed of the probe block that verify_block_basis multiplies.
PROBE_WIDTH, PROBE_SEED = 4, 0


class Regime(enum.Enum):
    COMPLEX_CONJUGATE = "complex_conjugate"
    DIAGONALIZABLE_REAL = "diagonalizable_real"
    REPEATED_ROOT_JORDAN = "repeated_root_jordan"


@dataclass(frozen=True)
class RegimeBoundaries:
    """Boundary values of alpha at which the discriminant vanishes."""

    d1: float
    d2: float
    delta: float


@dataclass(frozen=True)
class EigenStructure:
    """Eigenvalues of the transition matrix.

    lambda1 and lambda2 each have multiplicity n - 1; lambda3 and
    lambda4 are the roots of the quadratic factor (floats in the real
    regimes, a conjugate complex pair otherwise, coincident on the
    repeated-root boundary).
    """

    n: int
    lambda1: float
    lambda2: float
    lambda3: float | complex
    lambda4: float | complex

    def eigenvalues_with_multiplicity(self) -> list[tuple[float | complex, int]]:
        return [
            (self.lambda1, self.n - 1),
            (self.lambda2, self.n - 1),
            (self.lambda3, 1),
            (self.lambda4, 1),
        ]


@dataclass(frozen=True)
class BlockBasis:
    """The real block basis R, with M R = R J_R in every regime.

    w = R^-1 z holds the deviations x_{i+1} - b.x (i = 1..n-1), then
    y_{i+1} - a.y, then the aggregates b.x and a.y: R's columns are
    e_{i+1} - (b_{i+1}/b_1) e_1 in the x block (likewise with a in the
    y block), (1_n, 0) and (0, 1_n).  J_R scales the deviations by
    ``rates`` (1-alpha, then 1-beta) and maps the aggregate pair by
    ``A``.  ``apply`` and ``solve`` act over the last axis, with any
    leading batch axes, in O(n) per row.
    """

    a: np.ndarray
    b: np.ndarray
    rates: np.ndarray
    A: np.ndarray

    def apply(self, W: np.ndarray) -> np.ndarray:
        """z = R w for each w on the last axis of W."""
        n = len(self.a)
        Z = np.empty(W.shape)
        for k, w in enumerate((self.b, self.a)):
            dev, agg = W[..., k * (n - 1):(k + 1) * (n - 1)], W[..., 2 * n - 2 + k]
            np.add(dev, agg[..., None], out=Z[..., k * n + 1:(k + 1) * n])
            Z[..., k * n] = agg - dev @ (w[1:] / w[0])
        return Z

    def solve(self, Z: np.ndarray, transpose: bool = False) -> np.ndarray:
        """w = R^-1 z for each z on the last axis of Z; Z @ R^-1 with
        ``transpose``, which sums the rows (e_{i+1} - w, 0) and (w, 0)."""
        n = len(self.a)
        W = np.empty(Z.shape)
        for k, w in enumerate((self.b, self.a)):
            dev, half = slice(k * (n - 1), (k + 1) * (n - 1)), slice(k * n, (k + 1) * n)
            if transpose:
                agg = Z[..., 2 * n - 2 + k, None] - Z[..., dev].sum(axis=-1, keepdims=True)
                np.multiply(agg, w, out=W[..., half])
                W[..., k * n + 1:(k + 1) * n] += Z[..., dev]
            else:
                agg = W[..., 2 * n - 2 + k, None]
                np.matmul(Z[..., half], w, out=agg[..., 0])
                np.subtract(Z[..., half][..., 1:], agg, out=W[..., dev])
        return W


@dataclass(frozen=True)
class SpectralDecomposition:
    """Regime, eigenvalues, Jordan block layout, the block basis R (in
    every regime), and (when the matrix is diagonalizable, n >= 2 and
    alpha*beta != 0) the paper's basis Q and its closed-form inverse;
    ``diag`` is the gate to them.

    ``blocks`` lists (eigenvalue, block size) pairs in basis-column
    order; ``None`` in the complex regime where no real normal form is
    constructed.  tau_minus, tau_plus, and tau_tilde are the reported
    inverse-gap scalars 2/(beta - alpha -+ sqrt(Delta)) and
    alpha*(tau_minus - tau_plus); they are populated whenever Delta > 0
    and both denominators are nonzero.
    """

    regime: Regime
    boundaries: RegimeBoundaries
    eig: EigenStructure
    blocks: tuple[tuple[float, int], ...] | None
    R: BlockBasis
    Q: np.ndarray | None
    Qinv: np.ndarray | None
    tau_minus: float | None
    tau_plus: float | None
    tau_tilde: float | None

    @property
    def diag(self) -> np.ndarray:
        """Diagonal d of the normal form, so that M Q = Q diag(d): lambda1
        n-1 times, lambda3, lambda2 n-1 times, lambda4.

        The one gate for every computation that uses Q: raises
        WrongRegime whenever Q is None, which covers the complex and
        repeated-root regimes, n < 2 and alpha*beta == 0.
        """
        eig = self.eig
        if self.Q is None:
            raise WrongRegime(f"no explicit basis in regime {self.regime.value} with n={eig.n}: "
                              "it needs diagonalizable_real, n >= 2 and alpha*beta != 0")
        return np.repeat([eig.lambda1, eig.lambda3, eig.lambda2, eig.lambda4],
                         [eig.n - 1, 1, eig.n - 1, 1])


def _trichotomy(delta: float, alpha: float, beta: float) -> int:
    """Sign of the discriminant under the scale-relative boundary tolerance:
    -1 complex pair, 0 repeated root, +1 distinct real pair."""
    scale = max(1.0, alpha * alpha + beta * beta)
    if abs(delta) <= BOUNDARY_TOL * scale:
        return 0
    return -1 if delta < 0 else 1


def classify_regime(alpha: float, beta: float) -> tuple[RegimeBoundaries, Regime]:
    """Locate (alpha, beta) relative to the discriminant boundaries.

    The repeated-root regime is detected by |Delta| <= BOUNDARY_TOL *
    max(1, alpha^2 + beta^2); the scale-relative comparison avoids false
    boundary hits for large parameters.
    """
    delta = alpha * alpha + beta * beta - 6.0 * alpha * beta
    sq8 = 2.0 * np.sqrt(2.0)
    boundaries = RegimeBoundaries(d1=(3.0 - sq8) * beta, d2=(3.0 + sq8) * beta, delta=delta)
    sign = _trichotomy(delta, alpha, beta)
    regime = {
        -1: Regime.COMPLEX_CONJUGATE,
        0: Regime.REPEATED_ROOT_JORDAN,
        1: Regime.DIAGONALIZABLE_REAL,
    }[sign]
    return boundaries, regime


def characteristic_polynomial_eval(params: ModelParams, lam: float) -> float:
    """Evaluate the factored characteristic polynomial at ``lam``."""
    alpha, beta, n = params.alpha, params.beta, params.n
    g = (lam - 1.0) ** 2 + (lam - 1.0) * (alpha + beta) + 2.0 * alpha * beta
    return (lam - 1.0 + beta) ** (n - 1) * (lam - 1.0 + alpha) ** (n - 1) * g


def _basis(params: ModelParams, lam3: float, lam4: float, gap: float) -> np.ndarray:
    """V = [[1, 1], [c3, c4]], the eigenvectors of the aggregate map A
    for the quadratic roots lambda3 and lambda4.

    c = (lam - lambda1)/alpha solves the top row (1-alpha) + alpha*c =
    lam, and g(lam) = 0 makes the bottom row hold too.  For the root
    within O(alpha) of lambda1 (lambda3 when beta > alpha, else lambda4)
    lam - lambda1 cancels, so that scalar is taken as
    -beta/(lam - lambda2) = -beta*tau, tau = 2/(beta - alpha +- gap).
    """
    alpha, beta = params.alpha, params.beta
    c3, c4 = ((lam - (1.0 - alpha)) / alpha for lam in (lam3, lam4))
    if beta > alpha:
        c3 = -beta * (2.0 / (beta - alpha + gap))
    else:
        c4 = -beta * (2.0 / (beta - alpha - gap))
    return np.array([[1.0, 1.0], [c3, c4]])


def _eigenbasis(R: BlockBasis, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q = R blockdiag(I, V) and Q^-1 = blockdiag(I, V^-1) R^-1 as dense
    arrays, with Q's columns in the order of ``diag``: the x deviations,
    lambda3's column, the y deviations, lambda4's column."""
    n, m = len(R.a), 2 * len(R.a)
    pos = np.r_[0:n - 1, n:m - 1, n - 1, m - 1]  # where each of R's columns sits in Q
    QT, Qinv = np.empty((m, m)), np.empty((m, m))
    for lo in range(0, m, 128):  # unit rows a block at a time: no third m x m array
        E = np.eye(min(128, m - lo), m, lo)
        QT[pos[lo:lo + 128]] = R.apply(E)
        Qinv[pos[lo:lo + 128]] = R.solve(E, transpose=True)
    mixed, (c3, c4) = [n - 1, m - 1], V[1]
    QT[mixed] = V.T @ QT[mixed]
    Qinv[mixed] = np.array([[c4, -1.0], [-c3, 1.0]]) @ Qinv[mixed] / (c4 - c3)
    return QT.T, Qinv


def decompose(params: ModelParams) -> SpectralDecomposition:
    """Classify the regime and build every artifact available in it.

    The quadratic-factor roots are 1 - (alpha + beta)/2 +- sqrt(Delta)/2:
    real when Delta > 0, a conjugate pair with imaginary part
    sqrt(|Delta|)/2 when Delta < 0, and one double root on the boundary,
    which carries a single 2-block.  The blocks follow Q's column order,
    (n-1) 1-blocks of lambda1, lambda3's, (n-1) of lambda2, lambda4's;
    there are none in the complex regime.  R is built in every regime;
    Q and its inverse only in the diagonalizable regime with n >= 2 and
    alpha*beta != 0, elsewhere they are None.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    boundaries, regime = classify_regime(alpha, beta)
    lam1, lam2 = 1.0 - alpha, 1.0 - beta
    mid = 1.0 - (alpha + beta) / 2.0
    half = np.sqrt(abs(boundaries.delta)) / 2.0
    R = BlockBasis(a=params.a, b=params.b, rates=np.repeat([lam1, lam2], n - 1),
                   A=np.array([[lam1, alpha], [-beta, lam2]]))
    Q = Qinv = blocks = None
    tau_minus = tau_plus = tau_tilde = None
    if regime is Regime.COMPLEX_CONJUGATE:
        lam3: float | complex = complex(mid, half)
        lam4: float | complex = complex(mid, -half)
    elif regime is Regime.REPEATED_ROOT_JORDAN:
        lam3 = lam4 = mid
        blocks = ((lam1, 1),) * (n - 1) + ((lam2, 1),) * (n - 1) + ((mid, 2),)
    else:
        lam3, lam4 = mid + half, mid - half
        blocks = (((lam1, 1),) * (n - 1) + ((float(lam3), 1),)
                  + ((lam2, 1),) * (n - 1) + ((float(lam4), 1),))
        gap = np.sqrt(boundaries.delta)
        den_minus, den_plus = beta - alpha - gap, beta - alpha + gap
        if den_minus != 0.0 and den_plus != 0.0:
            tau_minus, tau_plus = 2.0 / den_minus, 2.0 / den_plus
            tau_tilde = alpha * (tau_minus - tau_plus)
        if n >= 2 and alpha != 0.0 and beta != 0.0:
            Q, Qinv = _eigenbasis(R, _basis(params, lam3, lam4, gap))

    return SpectralDecomposition(
        regime=regime,
        boundaries=boundaries,
        eig=EigenStructure(n=n, lambda1=lam1, lambda2=lam2, lambda3=lam3, lambda4=lam4),
        blocks=blocks,
        R=R,
        Q=Q,
        Qinv=Qinv,
        tau_minus=tau_minus,
        tau_plus=tau_plus,
        tau_tilde=tau_tilde,
    )


@dataclass(frozen=True)
class DecompositionCheck:
    """Max-norm residuals of the three decomposition identities.

    Failures are data, not exceptions: ``passed`` is False when any
    residual exceeds its threshold.
    """

    residual_mq_qj: float
    residual_qqinv: float
    residual_similarity: float
    threshold_mq_qj: float
    threshold_qqinv: float
    passed: bool


def _times_nonzeros(A: np.ndarray, rows: np.ndarray, cols: np.ndarray, X: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """out = A @ X, where (rows, cols) are the nonzeros of A sorted by row.

    Row i sums over the nonzeros of row i only, so the cost is
    O(nnz(A) * width).  A row that is at least half nonzero is multiplied
    whole, which is no more work than gathering its rows of X.
    """
    bounds = np.searchsorted(rows, np.arange(A.shape[0] + 1)).tolist()
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if 2 * (hi - lo) < A.shape[1]:
            np.matmul(A[i, cols[lo:hi]], X[cols[lo:hi]], out=out[i])
        else:
            np.matmul(A[i], X, out=out[i])
    return out


def verify_decomposition(
    M: TransitionMatrix,
    d: np.ndarray,
    Q: np.ndarray,
    Qinv: np.ndarray,
) -> DecompositionCheck:
    """Measure ||MQ - QJ||, ||QQ^-1 - I||, and ||Q^-1 M Q - J|| in max norm,
    where J = diag(d) is the diagonal normal form.

    Every entry of each residual is computed, in O(n^2): MQ and Q^-1 M
    come from M's diagonal-plus-rank-two form, and the products with Q
    run over the nonzeros of the array Q passed in, so any perturbed
    entry of Q, structural zero or not, still counts.  J only ever
    scales columns.  The MQ - QJ and similarity residuals are compared
    against RESIDUAL_TOL * ||M||_max, the inverse residual against
    RESIDUAL_TOL directly.
    """
    if M.shape[0] < 4:
        raise DimensionMismatch("decomposition checks require n >= 2 (matrix at least 4 x 4)")
    # bitwise the dense max|M|: each entry of M is one entry of s or V, or 0
    m_scale = float(max(np.max(np.abs(M.s)), np.max(np.abs(M.V))))
    rows, cols = np.nonzero(Q)
    by_col = np.argsort(cols, kind="stable")
    on_diag = np.diag_indices_from(Q)
    # MQ = (Q^T M^T)^T, and the similarity residual is formed transposed so
    # that the products over the nonzeros read rows (the max norm is the
    # same); subtracting on the diagonal alone equals subtracting diag(d) or I
    R = M.apply(Q.T).T  # MQ
    R -= Q * d
    r1 = float(np.max(np.abs(R, out=R)))
    _times_nonzeros(Q, rows, cols, Qinv, out=R)
    R[on_diag] -= 1.0
    r2 = float(np.max(np.abs(R, out=R)))
    del R  # at most two m x m arrays are alive at any time
    S = M.apply(Qinv, transpose=True)  # Q^-1 M
    QinvM_T = np.ascontiguousarray(S.T)
    _times_nonzeros(Q.T, cols[by_col], rows[by_col], QinvM_T, out=S)  # (Q^-1 M Q)^T
    S[on_diag] -= d
    r3 = float(np.max(np.abs(S, out=S)))
    threshold = RESIDUAL_TOL * m_scale
    passed = (r1 < threshold) and (r2 < RESIDUAL_TOL) and (r3 < threshold)
    return DecompositionCheck(
        residual_mq_qj=r1,
        residual_qqinv=r2,
        residual_similarity=r3,
        threshold_mq_qj=threshold,
        threshold_qqinv=RESIDUAL_TOL,
        passed=passed,
    )


def verify_block_basis(M: TransitionMatrix, R: BlockBasis) -> tuple[float, float, bool]:
    """Freivalds (1977) probe residuals max|M(RX) - R(J_R X)| and
    max|R(R^-1 X) - X| on a fixed-seed standard-normal X of PROBE_WIDTH
    rows, through the O(n) operators, and whether they are below
    RESIDUAL_TOL * max|M| * max|X| and RESIDUAL_TOL * max|X|."""
    X = np.random.default_rng(PROBE_SEED).standard_normal((PROBE_WIDTH, M.shape[0]))
    x_scale = float(np.max(np.abs(X)))
    m_scale = float(max(np.max(np.abs(M.s)), np.max(np.abs(M.V))))
    JX = np.concatenate([X[:, :-2] * R.rates, X[:, -2:] @ R.A.T], axis=1)
    r1 = float(np.max(np.abs(M.apply(R.apply(X)) - R.apply(JX))))
    r2 = float(np.max(np.abs(R.apply(R.solve(X)) - X)))
    return r1, r2, r1 < RESIDUAL_TOL * m_scale * x_scale and r2 < RESIDUAL_TOL * x_scale
