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

The basis column for a simple root lam of g is (1_n, c * 1_n) with
c = (lam - lam1) / alpha, which solves both block rows of the eigen
equation because g(lam) = 0.  Q and Q^-1 come from the same two
projections, x = x_perp + (b.x) 1 and y = y_perp + (a.y) 1: the dual
rows e_{i+1} - b and e_{i+1} - a read off the deviation coordinates,
and a 2x2 inverse over the two quadratic roots mixes the aggregates
(b.x, a.y).  Both are written in closed form, never by a dense solver.
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
class SpectralDecomposition:
    """Regime, eigenvalues, Jordan block layout, and (when the matrix is
    diagonalizable, n >= 2 and alpha*beta != 0) the explicit basis Q and
    its closed-form inverse; ``diag`` is the gate to them.

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
    Q: np.ndarray | None
    Qinv: np.ndarray | None
    tau_minus: float | None
    tau_plus: float | None
    tau_tilde: float | None

    @property
    def n(self) -> int:
        return self.eig.n

    @property
    def diag(self) -> np.ndarray:
        """Diagonal d of the normal form, so that M Q = Q diag(d).

        The one gate for every computation that uses the explicit basis:
        raises WrongRegime whenever Q is None, which covers the complex
        and repeated-root regimes, n < 2 and alpha*beta == 0.
        """
        if self.Q is None:
            raise WrongRegime(f"no explicit basis in regime {self.regime.value} with n={self.n}: "
                              "it needs diagonalizable_real, n >= 2 and alpha*beta != 0")
        return jordan_diag(self.eig)


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


def eigen_structure(
    params: ModelParams, boundaries: RegimeBoundaries, regime: Regime
) -> EigenStructure:
    """Eigenvalues in the given regime.

    The quadratic-factor roots are 1 - (alpha + beta)/2 +- sqrt(Delta)/2,
    real when Delta >= 0 and a conjugate pair with imaginary part
    sqrt(|Delta|)/2 otherwise; on the boundary they coincide at
    1 - (alpha + beta)/2.
    """
    alpha, beta = params.alpha, params.beta
    lam1, lam2 = 1.0 - alpha, 1.0 - beta
    mid = 1.0 - (alpha + beta) / 2.0
    if regime is Regime.COMPLEX_CONJUGATE:
        half = np.sqrt(abs(boundaries.delta)) / 2.0
        lam3: float | complex = complex(mid, half)
        lam4: float | complex = complex(mid, -half)
    elif regime is Regime.REPEATED_ROOT_JORDAN:
        lam3 = lam4 = mid
    else:
        half = np.sqrt(boundaries.delta) / 2.0
        lam3, lam4 = mid + half, mid - half
    return EigenStructure(n=params.n, lambda1=lam1, lambda2=lam2, lambda3=lam3, lambda4=lam4)


def jordan_blocks(eig: EigenStructure, regime: Regime) -> tuple[tuple[float, int], ...] | None:
    """Block layout of the real normal form, or None in the complex regime.

    Diagonalizable: (n-1) 1-blocks of lambda1, one of lambda3, (n-1) of
    lambda2, one of lambda4 — matching the basis column order.  On the
    boundary: the lambda1 and lambda2 blocks followed by a single
    2-block at the double root.
    """
    if regime is Regime.COMPLEX_CONJUGATE:
        return None
    n = eig.n
    if regime is Regime.REPEATED_ROOT_JORDAN:
        blocks = [(eig.lambda1, 1)] * (n - 1) + [(eig.lambda2, 1)] * (n - 1)
        blocks.append((float(np.real(eig.lambda3)), 2))
        return tuple(blocks)
    blocks = [(eig.lambda1, 1)] * (n - 1) + [(float(np.real(eig.lambda3)), 1)]
    blocks += [(eig.lambda2, 1)] * (n - 1) + [(float(np.real(eig.lambda4)), 1)]
    return tuple(blocks)


def jordan_diag(eig: EigenStructure) -> np.ndarray:
    """Diagonal vector of the normal form in the diagonalizable regime."""
    n = eig.n
    return np.concatenate([
        np.full(n - 1, eig.lambda1),
        [float(np.real(eig.lambda3))],
        np.full(n - 1, eig.lambda2),
        [float(np.real(eig.lambda4))],
    ])


def _basis(params: ModelParams, eig: EigenStructure,
           gap: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonalizing basis Q and its inverse, both in closed form.

    Callers guarantee the diagonalizable regime, n >= 2 and
    alpha*beta != 0.  Each half of the state splits as
    x = x_perp + (b.x) 1 and y = y_perp + (a.y) 1.  Columns 1..n-1 of Q
    span the lambda1 deviations, (-b_{i+1}/b_1, e_i, 0_n), and rows
    1..n-1 of Q^-1 read them off as (e_{i+1} - b, 0); columns and rows
    n+1..2n-1 do the same for lambda2 with a.  Columns n and 2n carry
    the aggregates, (1_n, c*1_n) with c = (lam - lambda1)/alpha for the
    quadratic roots lambda3 and lambda4, the scalar that solves the top
    block row (1-alpha) + alpha*c = lam (g(lam) = 0 makes the bottom row
    hold too).  Rows n and 2n of Q^-1 invert that 2x2 mixing: with
    b.x = w3 + w4 and a.y = c3 w3 + c4 w4, row 2n reads
    w4 = (-c3 b.x + a.y)/mix and row n reads w3 = b.x - w4, that is
    (c4 b, -a)/mix, where mix = c4 - c3.
    For the root within O(alpha) of lambda1 (lambda3 when beta > alpha,
    else lambda4) lam - lambda1 cancels, so that scalar is taken as
    -beta/(lam - lambda2) = -beta*tau, tau = 2/(beta - alpha +- gap).
    """
    n, a, b, alpha, beta = params.n, params.a, params.b, params.alpha, params.beta
    c3, c4 = ((float(np.real(lam)) - eig.lambda1) / alpha for lam in (eig.lambda3, eig.lambda4))
    if beta > alpha:
        c3 = -beta * (2.0 / (beta - alpha + gap))
    else:
        c4 = -beta * (2.0 / (beta - alpha - gap))
    mix = c4 - c3  # -sqrt(Delta)/alpha, nonzero off the repeated-root boundary
    m = 2 * n
    Q = np.zeros((m, m))
    Qinv = np.zeros((m, m))
    k = np.arange(n - 1)
    for top, w in ((0, b), (n, a)):
        Q[top, top + k] = -w[1:] / w[0]
        Q[top + 1 + k, top + k] = 1.0
        Qinv[top + k, top:top + n] = -w
        Qinv[top + k, top + 1 + k] += 1.0
    Q[:n, [n - 1, m - 1]] = 1.0
    Q[n:, n - 1] = c3
    Q[n:, m - 1] = c4
    Qinv[m - 1, :n] = (-c3 / mix) * b
    Qinv[m - 1, n:] = a / mix
    Qinv[n - 1, :n] = b - Qinv[m - 1, :n]
    Qinv[n - 1, n:] = -Qinv[m - 1, n:]
    return Q, Qinv


def decompose(params: ModelParams) -> SpectralDecomposition:
    """Classify the regime and build every artifact available in it.

    Q and its inverse are populated only in the diagonalizable regime
    with n >= 2 and alpha*beta != 0; elsewhere they are None and the
    eigenvalue report still stands.
    """
    boundaries, regime = classify_regime(params.alpha, params.beta)
    eig = eigen_structure(params, boundaries, regime)
    blocks = jordan_blocks(eig, regime)

    Q = Qinv = None
    tau_minus = tau_plus = tau_tilde = None
    if regime is Regime.DIAGONALIZABLE_REAL:
        gap = np.sqrt(boundaries.delta)
        den_minus = params.beta - params.alpha - gap
        den_plus = params.beta - params.alpha + gap
        if den_minus != 0.0 and den_plus != 0.0:
            tau_minus = 2.0 / den_minus
            tau_plus = 2.0 / den_plus
            tau_tilde = params.alpha * (tau_minus - tau_plus)
        if params.n >= 2 and params.alpha != 0.0 and params.beta != 0.0:
            Q, Qinv = _basis(params, eig, gap)

    return SpectralDecomposition(
        regime=regime,
        boundaries=boundaries,
        eig=eig,
        blocks=blocks,
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
