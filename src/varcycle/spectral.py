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
  with an explicit basis Q and inverse built here wherever the two
  roots differ in floating point.
* Delta = 0 — lam3 is a double root carrying a single 2 x 2 Jordan
  block; only the block structure is reported (no explicit basis).

One real block basis R serves every regime: its columns span the
deviations from the weighted aggregates, x = x_perp + (b.x) 1 and
y = y_perp + (a.y) 1, plus the two aggregate directions, so
M R = R J_R with the scalar rates 1 - alpha and 1 - beta on the
deviations and the 2x2 aggregate map A = [[1-alpha, alpha],
[-beta, 1-beta]].  R pivots each block on its largest weight, and R and
R^-1 apply in O(n) with no root of g and no division by alpha.  Where M
is diagonalizable the paper's basis is Q = R blockdiag(I, V), with V the
eigenvectors of A: only a 2x2 matrix depends on the regime.  One exact
O(n) check, verify_decomposition, judges both R and Q.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NonFiniteResult, ParameterError, WrongRegime
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
        """The eigenvalues and their multiplicities, leaving out lambda1 and
        lambda2 at n = 1, where they are not eigenvalues."""
        return [(v, m) for v, m in ((self.lambda1, self.n - 1), (self.lambda2, self.n - 1),
                                    (self.lambda3, 1), (self.lambda4, 1)) if m]


@dataclass(frozen=True)
class BlockBasis:
    """The real block basis R, with M R = R J_R in every regime.

    Each block pivots on its largest weight, ``pivots`` = (argmax b,
    argmax a), the first on ties.  w = R^-1 z holds x_q - b.x for the
    agents q other than the x pivot p, in order, then y_q - a.y likewise,
    then b.x and a.y: R's columns are e_q - (b_q/b_p) e_p (likewise with
    a), (1_n, 0) and (0, 1_n), so every multiplier is at most 1 (Higham
    2002, ch. 9).  J_R scales the deviations by ``rates`` (1-alpha, then
    1-beta) and maps the aggregate pair by ``A``.  ``apply`` and
    ``solve`` act over the last axis, with any leading batch axes, in
    O(n) per row.
    """

    a: np.ndarray
    b: np.ndarray
    rates: np.ndarray
    A: np.ndarray
    pivots: tuple[int, int]

    def apply(self, W: np.ndarray) -> np.ndarray:
        """z = R w for each w on the last axis of W."""
        n = len(self.a)
        Z = np.empty(W.shape)
        for k, (w, p) in enumerate(zip((self.b, self.a), self.pivots)):
            dev, agg = W[..., k * (n - 1):(k + 1) * (n - 1)], W[..., 2 * n - 2 + k]
            np.add(dev[..., :p], agg[..., None], out=Z[..., k * n:k * n + p])
            np.add(dev[..., p:], agg[..., None], out=Z[..., k * n + p + 1:(k + 1) * n])
            Z[..., k * n + p] = agg - dev @ (np.delete(w, p) / w[p])
        return Z

    def solve(self, Z: np.ndarray) -> np.ndarray:
        """w = R^-1 z for each z on the last axis of Z."""
        n = len(self.a)
        W = np.empty(Z.shape)
        for k, (w, p) in enumerate(zip((self.b, self.a), self.pivots)):
            half, dev = Z[..., k * n:(k + 1) * n], W[..., k * (n - 1):(k + 1) * (n - 1)]
            agg = W[..., 2 * n - 2 + k, None]
            np.matmul(half, w, out=agg[..., 0])
            np.subtract(half[..., :p], agg, out=dev[..., :p])
            np.subtract(half[..., p + 1:], agg, out=dev[..., p:])
        return W


def apply_blockdiag(r: np.ndarray, F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """blockdiag(diag(r), F) w for each w on the last axis of W, in R's
    coordinate order: the deviations scaled entrywise by r, the aggregate
    pair mapped by the 2x2 F.  With R's ``rates`` and ``A`` this is J_R."""
    return np.concatenate([W[..., :-2] * r, W[..., -2:] @ F.T], axis=-1)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Regime, eigenvalues, Jordan block layout, the block basis R (in
    every regime), and (when the matrix is diagonalizable with lambda3 !=
    lambda4, n = 1 and alpha*beta = 0 included) the eigenvectors V of the
    aggregate map, each of max-norm 1, from which the paper's basis Q (its
    aggregate entries at most 1 in magnitude) and its inverse are built on
    first read; both are None where V is.

    ``blocks`` lists runs (eigenvalue, block size, count) of equal Jordan
    blocks in basis-column order, at most four; ``None`` in the complex
    regime where no real normal form is constructed.  tau_minus,
    tau_plus, and tau_tilde are the reported inverse-gap scalars
    2/(beta - alpha -+ sqrt(Delta)) and alpha*(tau_minus - tau_plus); they
    are populated whenever Delta > 0, alpha*beta != 0 and both
    denominators are nonzero.
    """

    regime: Regime
    boundaries: RegimeBoundaries
    eig: EigenStructure
    blocks: tuple[tuple[float, int, int], ...] | None
    R: BlockBasis
    V: np.ndarray | None
    tau_minus: float | None
    tau_plus: float | None
    tau_tilde: float | None

    @cached_property
    def Q(self) -> np.ndarray | None:
        """Q = R blockdiag(I, V) in the column order of ``diag``, or None
        where V is: the rows of R^T moved to Q's column order, the
        aggregate pair mixed by V^T, then transposed."""
        if self.V is None:
            return None
        return _eigen_order(self.R.apply(np.eye(2 * self.eig.n)), self.V.T).T

    @cached_property
    def Qinv(self) -> np.ndarray | None:
        """Q^-1 = P blockdiag(I, V^-1) R^-1, the eigen coordinates of R^-1,
        or None where V is."""
        if self.V is None:
            return None
        return eigen_coordinates(self.V, self.R.solve(np.eye(2 * self.eig.n)).T)

    @property
    def diag(self) -> np.ndarray:
        """Diagonal d of the normal form, so that M Q = Q diag(d): lambda1
        n-1 times, lambda3, lambda2 n-1 times, lambda4.

        A view for callers and tests: nothing in the package reads it, and
        code that needs Q tests ``V is None``.  Raises WrongRegime wherever
        Q is None: in the complex and repeated-root regimes and at the
        diagonalizable points whose two quadratic roots round to one value.
        """
        eig = self.eig
        if self.V is None:
            raise WrongRegime(f"no explicit basis in regime {self.regime.value}: it needs "
                              "diagonalizable_real with two distinct quadratic roots")
        return _eigen_order(np.r_[self.R.rates, eig.lambda3, eig.lambda4])


def _quadratic(alpha: float, beta: float) -> tuple[RegimeBoundaries, Regime,
                                                   float | complex, float | complex]:
    """The boundaries with Delta, the regime and the roots lambda3,
    lambda4 of the quadratic factor g: the one place where g is solved,
    for the vector model and the induced cycle alike.

    The roots are 1 - (alpha + beta)/2 +- sqrt(Delta)/2: a conjugate pair
    when Delta < 0, one double root when |Delta| <= BOUNDARY_TOL *
    max(1, alpha^2 + beta^2) (the scale-relative comparison avoids false
    boundary hits for large parameters), and two real roots, the larger
    first, otherwise.  Where alpha or beta is 0, g is exactly (lam - 1)(lam
    - 1 + alpha + beta), with the distinct roots 1 and 1 - alpha - beta
    however small Delta = (alpha - beta)^2 is.  NonFiniteResult where
    Delta is NaN (inf - inf); an infinite Delta takes the real path.
    """
    delta = alpha * alpha + beta * beta - 6.0 * alpha * beta
    if math.isnan(delta):
        raise NonFiniteResult(f"the discriminant is NaN at (alpha, beta) = ({alpha}, {beta})")
    sq8 = 2.0 * math.sqrt(2.0)
    bounds = RegimeBoundaries(d1=(3.0 - sq8) * beta, d2=(3.0 + sq8) * beta, delta=delta)
    if alpha == 0.0 or beta == 0.0:
        other = 1.0 - alpha - beta
        return bounds, Regime.DIAGONALIZABLE_REAL, max(1.0, other), min(1.0, other)
    mid, half = 1.0 - (alpha + beta) / 2.0, math.sqrt(abs(delta)) / 2.0
    if abs(delta) <= BOUNDARY_TOL * max(1.0, alpha * alpha + beta * beta):
        return bounds, Regime.REPEATED_ROOT_JORDAN, mid, mid
    if delta < 0:
        return bounds, Regime.COMPLEX_CONJUGATE, complex(mid, half), complex(mid, -half)
    return bounds, Regime.DIAGONALIZABLE_REAL, mid + half, mid - half


def classify_regime(alpha: float, beta: float) -> tuple[RegimeBoundaries, Regime]:
    """Locate (alpha, beta) relative to the discriminant boundaries: the
    boundaries, Delta and the regime of the quadratic factor's roots."""
    boundaries, regime, _, _ = _quadratic(alpha, beta)
    return boundaries, regime


def characteristic_polynomial_eval(params: ModelParams, lam: float) -> float:
    """Evaluate the factored characteristic polynomial at ``lam``."""
    alpha, beta, n = params.alpha, params.beta, params.n
    g = (lam - 1.0) ** 2 + (lam - 1.0) * (alpha + beta) + 2.0 * alpha * beta
    return (lam - 1.0 + beta) ** (n - 1) * (lam - 1.0 + alpha) ** (n - 1) * g


def _basis(A: np.ndarray, lam3: float, lam4: float) -> np.ndarray:
    """V, the eigenvectors of the aggregate map A for the quadratic roots
    lambda3 and lambda4 as columns, each scaled to max-norm 1.

    (A - lam I) v = 0 holds for v = (alpha, lam - lambda1), from A's top
    row, and for v = (lambda2 - lam, beta), from its bottom row.  Each
    column takes the form of larger 1-norm: neither divides, and the
    larger one does not cancel (Higham 2002, ch. 1).
    """
    cols = []
    for lam in (lam3, lam4):
        forms = np.array([[A[0, 1], lam - A[0, 0]], [A[1, 1] - lam, -A[1, 0]]])
        v = forms[np.argmax(np.abs(forms).sum(axis=1))]
        cols.append(v / np.max(np.abs(v)))
    return np.array(cols).T


def _eigen_order(W: np.ndarray, F: np.ndarray | None = None, det: float = 1.0) -> np.ndarray:
    """The rows of W, given in R's coordinate order, moved to Q's column
    order: the x deviations, lambda3's row, the y deviations, lambda4's row
    (the order of ``diag``).  With a 2x2 F the aggregate pair of rows
    becomes F @ pair / det; without one it stays as it is."""
    n = W.shape[0] // 2
    pos = np.r_[0:n - 1, n:2 * n - 1, n - 1, 2 * n - 1]
    out = np.empty(W.shape)
    out[pos] = W
    if F is not None:
        out[pos[-2:]] = F @ out[pos[-2:]] / det
    return out


def eigen_coordinates(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Q^-1 R W = P blockdiag(I, V^-1) W for a 2n-row W in R's coordinate
    order: the aggregate pair of rows mixed by V^-1 = adj(V) / det(V), and
    every row moved to its place in Q's column order (P)."""
    (a, b), (c, d) = V
    return _eigen_order(W, np.array([[d, -b], [-c, a]]), a * d - b * c)


def _runs(*runs: tuple[float, int, int]) -> tuple[tuple[float, int, int], ...]:
    """The runs (eigenvalue, block size, count) that hold a block: n = 1
    leaves the deviation runs empty."""
    return tuple(run for run in runs if run[2] > 0)


def decompose(params: ModelParams) -> SpectralDecomposition:
    """Classify the regime and build every artifact available in it.

    The quadratic-factor roots come from ``_quadratic``; the double root
    on the boundary carries a single 2-block.  The blocks follow Q's
    column order, (n-1) 1-blocks of lambda1, lambda3's, (n-1) of lambda2,
    lambda4's, listed as runs (eigenvalue, size, count) without empty
    runs; there are none in the complex regime.  R is built in every
    regime; V (and so Q and its inverse) wherever the regime is
    diagonalizable and lambda3 != lambda4, which includes n = 1,
    alpha*beta = 0 and a subnormal alpha; elsewhere it is None.  The
    roots can coincide in that regime: at alpha = 0 and |beta| below
    about 1.1e-16, 1 - beta rounds to 1 and V would be singular.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    boundaries, regime, lam3, lam4 = _quadratic(alpha, beta)
    lam1, lam2 = 1.0 - alpha, 1.0 - beta
    R = BlockBasis(a=params.a, b=params.b, rates=np.repeat([lam1, lam2], n - 1),
                   A=np.array([[lam1, alpha], [-beta, lam2]]),
                   pivots=(int(np.argmax(params.b)), int(np.argmax(params.a))))
    V = blocks = None
    tau_minus = tau_plus = tau_tilde = None
    if regime is Regime.REPEATED_ROOT_JORDAN:
        blocks = _runs((lam1, 1, n - 1), (lam2, 1, n - 1), (lam3, 2, 1))
    elif regime is Regime.DIAGONALIZABLE_REAL:
        blocks = _runs((lam1, 1, n - 1), (lam3, 1, 1), (lam2, 1, n - 1), (lam4, 1, 1))
        gap = math.sqrt(boundaries.delta)
        den_minus, den_plus = beta - alpha - gap, beta - alpha + gap
        if alpha * beta != 0.0 and den_minus != 0.0 and den_plus != 0.0:
            tau_minus, tau_plus = 2.0 / den_minus, 2.0 / den_plus
            tau_tilde = alpha * (tau_minus - tau_plus)
        if lam3 != lam4:
            V = _basis(R.A, lam3, lam4)

    return SpectralDecomposition(
        regime=regime,
        boundaries=boundaries,
        eig=EigenStructure(n=n, lambda1=lam1, lambda2=lam2, lambda3=lam3, lambda4=lam4),
        blocks=blocks,
        R=R,
        V=V,
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


def verify_decomposition(M: TransitionMatrix, R: BlockBasis, V: np.ndarray,
                         L: np.ndarray) -> DecompositionCheck:
    """Measure ||MQ - QJ||, ||QQ^-1 - I||, and ||Q^-1 M Q - J|| in max norm
    for Q = R blockdiag(I, V), Q^-1 = blockdiag(I, V^-1) R^-1 and J =
    blockdiag(R's ``rates``, L), from the factors alone, in O(n) time and
    memory: no m x m array.  The paper's basis passes its V and L =
    diag(lambda3, lambda4); R itself passes V = I and L = R.A, so J = J_R.

    M is diag(s) plus, in every row of its x block (y block), column 0 (1)
    of its factor V.  Each block is read pivot first, then its other
    agents in order, which leaves every max-norm residual as it is.  A
    deviation column of Q is then e_p - rho e_f, with f the pivot and p
    the column's own agent, so each deviation column of a residual takes
    one value at the pivot, one at its own agent and one on the other
    agents of each block; the two aggregate columns are computed whole.
    Every entry is computed, so a perturbed factor counts as it would in
    the dense products.  V^-1 is V's exact inverse, so QQ^-1 - I is R's
    own rounding, and 1 - sum(w) is correctly rounded.  The 2x2
    aggregate block is exact only in its last step: ``agg`` is summed in
    floating point, and near d1 and d2 |V^-1| amplifies that rounding, so
    there the similarity residual can be the check's rounding more than
    the factors' (3.2e-15 against the exact 3.1e-14 at n = 3, alpha =
    0.12010089257665411, beta = 0.7, a = b = (0.5, 0.2, 0.3)).  A
    non-finite aggregate block is an infinite residual.  The
    MQ - QJ and similarity residuals are compared against RESIDUAL_TOL *
    ||M||_max, the inverse residual against RESIDUAL_TOL directly.
    ParameterError where V is singular.
    """
    n = M.n
    # bitwise the dense max|M|: each entry of M is one entry of s or V, or 0
    m_scale = float(max(np.max(np.abs(M.s)), np.max(np.abs(M.V))))
    L = np.asarray(L, dtype=float)
    # V^-1 exactly, so that V V^-1 = I: rational arithmetic on 2x2 values
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in V.tolist()]
    det = a * d - b * c
    if det == 0:
        raise ParameterError(f"V is singular: {V.tolist()}")
    Vinv_x = [[d / det, -b / det], [-c / det, a / det]]
    Vinv = np.array(Vinv_x, dtype=float)
    s, F, weights = M.s, M.V, (R.b, R.a)  # R's x block pivots on b, its y block on a
    # overflow near the float limit leaves a non-finite residual, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        # 1 - sum(w), correctly rounded: it is of the size of the residuals it enters
        gaps = np.array([math.fsum(np.r_[1.0, -w].tolist()) for w in weights])
        # S[g, k]: the rank-two part of M's block-g rows times Q's aggregate column k
        S = np.array([F[:n].sum(axis=0), F[n:].sum(axis=0)]).T @ V
        # the aggregate rows and columns of R^-1 M Q: w_g . (M Q)_g on block g
        agg = V * np.array([w @ s[g * n:(g + 1) * n] for g, w in enumerate(weights)])[:, None]
        agg += S * (1.0 - gaps)[:, None]
        # the 2x2 aggregate block V^-1 agg - L of Q^-1 M Q - J, exactly
        block = [math.inf]
        if np.all(np.isfinite(agg)) and np.all(np.isfinite(L)):
            block = [float(sum(Vinv_x[i][j] * Fraction(agg[j, k]) for j in (0, 1))
                           - Fraction(L[i, k])) for i in (0, 1) for k in (0, 1)]
        r1, r2, r3 = [], [], [np.array(block)]
        # the deviation columns, each block read pivot first: R's column order
        order = [np.r_[p, :p, p + 1:n] for p in R.pivots]
        perm = np.r_[order[0], n + order[1]]
        s, F, weights = s[perm], F[perm], (R.b[order[0]], R.a[order[1]])
        for k, w in enumerate(weights):
            f, own, other = k * n, slice(k * n + 1, (k + 1) * n), 1 - k
            sk, rho = s[f:f + n], w[1:] / w[0]
            rate = R.rates[k * (n - 1):(k + 1) * (n - 1)]
            T = F[own] - rho[:, None] * F[f]  # M's rank-two part on each deviation column
            # MQ - QJ: the deviation columns of block k (own agent, pivot, other
            # block), then the aggregate columns on block k's rows
            r1 += [T[:, k] + (s[own] - rate), T[:, k] - rho * (s[f] - rate), T[:, other],
                   np.ravel((sk[:, None] - L.diagonal()) * V[k]
                            - V[k, ::-1] * L[::-1].diagonal() + S[k])]
            # QQ^-1 - I on block k's columns: R R^-1 - I, nonzero only in the
            # pivot's row, since V V^-1 = I
            r2.append(w * (rho.sum() + 1.0) - np.r_[1.0, rho])
            # Q^-1 M Q - J: the deviation columns of block k (own row, the other
            # block's rows, the aggregate rows), then the aggregate columns on
            # block k's deviation rows, where s_p - w.s = ds_p + s_f (1 - sum(w)) - w.ds
            c = w[1:] * s[own] - rho * (w[0] * s[f])
            E = T * gaps
            K = T * (1.0 - gaps)
            K[:, k] += c
            ds = sk - sk[0]
            r3 += [s[own] - rate + E[:, k] - c, E[:, other], np.ravel(K @ Vinv.T),
                   np.ravel((ds[1:] + (sk[0] * gaps[k] - w @ ds))[:, None] * V[k]
                            + S[k] * gaps[k])]
            if n >= 3:  # agents besides the pivot and the own agent
                r1.append(T[:, k])
                r3.append(E[:, k] - c)
    r1, r2, r3 = (float(np.max(np.abs(np.concatenate(r)))) for r in (r1, r2, r3))
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

