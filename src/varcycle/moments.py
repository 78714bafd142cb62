"""Second moments: exact cross-covariances, the nonstationarity
diagnostic, limiting moments, and the Monte Carlo estimators that back
them, computed in the coordinates of the block basis R in every regime.

With G the covariance of z_0, Sigma0 the (diagonal) covariance of the
stacked shock and w = R^-1 z, the covariance of w_t steps as

    P_0 = G~,    P_{s+1} = J_R P_s J_R^T + Sigma0~,    X~ = R^-1 X R^-T,

so that P_t = J_R^t G~ (J_R^t)^T + sum_{i=0..t-1} J_R^i Sigma0~ (J_R^i)^T,
including the i = 0 innovation term of the most recent shock, as the
moving-average expansion of the explicit solution requires; both the
symbolic expansion and the Monte Carlo estimator pin this down.  The
cross-covariance of (z_{t+tau'}, z_t) is R J_R^tau' P_t R^T.  J_R scales
the deviations by their rates and maps the aggregate pair by the 2x2 A,
and R, R^-1 apply in O(n) per row, so no step needs a dense basis.
Where the paper's eigenbasis Q exists, the same results are also
reported in its coordinates, Q^-1 R P R^T Q^-T.

The lag-0 covariance depends on t whenever Sigma0 != 0 and some
eigenvalue is nonzero, which is the nonstationarity certificate the
diagnostic reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, ParameterError, RangeError
from .model import ModelParams, NoiseSpec, build_transition_matrix
from .simulate import _generator, _iterate, sample_noise_path
from .spectral import BlockBasis, SpectralDecomposition, apply_blockdiag, eigen_coordinates

#: Replications that mc_long_run simulates together; bounds the states held.
_LONG_RUN_BATCH = 64

#: Layout of the Monte Carlo draws, echoed in reports.  Version 3 draws one
#: batch for a whole covariance grid; version 2 drew one batch per grid
#: point; version 1 drew one stream per replication.
MC_STREAM_VERSION = 3


@dataclass(frozen=True)
class MomentInputs:
    """First/second-moment ingredients: covariance G of z_0, diagonal
    shock covariance Sigma0, and shock mean mu_gamma."""

    G: np.ndarray
    Sigma0: np.ndarray
    mu_gamma: np.ndarray
    n: int


@dataclass(frozen=True)
class CrossCovariance:
    """One cross-covariance matrix in the original coordinates and in
    those of the paper's basis Q (None where Q does not exist)."""

    gamma_tilde: np.ndarray | None
    gamma: np.ndarray


@dataclass(frozen=True)
class CovarianceReport:
    """Cross-covariance grids over (t, tau') plus the stationarity gap.

    The gap is the largest max-norm difference between same-lag
    covariances at different times, reported in original coordinates and
    in those of the paper's basis Q (either is nonzero exactly when the
    other is, since the basis is nonsingular).  ``gamma_tilde`` and
    ``stationarity_gap`` are None where Q does not exist.  The Monte Carlo
    counterpart of the grid is ``mc_cross_covariance``.
    """

    gamma_tilde: dict[tuple[int, int], np.ndarray] | None
    gamma: dict[tuple[int, int], np.ndarray]
    stationarity_gap: float | None
    stationarity_gap_original: float


@dataclass(frozen=True)
class LimitReport:
    """Limiting moments under the spectral-radius condition.

    ``lambda_tilde`` holds 1/(1 - lam) for lambda1 .. lambda4: complex
    for the conjugate pair, None for an eigenvalue equal to 1 (which
    happens exactly where alpha*beta == 0).
    ``resolvent_limit_cov`` applies the resolvent (I - M)^-1 =
    R (I - J_R)^-1 R^-1 to the shock on both sides; ``ma_infinity_cov``
    is the moving-average series sum_i M^i Sigma0 M^i^T in closed form:
    the solution of the Stein equation Sigma = M Sigma M^T + Sigma0,
    solved in R's coordinates block by block.
    The two differ in general; both are reported with their gap, and the
    long-run Monte Carlo oracle matches the moving-average form.
    ``truncation_terms`` is always None: no series is truncated.  Every
    field after ``spectral_radius_ok`` is None where the limits are skipped.
    """

    lambda_tilde: tuple[float | complex | None, ...]
    spectral_radius_ok: bool
    limiting_mean: np.ndarray | None = None
    resolvent_limit_cov: np.ndarray | None = None
    ma_infinity_cov: np.ndarray | None = None
    truncation_terms: int | None = None
    covariance_discrepancy: float | None = None


@dataclass(frozen=True)
class LongRunEstimate:
    """Tail-averaged Monte Carlo mean and covariance with standard errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray


def moment_inputs(
    params: ModelParams, spec: NoiseSpec, G: np.ndarray | None = None
) -> MomentInputs:
    """Assemble moment ingredients from validated parameters and noise.

    Sigma0 = diag(alpha^2 sigma_1^2 .. alpha^2 sigma_n^2,
    beta^2 sigma_{n+1}^2 .. beta^2 sigma_{2n}^2) and
    mu_gamma = (alpha mu_1 .. alpha mu_n, -beta mu_{n+1} .. -beta mu_{2n}).
    G defaults to zero (deterministic z_0) and must be finite, symmetric
    and PSD; ParameterError otherwise.  NonFiniteResult where Sigma0 or
    mu_gamma overflows.
    """
    n, alpha, beta = params.n, np.float64(params.alpha), np.float64(params.beta)
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.concatenate([alpha**2 * spec.sigma[:n] ** 2, beta**2 * spec.sigma[n:] ** 2])
        mu_gamma = np.concatenate([alpha * spec.mu[:n], -beta * spec.mu[n:]])
    if not np.all(np.isfinite(np.r_[var, mu_gamma])):
        raise NonFiniteResult("shock covariance or mean overflows (alpha, beta, mu or sigma)")
    if G is None:
        G = np.zeros((2 * n, 2 * n))
    else:
        G = np.asarray(G, dtype=float)
        if G.shape != (2 * n, 2 * n):
            raise DimensionMismatch(f"G must be 2n x 2n = {2*n} x {2*n}, got {G.shape}")
        if not np.all(np.isfinite(G)):
            raise ParameterError("G must be finite")
        scale = max(1.0, float(np.max(np.abs(G))))
        if np.max(np.abs(G - G.T)) > 1e-12 * scale:
            raise ParameterError("G must be symmetric")
        if np.min(np.linalg.eigvalsh((G + G.T) / 2.0)) < -1e-12 * scale:
            raise ParameterError("G must be positive semidefinite")
    return MomentInputs(G=G, Sigma0=np.diag(var), mu_gamma=mu_gamma, n=n)


def _congruence(f, X: np.ndarray) -> np.ndarray:
    """F X F^T, for the linear map F that f applies over one axis."""
    return f(f(X).T).T


def _symmetric(X: np.ndarray) -> np.ndarray:
    """X with its upper triangle copied onto its lower one, in place: a
    covariance that is symmetric in exact arithmetic, reported bitwise
    symmetric."""
    lower = np.tri(len(X), k=-1, dtype=bool)
    X[lower] = X.T[lower]
    return X


def _check_grid(t_grid: list[int], tau_grid: list[int]) -> None:
    """RangeError unless both grids are nonempty and every point lies in
    the formula's domain t >= 2, tau' >= 0."""
    if not t_grid or not tau_grid:
        raise RangeError("t_grid and tau_grid must be nonempty")
    if min(t_grid) < 2:
        raise RangeError(f"cross-covariance formula holds for t >= 2, got t={min(t_grid)}")
    if min(tau_grid) < 0:
        raise RangeError(f"tau_prime must be >= 0, got {min(tau_grid)}")


def cross_covariance(
    inputs: MomentInputs,
    decomposition: SpectralDecomposition,
    t: int,
    tau_prime: int,
) -> CrossCovariance:
    """Cross-covariance of the states at times t + tau' and t, for t >= 2:
    the one-point grid of ``stationarity_diagnostic``."""
    report = stationarity_diagnostic(inputs, decomposition, [t], [tau_prime])
    tilde = report.gamma_tilde
    return CrossCovariance(gamma_tilde=None if tilde is None else tilde[(t, tau_prime)],
                           gamma=report.gamma[(t, tau_prime)])


def stationarity_diagnostic(
    inputs: MomentInputs,
    decomposition: SpectralDecomposition,
    t_grid: list[int],
    tau_grid: list[int],
) -> CovarianceReport:
    """Evaluate the covariance grid and certify time dependence.

    The covariances are stepped in R's coordinates in every regime and
    returned in the original coordinates, and in the paper's Q
    coordinates where Q exists, from one pass: P steps once to
    max(t_grid), and at each grid t a copy takes the tau' steps in
    increasing order, so each entry is bitwise the one a pass for that
    point alone gives.  Each lag-0 covariance has its upper triangle
    copied onto its lower one.  For every lag in ``tau_grid`` the gap
    compares covariances across all pairs of times in ``t_grid``; a
    positive gap exhibits the dependence on t that rules out second-order
    stationarity.
    """
    _check_grid(t_grid, tau_grid)
    R, V = decomposition.R, decomposition.V
    J = partial(apply_blockdiag, R.rates, R.A)
    grid_o: dict[tuple[int, int], np.ndarray] = {}
    grid_t: dict[tuple[int, int], np.ndarray] | None = None if V is None else {}
    coordinates = [(grid_o, R.apply)]
    if grid_t is not None:
        coordinates.append((grid_t, partial(eigen_coordinates, V)))
    ts, taus = set(t_grid), sorted(set(tau_grid))
    with np.errstate(over="ignore", invalid="ignore"):
        S = _congruence(R.solve, inputs.Sigma0)  # X~ = R^-1 X R^-T
        P = _congruence(R.solve, inputs.G)
        for t in range(1, max(ts) + 1):
            P = _congruence(J, P) + S
            if t not in ts:
                continue
            lagged, lag = P, 0
            for tau in taus:
                for _ in range(tau - lag):
                    lagged = J(lagged.T).T
                lag = tau
                for grid, f in coordinates:
                    X = grid[(t, tau)] = _congruence(f, lagged)
                    if tau == 0:
                        _symmetric(X)
    for t, tau in grid_o:
        if not all(np.all(np.isfinite(grid[(t, tau)])) for grid, _ in coordinates):
            raise NonFiniteResult(f"cross-covariance at t={t}, tau'={tau} is not finite")

    def gap(grid: dict[tuple[int, int], np.ndarray]) -> float:
        # the largest pairwise |difference| over t is the spread max - min
        return max(float(np.max(np.ptp([grid[(t, tau)] for t in t_grid], axis=0)))
                   for tau in tau_grid)

    return CovarianceReport(
        gamma_tilde=grid_t,
        gamma=grid_o,
        stationarity_gap=None if grid_t is None else gap(grid_t),
        stationarity_gap_original=gap(grid_o),
    )


def _stein(R: BlockBasis, S: np.ndarray) -> np.ndarray:
    """The solution X of X = J_R X J_R^T + S for a symmetric S in R's
    coordinates, under spectral radius < 1, in three pieces: the
    deviation block entrywise S_jk / (1 - r_j r_k); each deviation row of
    the deviation-aggregate block from (I - r_j A) x = s, one 2x2 solve
    per row; the aggregate block from the 4x4 (I - A kron A) vec X = vec S.
    """
    r, A, k = R.rates, R.A, len(R.rates)
    X = np.empty(S.shape)
    X[:k, :k] = S[:k, :k] / (1.0 - np.outer(r, r))
    X[:k, k:] = np.linalg.solve(np.eye(2) - r[:, None, None] * A, S[:k, k:, None])[..., 0]
    X[k:, :k] = X[:k, k:].T
    X[k:, k:] = np.linalg.solve(np.eye(4) - np.kron(A, A), S[k:, k:].ravel()).reshape(2, 2)
    return X


def _aggregate_cov(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """The 2x2 covariance of the aggregates (xbar, ybar) = W^T z for a
    covariance X of z: W^T X W with W = [[b, 0], [0, a]], the aggregate
    map applied to X's rows and then to the result's columns."""
    n = params.n
    return _symmetric(
        _congruence(lambda Z: np.stack(params.aggregate(Z[:, :n], Z[:, n:]), axis=-1), X))


def limiting_moments(inputs: MomentInputs, decomposition: SpectralDecomposition) -> LimitReport:
    """Limiting mean and the two limit-covariance candidates.

    Requires 0 < rho < 1, where rho is the spectral radius of J_R: the
    largest modulus among the deviation rates and the roots lambda3,
    lambda4 of the quadratic factor, the eigenvalues of the aggregate
    map A.  When the condition fails the report carries
    ``spectral_radius_ok=False`` with the limits skipped.
    """
    R, eig = decomposition.R, decomposition.eig
    lam_tilde = tuple(None if lam == 1.0 else 1.0 / (1.0 - lam)
                      for lam in (eig.lambda1, eig.lambda2, eig.lambda3, eig.lambda4))
    rho = float(max(np.max(np.abs(R.rates), initial=0.0), abs(eig.lambda3), abs(eig.lambda4)))
    if not 0.0 < rho < 1.0:
        return LimitReport(lambda_tilde=lam_tilde, spectral_radius_ok=False)

    # the resolvent (I - M)^-1 = R (I - J_R)^-1 R^-1
    resolvent = partial(apply_blockdiag, 1.0 / (1.0 - R.rates), np.linalg.inv(np.eye(2) - R.A))
    S = _congruence(R.solve, inputs.Sigma0)
    mean = R.apply(resolvent(R.solve(inputs.mu_gamma)))
    claimed = _symmetric(_congruence(R.apply, _congruence(resolvent, S)))
    ma_cov = _symmetric(_congruence(R.apply, _stein(R, S)))

    return LimitReport(
        lambda_tilde=lam_tilde,
        spectral_radius_ok=True,
        limiting_mean=mean,
        resolvent_limit_cov=claimed,
        ma_infinity_cov=ma_cov,
        covariance_discrepancy=float(np.max(np.abs(claimed - ma_cov))),
    )


def mc_cross_covariance(
    params: ModelParams,
    spec: NoiseSpec,
    G: np.ndarray,
    t_grid: list[int],
    tau_grid: list[int],
    reps: int,
    seed: int,
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Sample cross-covariance of (z_{t+tau'}, z_t) at every grid point
    over independent replications, with entrywise standard errors from
    the replication scatter, keyed by (t, tau').  z_0 is drawn as N(0, G)
    per replication (deterministic zero when G = 0).  One batch backs the
    whole grid (common random numbers): all draws come from one
    ``default_rng(seed)``, z_0 first when G is nonzero, then the
    (reps, 2, T, n) noise batch with T = max(t + tau'), stepped once."""
    _check_grid(t_grid, tau_grid)
    if reps < 2:
        raise RangeError(f"Monte Carlo needs reps >= 2 for standard errors, got {reps}")
    rng = _generator(seed)
    M = build_transition_matrix(params)
    if np.any(G):
        # a square root of G from its eigenvalues, clipped at 0: moment_inputs
        # accepts eigenvalues a rounding below 0, which Cholesky refuses
        lam, U = np.linalg.eigh((G + G.T) / 2.0)
        z0 = rng.standard_normal((reps, G.shape[0])) @ (U * np.sqrt(np.maximum(lam, 0.0))).T
    else:
        z0 = np.zeros((reps, 2 * params.n))
    gamma = sample_noise_path(spec, params, max(t_grid) + max(tau_grid), rng, reps=reps).gamma
    z = _iterate(M.apply, z0, gamma)
    # center each time the grid reads over the replications, once and in place
    for s in {t + tau for t in t_grid for tau in tau_grid} | set(t_grid):
        z[:, s] -= z[:, s].mean(axis=0)
    estimates = {}
    for t in t_grid:
        for tau in tau_grid:
            u, v = z[:, t + tau], z[:, t]
            # sums over replications of the products u_i v_j and of their squares
            S1 = u.T @ v
            S2 = (u * u).T @ (v * v)
            est = S1 / (reps - 1)
            se = np.sqrt(np.maximum(S2 - S1**2 / reps, 0.0) / (reps - 1)) / np.sqrt(reps)
            estimates[(t, tau)] = (est, se)
    return estimates


def mc_long_run(
    params: ModelParams,
    spec: NoiseSpec,
    reps: int,
    t_burn: int,
    t_final: int,
    seed: int,
) -> LongRunEstimate:
    """Long-run mean and covariance from tail time-averages.

    Each replication contributes the time-average of z_t and of the
    centered outer products over t in (t_burn, t_final]; replications
    are i.i.d., so standard errors follow from their scatter.
    Replications run in batches of ``_LONG_RUN_BATCH`` that draw in turn
    from one ``default_rng(seed)``; the draws, and so the estimates, do
    not depend on the batch size.
    """
    if not 0 < t_burn < t_final:
        raise RangeError(f"need 0 < t_burn < t_final, got {t_burn}, {t_final}")
    if reps < 2:
        raise RangeError(f"Monte Carlo needs reps >= 2 for standard errors, got {reps}")
    rng = _generator(seed)
    M = build_transition_matrix(params)
    dim = 2 * params.n
    means = np.empty((reps, dim))
    covs = np.empty((reps, dim, dim))
    for done in range(0, reps, _LONG_RUN_BATCH):
        r = min(_LONG_RUN_BATCH, reps - done)
        # a unit axis per replication makes every step one vector-matrix
        # product per replication, which rounds alike in any batch size
        gamma = sample_noise_path(spec, params, t_final, rng, reps=r).gamma[:, None]
        tail = _iterate(M.apply, np.zeros((r, 1, dim)), gamma)[:, 0, t_burn + 1:]
        m = tail.mean(axis=1)
        means[done:done + r] = m
        covs[done:done + r] = (
            tail.transpose(0, 2, 1) @ tail / tail.shape[1] - m[:, :, None] * m[:, None, :]
        )
    return LongRunEstimate(
        mean=means.mean(axis=0),
        mean_se=means.std(axis=0, ddof=1) / np.sqrt(reps),
        cov=covs.mean(axis=0),
        cov_se=covs.std(axis=0, ddof=1) / np.sqrt(reps),
    )
