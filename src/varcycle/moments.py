"""Second moments: exact cross-covariances in transformed coordinates,
the nonstationarity diagnostic, limiting moments, and the Monte Carlo
estimators that back them.

With G the covariance of z_0 and Sigma0 the (diagonal) covariance of
the stacked shock, the transformed cross-covariance for t >= 2 is

    Gamma~(t + tau', t) = J^(t+tau') G~ J^t + sum_{i=0..t-1} J^(tau'+i) Sigma0~ J^i

where X~ = Q^-1 X Q^-T.  The sum includes the i = 0 innovation term of
the most recent shock, as the moving-average expansion of the explicit
solution requires; both the symbolic expansion and the Monte Carlo
estimator pin this down.  J is diagonal in the supported regime, so
each J^a X J^b is an entrywise scaling.

The lag-0 covariance depends on t whenever Sigma0 != 0 and some
eigenvalue is nonzero, which is the nonstationarity certificate the
diagnostic reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, RangeError
from .model import ModelParams, NoiseSpec, build_transition_matrix
from .simulate import _iterate, mix_seed, sample_noise_path
from .spectral import SpectralDecomposition

#: Replications that mc_long_run simulates together; bounds the states held.
_LONG_RUN_BATCH = 64

#: Layout of the Monte Carlo draws, echoed in reports.  Version 2 draws a
#: whole batch from one generator; version 1 drew one stream per replication.
MC_STREAM_VERSION = 2


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
    """One cross-covariance matrix in both coordinate systems."""

    gamma_tilde: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class MonteCarloSpec:
    """Replication settings for the optional sample-covariance grid."""

    params: ModelParams
    noise_spec: NoiseSpec
    reps: int
    seed: int


@dataclass(frozen=True)
class CovarianceReport:
    """Cross-covariance grids over (t, tau') plus the stationarity gap.

    The gap is the largest max-norm difference between same-lag
    covariances at different times, reported in transformed and original
    coordinates (either is nonzero exactly when the other is, since the
    basis is nonsingular).  ``mc_estimate`` maps (t, tau') to a
    (sample cross-covariance, standard error) pair when requested.
    """

    gamma_tilde: dict[tuple[int, int], np.ndarray]
    gamma: dict[tuple[int, int], np.ndarray]
    stationarity_gap: float
    stationarity_gap_original: float
    mc_estimate: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] | None


@dataclass(frozen=True)
class LimitReport:
    """Limiting moments under the spectral-radius condition.

    ``resolvent_limit_cov`` applies the resolvent-style map
    Q diag{1/(1-lam)} Q^-1 to the shock on both sides;
    ``ma_infinity_cov`` is the moving-average series
    sum_i (Q J^i Q^-1) Sigma0 (Q J^i Q^-1)^T in closed form: the
    solution of the Stein equation Sigma = M Sigma M^T + Sigma0, which
    in transformed coordinates is S~_jk / (1 - d_j d_k).
    The two differ in general; both are reported with their gap, and the
    long-run Monte Carlo oracle matches the moving-average form.
    ``truncation_terms`` is always None: no series is truncated.
    """

    lambda_tilde: np.ndarray
    spectral_radius_ok: bool
    limiting_mean: np.ndarray | None
    resolvent_limit_cov: np.ndarray | None
    ma_infinity_cov: np.ndarray | None
    truncation_terms: int | None
    covariance_discrepancy: float | None


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
    G defaults to zero (deterministic z_0) and must be symmetric PSD.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    var = np.concatenate([alpha**2 * spec.sigma[:n] ** 2, beta**2 * spec.sigma[n:] ** 2])
    mu_gamma = np.concatenate([alpha * spec.mu[:n], -beta * spec.mu[n:]])
    if G is None:
        G = np.zeros((2 * n, 2 * n))
    else:
        G = np.asarray(G, dtype=float)
        if G.shape != (2 * n, 2 * n):
            raise DimensionMismatch(f"G must be 2n x 2n = {2*n} x {2*n}, got {G.shape}")
        scale = max(1.0, float(np.max(np.abs(G))))
        if np.max(np.abs(G - G.T)) > 1e-12 * scale:
            raise ValueError("G must be symmetric")
        if np.min(np.linalg.eigvalsh((G + G.T) / 2.0)) < -1e-12 * scale:
            raise ValueError("G must be positive semidefinite")
    return MomentInputs(G=G, Sigma0=np.diag(var), mu_gamma=mu_gamma, n=n)


def transformed_inputs(
    inputs: MomentInputs, decomposition: SpectralDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    """G and Sigma0 mapped to transformed coordinates: X~ = Q^-1 X Q^-T.
    Raises WrongRegime when no explicit basis exists."""
    decomposition.diag  # the basis gate
    Qinv = decomposition.Qinv
    return Qinv @ inputs.G @ Qinv.T, Qinv @ inputs.Sigma0 @ Qinv.T


def cross_covariance(
    inputs: MomentInputs,
    decomposition: SpectralDecomposition,
    t: int,
    tau_prime: int,
) -> CrossCovariance:
    """Cross-covariance of the states at times t + tau' and t, for t >= 2.

    Returned in transformed coordinates together with the original-
    coordinate matrix Q Gamma~ Q^T.
    """
    if t < 2:
        raise RangeError(f"cross-covariance formula holds for t >= 2, got t={t}")
    if tau_prime < 0:
        raise RangeError(f"tau_prime must be >= 0, got {tau_prime}")
    d = decomposition.diag
    Gt, S0t = transformed_inputs(inputs, decomposition)
    Q = decomposition.Q
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.outer(d ** (t + tau_prime), d**t) * Gt
        for i in range(t):
            out = out + np.outer(d ** (tau_prime + i), d**i) * S0t
        gamma = Q @ out @ Q.T
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(gamma))):
        raise NonFiniteResult(f"cross-covariance at t={t}, tau'={tau_prime} is not finite")
    return CrossCovariance(gamma_tilde=out, gamma=gamma)


def stationarity_diagnostic(
    inputs: MomentInputs,
    decomposition: SpectralDecomposition,
    t_grid: list[int],
    tau_grid: list[int],
    mc: MonteCarloSpec | None = None,
) -> CovarianceReport:
    """Evaluate the covariance grid and certify time dependence.

    For every lag in ``tau_grid`` the gap compares covariances across
    all pairs of times in ``t_grid``; a positive gap exhibits the
    dependence on t that rules out second-order stationarity.
    """
    if not t_grid or not tau_grid:
        raise RangeError("t_grid and tau_grid must be nonempty")
    grid_t: dict[tuple[int, int], np.ndarray] = {}
    grid_o: dict[tuple[int, int], np.ndarray] = {}
    for t in t_grid:
        for tau in tau_grid:
            cc = cross_covariance(inputs, decomposition, t, tau)
            grid_t[(t, tau)] = cc.gamma_tilde
            grid_o[(t, tau)] = cc.gamma

    def gap(grid: dict[tuple[int, int], np.ndarray]) -> float:
        # the largest pairwise |difference| over t is the spread max - min
        return max(float(np.max(np.ptp([grid[(t, tau)] for t in t_grid], axis=0)))
                   for tau in tau_grid)

    mc_estimate = None
    if mc is not None:
        mc_estimate = {}
        for key_index, (t, tau) in enumerate(sorted(grid_t)):
            est, se = mc_cross_covariance(
                mc.params, mc.noise_spec, inputs.G, t, tau,
                reps=mc.reps, seed=mix_seed(mc.seed, key_index),
            )
            mc_estimate[(t, tau)] = (est, se)

    return CovarianceReport(
        gamma_tilde=grid_t,
        gamma=grid_o,
        stationarity_gap=gap(grid_t),
        stationarity_gap_original=gap(grid_o),
        mc_estimate=mc_estimate,
    )


def limiting_moments(inputs: MomentInputs, decomposition: SpectralDecomposition) -> LimitReport:
    """Limiting mean and the two limit-covariance candidates.

    Requires 0 < max|lambda| < 1.  When the condition fails the report
    carries ``spectral_radius_ok=False`` with the limits skipped.
    """
    d = decomposition.diag
    eig = decomposition.eig
    lams = np.array([eig.lambda1, eig.lambda2, np.real(eig.lambda3), np.real(eig.lambda4)])
    # no eigenvalue is 1 once a basis exists: that needs alpha * beta = 0
    lam_tilde = 1.0 / (1.0 - lams)
    rho = float(np.max(np.abs(d)))
    if not 0.0 < rho < 1.0:
        return LimitReport(
            lambda_tilde=lam_tilde,
            spectral_radius_ok=False,
            limiting_mean=None,
            resolvent_limit_cov=None,
            ma_infinity_cov=None,
            truncation_terms=None,
            covariance_discrepancy=None,
        )

    Q, Qinv = decomposition.Q, decomposition.Qinv
    dtilde = 1.0 / (1.0 - d)
    resolvent = Q @ (dtilde[:, None] * Qinv)

    mean = resolvent @ inputs.mu_gamma
    claimed = resolvent @ inputs.Sigma0 @ resolvent.T

    _, S0t = transformed_inputs(inputs, decomposition)
    ma_cov = Q @ (S0t / (1.0 - np.outer(d, d))) @ Q.T

    return LimitReport(
        lambda_tilde=lam_tilde,
        spectral_radius_ok=True,
        limiting_mean=mean,
        resolvent_limit_cov=claimed,
        ma_infinity_cov=ma_cov,
        truncation_terms=None,
        covariance_discrepancy=float(np.max(np.abs(claimed - ma_cov))),
    )


def _generator(seed: int) -> np.random.Generator:
    """The one generator a Monte Carlo batch draws from."""
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def mc_cross_covariance(
    params: ModelParams,
    spec: NoiseSpec,
    G: np.ndarray,
    t: int,
    tau_prime: int,
    reps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample cross-covariance of (z_{t+tau'}, z_t) over independent
    replications, with entrywise standard errors from the replication
    scatter.  z_0 is drawn as N(0, G) per replication (deterministic
    zero when G = 0).  All draws come from one ``default_rng(seed)``:
    z_0 first when G is nonzero, then the (reps, 2, T, n) noise batch."""
    if reps < 2:
        raise RangeError(f"Monte Carlo needs reps >= 2 for standard errors, got {reps}")
    rng = _generator(seed)
    M = build_transition_matrix(params)
    if np.any(G):
        L = np.linalg.cholesky(G + 1e-15 * np.trace(G) * np.eye(G.shape[0]))
        z0 = rng.standard_normal((reps, G.shape[0])) @ L.T
    else:
        z0 = np.zeros((reps, 2 * params.n))
    gamma = sample_noise_path(spec, params, t + tau_prime, rng, reps=reps).gamma
    z = _iterate(M.apply, z0, gamma)
    u = z[:, t + tau_prime] - z[:, t + tau_prime].mean(axis=0)
    v = z[:, t] - z[:, t].mean(axis=0)
    # sums over replications of the products u_i v_j and of their squares
    S1 = u.T @ v
    S2 = (u * u).T @ (v * v)
    est = S1 / (reps - 1)
    se = np.sqrt(np.maximum(S2 - S1**2 / reps, 0.0) / (reps - 1)) / np.sqrt(reps)
    return est, se


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
