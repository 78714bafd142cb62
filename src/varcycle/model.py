"""Model parameters, noise specification, and the transition matrix.

The model couples n agents: each output growth rate adjusts toward the
weighted mean sentiment with speed alpha, each sentiment adjusts against
the weighted mean output with speed beta.  Stacked as z = (x, y), one step
is z_{t+1} = M z_t + gamma_t with the block matrix M built here.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, ForbiddenPair, ParameterError, WeightViolation

#: Tolerance on |sum(weights) - 1| before a weight vector is rejected.
WEIGHT_SUM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters.

    n agents, adjustment constants alpha/beta, and the two strictly
    positive weight vectors a (sentiment) and b (output), each summing
    to one.  Construct through :func:`validate_params`.
    """

    n: int
    alpha: float
    beta: float
    a: np.ndarray
    b: np.ndarray

    def aggregate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The aggregates (b . x, a . y) over the last axis: the one map from
        the agents' outputs and sentiments, or their shocks, to xbar, ybar."""
        return x @ self.b, y @ self.a


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise law: coordinate i of the stacked shock vector is
    N(mu[i], sigma[i]^2); the first n entries drive epsilon, the last n
    drive eta.  A zero sigma makes that coordinate its mean."""

    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class TransitionMatrix:
    """The 2n x 2n one-step map in its diagonal-plus-rank-two form,
    M^T = diag(s) + V U.

    s holds 1-alpha n times, then 1-beta n times.  The columns of the
    2n x 2 factor V are (0, alpha*a) and (-beta*b, 0); U, with rows
    (1_n, 0) and (0, 1_n), is constant and not stored.  So one step is
    x' = (1-alpha) x + alpha (a.y) 1 and y' = (1-beta) y - beta (b.x) 1:
    every row of the top-right block of M is alpha*a, every row of the
    bottom-left block is -beta*b.  Build through
    :func:`build_transition_matrix`.
    """

    s: np.ndarray
    V: np.ndarray
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.n, 2 * self.n)

    def apply(self, Z: np.ndarray) -> np.ndarray:
        """Z @ M.T over the last axis of Z, for any leading batch axes.
        O(n) per row of Z, and no dense M."""
        return Z * self.s + (Z @ self.V).repeat(self.n, axis=-1)

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, built anew on every access.  It is the oracle
        for tests and what ``decompose --dump-matrices`` writes; nothing
        that steps or checks the model needs it."""
        n = self.n
        top = np.hstack([self.s[0] * np.eye(n), np.outer(np.ones(n), self.V[n:, 0])])
        bottom = np.hstack([np.outer(np.ones(n), self.V[:n, 1]), self.s[n] * np.eye(n)])
        return _frozen(np.vstack([top, bottom]))


def _numbers(raw: Any, name: str, error: type[ValueError]) -> np.ndarray:
    """``raw``, a number or a flat list of them, as a float array.

    Only ints and floats, Python or numpy, are numbers: a boolean, text,
    None or a nested list raises ``error``, also as one entry of a list.
    """
    if not (isinstance(raw, np.ndarray) and raw.dtype.kind in "iuf"):
        items = raw.ravel() if isinstance(raw, np.ndarray) else (
            raw if isinstance(raw, (list, tuple)) else (raw,))
        # one C-level pass for the types; bool is an int subclass
        bad = sorted(k.__name__ for k in set(map(type, items)) if issubclass(k, bool)
                     or not issubclass(k, (int, float, np.integer, np.floating)))
        if bad:
            raise error(f"{name} must hold numbers, not {', '.join(bad)}")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError as exc:
        raise error(f"{name} must hold numbers: {exc}") from exc


def _integer(raw: Any, name: str, error: type[ValueError]) -> int:
    """``raw`` as an int: one number with no fractional part, so 3.0 is 3."""
    value = _numbers(raw, name, error)
    if value.shape != () or not float(value).is_integer():
        raise error(f"{name} must be an integer, got {raw!r}")
    return int(raw)


def _agent_count(raw: Any) -> int:
    if (n := _integer(raw, "n", DimensionMismatch)) < 1:
        raise DimensionMismatch(f"n must be a positive integer, got {raw!r}")
    return n


def _require(record: Any, keys: tuple[str, ...], what: str) -> None:
    """Check that ``record`` is a mapping that holds every key of ``keys``."""
    if not isinstance(record, Mapping):
        raise ParameterError(f"{what} record must be a mapping, not {type(record).__name__}")
    missing = [k for k in keys if k not in record]
    if missing:
        raise ParameterError(f"missing {what} keys: {', '.join(missing)}")


def validate_pair(alpha: Any, beta: Any) -> tuple[float, float]:
    """Check the adjustment pair: both finite numbers, and not (0, 0) or (1, 1)."""
    alpha, beta = _numbers([alpha, beta], "alpha and beta", ParameterError).tolist()
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ParameterError(f"alpha and beta must be finite, got ({alpha}, {beta})")
    if (alpha, beta) in ((0.0, 0.0), (1.0, 1.0)):
        raise ForbiddenPair(f"(alpha, beta) = ({alpha}, {beta}) is excluded")
    return alpha, beta


def validate_params(record: Mapping[str, Any]) -> ModelParams:
    """Validate a raw parameter record and return frozen ``ModelParams``.

    Weights are renormalized to sum exactly to one only when the raw sum
    is already within ``WEIGHT_SUM_TOL`` of one; a looser sum is rejected
    because it usually signals a modelling error rather than decimal
    truncation.

    Raises
    ------
    WeightViolation
        Nonpositive, non-finite or non-numeric weight entry, or weight sum
        off by more than the tolerance.
    ParameterError
        record is not a mapping or lacks a key, or alpha or beta is not a
        finite number.
    ForbiddenPair
        (alpha, beta) equal to (0, 0) or (1, 1).
    DimensionMismatch
        a or b does not have length n, or n is not a positive integer.
    """
    _require(record, ("n", "alpha", "beta", "a", "b"), "parameter")

    n = _agent_count(record["n"])
    alpha, beta = validate_pair(record["alpha"], record["beta"])

    weights = {}
    for name in ("a", "b"):
        w = _numbers(record[name], name, WeightViolation)
        if w.shape != (n,):
            raise DimensionMismatch(f"{name} must have length n={n}, got shape {w.shape}")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise WeightViolation(f"{name} must be finite and strictly positive, got {w.tolist()}")
        s = float(w.sum())
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise WeightViolation(f"{name} must sum to 1 within {WEIGHT_SUM_TOL}, got sum {s!r}")
        weights[name] = _frozen(w / s)

    return ModelParams(n=n, alpha=alpha, beta=beta, a=weights["a"], b=weights["b"])


def validate_noise(record: Mapping[str, Any], n: int) -> NoiseSpec:
    """Validate a noise record against agent count ``n``.

    Requires finite numeric mu and sigma of length exactly 2n with every sigma >= 0.
    """
    _require(record, ("mu", "sigma"), "noise")
    mu = _numbers(record["mu"], "noise mu", ParameterError)
    sigma = _numbers(record["sigma"], "noise sigma", ParameterError)
    if mu.shape != (2 * n,):
        raise DimensionMismatch(f"noise mu must have length 2n={2*n}, got shape {mu.shape}")
    if sigma.shape != (2 * n,):
        raise DimensionMismatch(f"noise sigma must have length 2n={2*n}, got shape {sigma.shape}")
    if not np.all(np.isfinite(mu)):
        raise ParameterError("noise mu entries must all be finite")
    if not np.all(np.isfinite(sigma) & (sigma >= 0)):
        raise ParameterError("noise sigma entries must all be finite and >= 0")
    return NoiseSpec(mu=_frozen(mu), sigma=_frozen(sigma))


def build_transition_matrix(params: ModelParams) -> TransitionMatrix:
    """The transition matrix of validated parameters, in O(n) memory.

    Every entry of M is a plain product of inputs, and the factors keep
    them as such, so the block invariants hold exactly in floating point.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    V = np.zeros((2 * n, 2))
    V[n:, 0] = alpha * params.a
    V[:n, 1] = -beta * params.b
    s = np.repeat([1.0 - alpha, 1.0 - beta], n)
    return TransitionMatrix(s=_frozen(s), V=_frozen(V), n=n)


def lint_params(params: ModelParams) -> list[str]:
    """Non-fatal warnings about unusual but admissible parameter choices."""
    notes = []
    for name, value in (("alpha", params.alpha), ("beta", params.beta)):
        if not 0.0 < value < 1.0:
            notes.append(
                f"{name}={value} lies outside (0, 1); the model admits it but "
                "eigenvalues may leave the unit circle"
            )
    return notes
