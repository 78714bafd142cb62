"""Exception types shared across the package."""

from __future__ import annotations


class VarcycleError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(VarcycleError, ValueError):
    """Invalid model parameters."""


class WeightViolation(ParameterError):
    """A weight vector has a nonpositive entry or does not sum to one."""


class ForbiddenPair(ParameterError):
    """The adjustment pair (alpha, beta) is (0, 0) or (1, 1)."""


class DimensionMismatch(ParameterError):
    """An array has the wrong length or shape for the given agent count."""


class WrongRegime(VarcycleError):
    """Operation requires a different spectral regime."""


class NonFiniteState(VarcycleError):
    """A simulated state overflowed to a non-finite value.

    Attributes
    ----------
    t : int
        First time index at which a non-finite entry appeared.
    """

    def __init__(self, t: int):
        self.t = t
        super().__init__(f"non-finite state first reached at t={t}")


class NonFiniteResult(VarcycleError):
    """A reported value overflowed to inf or NaN, which strict JSON cannot hold."""


class RangeError(VarcycleError, ValueError):
    """A time or lag index is outside the range a formula supports."""


class NotInvertible(VarcycleError):
    """The lag polynomial is not invertible (kappa2 outside (0, 1))."""


class TooShort(VarcycleError, ValueError):
    """Series too short for spectral analysis."""


class ConfigError(VarcycleError, ValueError):
    """Invalid or unknown key in a run configuration document."""
