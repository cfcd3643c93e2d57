"""Exception hierarchy shared across the package.

An error's class decides the CLI's exit code: 2 for an ``InputError``, 4 for
any other ``TailSgdError``.  ``StepSizeError.check`` states the stability
condition, and ``NonFiniteResultError.check`` the finiteness of a result.
"""

import numpy as np


class TailSgdError(Exception):
    """Base class for every package-specific failure."""


class InputError(TailSgdError):
    """An input the package rejects: a bad document, flag, model or stepsize."""


class DimensionError(InputError, ValueError):
    """Operands have incompatible shapes."""


class NotSpdError(InputError, ValueError):
    """A matrix required to be symmetric positive (semi)definite is not."""


class IntractableMomentsError(InputError, ValueError):
    """Closed-form population moments are not available for this model."""


class SingularMomentsError(InputError):
    """A second-moment matrix (population or empirical) does not span R^d."""


class StepSizeError(InputError, ValueError):
    """Stepsize outside the stable range (0, 1/R^2)."""

    @classmethod
    def check(cls, gamma: float, r2: float):
        """Raise unless 0 < gamma < 1/R^2, the stability condition every
        result assumes (and false for a NaN gamma), or unless R^2 is positive
        and finite, without which 1/R^2 is no bound.  A config error prefixes
        the message with the field, ``gamma: ``."""
        if not 0.0 < r2 < np.inf:
            raise cls(f"R^2 must be positive and finite, got {r2!r}")
        if not 0.0 < gamma < 1.0 / r2:
            raise cls(f"{gamma!r} outside the stable range (0, {1.0 / r2!r})")


class EmptyWindowError(InputError, ValueError):
    """Averaging window [t, T) contains no iterates."""


class ConvergenceError(TailSgdError, RuntimeError):
    """Iterative solver failed to converge within its iteration budget."""


class SingularSystemError(TailSgdError, RuntimeError):
    """Linear system defining the stationary covariance is singular, too
    ill-conditioned to trust, or too large to build as a dense matrix."""


class IndefiniteSolutionError(TailSgdError, RuntimeError):
    """Stationary solver produced a matrix with a genuinely negative
    eigenvalue, typically from mismatched inputs or an unstable stepsize."""


class ZeroNoiseError(TailSgdError, ZeroDivisionError):
    """Quantity undefined for a noiseless model (Sigma = 0)."""


class ConfigError(InputError, ValueError):
    """Configuration document failed validation."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class NonFiniteResultError(TailSgdError, ArithmeticError):
    """A computed result holds NaN or infinity; ``field`` names where."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"{field}: result is NaN or infinite")

    @classmethod
    def check(cls, record):
        """Raise for the first non-finite float or array field of a record."""
        for name, value in vars(record).items():
            if isinstance(value, (float, np.ndarray)) and not np.all(np.isfinite(value)):
                raise cls(name)
