"""Exception hierarchy shared across the package."""

import numpy as np


class TailSgdError(Exception):
    """Base class for every package-specific failure."""


class DimensionError(TailSgdError, ValueError):
    """Operands have incompatible shapes."""


class NotSpdError(TailSgdError, ValueError):
    """A matrix required to be symmetric positive (semi)definite is not."""


class IntractableMomentsError(TailSgdError, ValueError):
    """Closed-form population moments are not available for this model."""


class SingularMomentsError(TailSgdError):
    """A second-moment matrix (population or empirical) does not span R^d."""


class StepSizeError(TailSgdError, ValueError):
    """Stepsize at or above the stability threshold 1 / R^2."""


class EmptyWindowError(TailSgdError, ValueError):
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


class ConfigError(TailSgdError, ValueError):
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
