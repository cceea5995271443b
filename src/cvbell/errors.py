"""Exception types shared across the package."""


class CvBellError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CvBellError, ValueError):
    """A parameter is outside its documented domain."""


class CutoffTooSmallError(CvBellError, ValueError):
    """Truncated basis cannot hold the state within the tail budget."""

    def __init__(self, message: str, suggested_cutoff: int):
        super().__init__(message)
        self.suggested_cutoff = suggested_cutoff


class PrecisionError(CvBellError, RuntimeError):
    """A numerical guard or convergence criterion failed."""


class ConditioningError(CvBellError, RuntimeError):
    """A matrix is singular or too ill-conditioned to use safely."""


class UndefinedStateError(CvBellError, ValueError):
    """The requested conditional state does not exist (no click possible)."""
