"""Exception types shared across the package."""

__all__ = ["EprSimError", "ValidationError", "QuadratureError", "TagFormatError"]


class EprSimError(Exception):
    """Base class for errors raised by eprsim."""


class ValidationError(EprSimError, ValueError):
    """Invalid parameter, configuration value, or argument."""


class QuadratureError(EprSimError, RuntimeError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries the achieved error estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class TagFormatError(EprSimError, ValueError):
    """Malformed or incompatible time-tag file."""
