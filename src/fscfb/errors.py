"""Exception types shared across the package."""


class FscError(Exception):
    """Base class for all package errors."""


class ValidationError(FscError, ValueError):
    """A probability table or transition table violates its invariants."""


class ShapeError(FscError, ValueError):
    """Operands have incompatible dimensions or horizons."""


class DomainError(FscError, ValueError):
    """A scalar argument lies outside its admissible range."""


class ResourceLimitError(FscError, RuntimeError):
    """An exhaustive computation would exceed its configured budget."""

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class OracleError(FscError, RuntimeError):
    """A step-bounded oracle failed to answer a query."""
