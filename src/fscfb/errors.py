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


def describe_int(name: str, value: int, sep: str = " ") -> str:
    """``name`` and ``value`` as a refusal names them, "horizon 12". A value
    of more than 64 bits is named by its bit length, "horizon of 16,610
    bits": Python refuses to print an int of more than 4,300 digits. Any
    other number, a NumPy integer too, is printed as it is."""
    if _too_long(value):
        return f"{name} of {value.bit_length():,} bits"
    return f"{name}{sep}{value}"


def _too_long(value) -> bool:
    return isinstance(value, int) and value.bit_length() > 64


def check_horizon(n) -> None:
    """Refuse a horizon below 1: "horizon must be >= 1, got 0", or for one
    too long to print, "horizon must be >= 1, got a value of 16,610 bits"."""
    if n < 1:
        got = describe_int("a value", n) if _too_long(n) else n
        raise ValidationError(f"horizon must be >= 1, got {got}")
