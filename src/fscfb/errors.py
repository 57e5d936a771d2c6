"""Exception types shared across the package, and the checks that raise them
for values out of range or over a budget."""

from fractions import Fraction

BIT_BUDGET = 10**7  # denominator bits in lambda_sequence's values or extend_states' noises


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


def describe_int(name: str, value, sep: str = " ") -> str:
    """``name`` and ``value`` as a refusal names them, "horizon 12". An int
    of more than 64 bits, or a Fraction with such a term, is named by that
    bit length, "horizon of 16,610 bits": Python refuses to print an int of
    more than 4,300 digits. Any other number, a NumPy integer too, is
    printed as it is."""
    bits = _bits(value)
    if bits > 64:
        return f"{name} of {bits:,} bits"
    return f"{name}{sep}{value}"


def _bits(value) -> int:
    """The bit length of an int, or of a Fraction's longer term; else 0."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return value.bit_length() if isinstance(value, int) else 0


def check_at_least(name: str, value, low: int, error=ValidationError) -> None:
    """Refuse ``value`` below ``low`` with ``error``: "horizon must be >= 1,
    got 0", or for one too long to print, "horizon must be >= 1, got a value
    of 16,610 bits"."""
    if value < low:
        got = describe_int("a value", value) if _bits(value) > 64 else value
        raise error(f"{name} must be >= {low}, got {got}")


def check_budget(named: str, value, cost, limit: int, unit: str) -> None:
    """Refuse a ``value`` whose non-decreasing ``cost`` is over ``limit``. A
    value past the first power of two over the limit "needs at least" that
    power's cost, so no count too long to print is ever formed."""
    probe = 1
    while probe < value and cost(probe) <= limit:
        probe *= 2
    least = "at least " if probe < value else ""
    count = cost(probe if least else value)
    if count > limit:
        raise ResourceLimitError(f"{describe_int(named, value)} needs {least}{count} {unit}, "
                                 f"over the limit of {limit}", limit=limit)
