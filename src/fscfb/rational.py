"""Exact rational handling for probability parameters and tables."""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def as_fraction(value) -> Fraction:
    """Coerce a parameter into an exact Fraction.

    Strings accept both "p/q" and decimal forms; floats convert exactly
    (binary expansion), so prefer strings or Fractions for dyadic inputs.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {value!r} as a rational number") from exc
    if isinstance(value, float):
        return Fraction(value)
    raise DomainError(f"cannot interpret {type(value).__name__} as a rational number")

