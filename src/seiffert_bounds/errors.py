"""Exception types shared across the package, and the integer and float rules
that their argument checks apply."""

import math
import numbers

__all__ = ["BracketError", "DomainError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation, or
    an order or index outside the supported table range."""


class BracketError(RuntimeError):
    """A sign change or root that a claim needs does not exist.

    Raised when the ladder's preconditions fail or a witness search comes up
    empty; it signals either a numerical bug or a violated structural claim,
    and is therefore never silently swallowed.
    """


def _is_integer(value) -> bool:
    """A :class:`numbers.Integral` that is not a bool: a numpy integer will do,
    a bool or 1.0 will not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_float(value) -> float:
    """``float(value)``, or ±inf for a number beyond the double range (an int
    or a Fraction), so that a finite or range check rejects it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
