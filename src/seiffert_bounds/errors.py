"""Exception types shared across the package."""

__all__ = ["BracketError", "DomainError", "RangeError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(DomainError):
    """An order or index exceeds the supported table range."""


class BracketError(RuntimeError):
    """A sign change or root that a claim needs does not exist.

    Raised when the ladder's preconditions fail or a witness search comes up
    empty; it signals either a numerical bug or a violated structural claim,
    and is therefore never silently swallowed.
    """
