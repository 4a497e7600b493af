"""Exception types shared across the package, and the range check on sizes.

The CLI maps these onto exit codes: input problems (parse/domain/bound/
capability) exit with status 2, a failed exact identity exits with 3.
"""


class ResindexError(Exception):
    """Base class for all package errors."""


class ParseError(ResindexError, ValueError):
    """Malformed textual input (e.g. a base string that is not 'a' or 'a/b')."""


class ExcludedBaseError(ParseError):
    """The base g is one of -1, 0, 1, for which residual indices degenerate."""


class DomainError(ResindexError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class BoundError(ResindexError, ValueError):
    """A size argument is outside the configured limits."""


class CapabilityError(ResindexError, ValueError):
    """The request exceeds what the constructed tables can support."""


class LemmaViolation(ResindexError, RuntimeError):
    """An identity that must hold exactly failed on concrete data."""


def check_range(name: str, value: int, low: int, high: int) -> None:
    """Refuse a size below low as a DomainError and one above high as a BoundError."""
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise BoundError(f"{name} must be <= {high}, got {value}")
