"""Exception types shared across the package, and the one integer-argument check."""

from numbers import Integral


class CrnError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(CrnError):
    """Syntax or semantic error in a CRN text document."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownSpeciesError(CrnError, KeyError):
    """A species name is not in the species table."""

    __str__ = CrnError.__str__  # the message itself, not KeyError's quoted repr


class NotApplicableError(CrnError):
    """A reaction was applied to a configuration lacking its reactants."""


class UnsupportedReactionOrderError(CrnError):
    """The kinetic model only supports reactions with one or two reactants."""


class DomainError(CrnError):
    """An argument is outside the domain an operation is defined on."""


class HypothesisViolationError(DomainError):
    """A closed-form bound was requested outside its hypotheses."""


def check_integer(value, name: str, minimum: int = 1) -> None:
    """Refuse a ``value`` that is not an integer (``int`` or numpy) of at least ``minimum``.

    Floats are refused even when integral, and NaN fails every comparison,
    so ``2.5``, ``100.0``, ``nan`` and ``inf`` all raise here instead of
    deep inside a sampler or a chunk layout. ``True`` and ``False`` are
    refused too, though ``bool`` subclasses ``int``.
    """
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum):
        raise DomainError(f"{name} must be an integer of at least {minimum}, got {value}")
