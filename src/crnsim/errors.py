"""Exception types shared across the package, and the one integer and real argument checks."""

from numbers import Integral, Real
from sys import float_info


class CrnError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(CrnError):
    """Syntax or semantic error in a CRN text document."""

    def __init__(self, message, line, column):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")

    def __reduce__(self):
        # ``args`` holds only the formatted text, which __init__ cannot take
        return type(self), (self.message, self.line, self.column)


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


def check_integer(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python ``int``, refused unless it is an integer (``int``
    or numpy) of at least ``minimum``.

    Floats are refused even when integral, and NaN fails every comparison,
    so ``2.5``, ``100.0``, ``nan`` and ``inf`` all raise here instead of
    deep inside a sampler or a chunk layout. ``True`` and ``False`` are
    refused too, though ``bool`` subclasses ``int``. A caller that keeps
    the value keeps the returned ``int``, which JSON can write and a numpy
    integer is not.
    """
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum):
        raise DomainError(f"{name} must be an integer of at least {minimum}, got {value}")
    return int(value)


def check_real(value, name: str, zero: bool = False):
    """``value`` as a Python ``int`` (from an integer) or ``float``, which JSON
    can write, refused unless it is a real number, finite and above 0 (at
    least 0 with ``zero``). A bool, a string, NaN, +-inf and an int beyond
    the float range all raise ``DomainError``.
    """
    if type(value) in (float, int):  # the common cases, which need no conversion
        number = value
    elif isinstance(value, Real) and not isinstance(value, bool):
        number = int(value) if isinstance(value, Integral) else float(value)
    else:
        number = float("nan")  # refused below, as NaN is
    if not ((0 <= number if zero else 0 < number) and number <= float_info.max):
        sign = "nonnegative" if zero else "positive"
        raise DomainError(f"{name} must be finite and {sign}, got {value}")
    return number
