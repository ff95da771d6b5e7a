"""Exception types shared across the package, and the input rules.

Every public entry point checks its integers (counts, array lengths, seeds),
probabilities, betting fractions and other reals with the functions below, so
each rule and its message are written once.  Each rejects NaN, infinities,
bools, strings and out-of-range values with a :class:`DomainError`; numpy
numbers pass.
"""

import math
import numbers
import operator
import sys

# The largest array length: numpy sizes arrays with intp, whose max this is.
MAX_LENGTH = sys.maxsize


class DomainError(ValueError):
    """An argument violates the mathematical domain of an operation."""


class NoPositiveRoot(DomainError):
    """No positive-growth root exists (the bet has no positive edge)."""


class InfeasibleThreshold(DomainError):
    """A loss threshold <= 0 makes every betting fraction infeasible."""


class BudgetError(DomainError):
    """The Monte Carlo budget is too small to produce usable estimates."""


class EmptySelection(DomainError):
    """A filter selected no records from a trade series."""


class NoClear(DomainError):
    """Supply exceeds the number of potential buyers; the auction cannot clear."""


def shown(value: object, text=str) -> str:
    """``text(value)`` for an error message; an int past Python's digit limit
    for text is named by its bit length.  Call it only on the error path."""
    try:
        return text(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _outside(value: object, what: str, low: object, high: object, ends: str) -> DomainError:
    return DomainError(f"{what} must lie in {ends[0]}{low}, {high}{ends[1]}, got {shown(value)}")


def integer(value: object, what: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as an int in [``low``, ``high``] (``math.inf`` for no bound);
    a bool, float, string or other non-integer raises."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= n <= high:
                return n
            ends = ("(" if low == -math.inf else "[") + (")" if high == math.inf else "]")
            raise _outside(value, what, low, high, ends)
    raise DomainError(f"{what} must be an integer, got {shown(value, repr)}")


def count(value: object, what: str) -> int:
    """``value`` as an int >= 1."""
    return integer(value, what, 1)


def real(value: object, what: str) -> float:
    """``value`` as a float; a bool, string, other non-real or a number
    beyond double range (such as ``10**400``) raises."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DomainError(f"{what} must be a real number, got {shown(value, repr)}")


def within(value: object, what: str, low: float, high: float, ends: str = "[]") -> float:
    """``value`` as a float between ``low`` and ``high`` (``math.inf`` for no
    bound); ``ends`` marks each end closed, ``[`` ``]``, or open, ``(`` ``)``."""
    x = real(value, what)
    above = low <= x if ends[0] == "[" else low < x
    below = x <= high if ends[1] == "]" else x < high
    if not (above and below):
        raise _outside(value, what, low, high, ends)
    return x


def probability(value: object, what: str) -> float:
    """``value`` as a float in [0, 1]."""
    return within(value, what, 0, 1)


def fraction(value: object, what: str = "betting fraction") -> float:
    """``value`` as a float in [0, 1)."""
    return within(value, what, 0, 1, "[)")


def root_seed(value: object, what: str = "root_seed") -> int:
    """``value`` as an int in [0, 2**64), numpy integers included."""
    return integer(value, what, 0, 2**64 - 1)
