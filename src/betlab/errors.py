"""Exception types shared across the package, and the input rules.

Every public entry point checks its counts, probabilities, betting
fractions and seeds with the functions below, so each rule and its
message are written once.  Each rejects NaN, infinities, bools, strings
and out-of-range values with a :class:`DomainError`; numpy numbers pass.
"""

import numbers
import operator


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


def integer(value: object, what: str) -> int:
    """``value`` as an int; a bool, float, string or other non-integer raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def count(value: object, what: str) -> int:
    """``value`` as an int >= 1."""
    n = integer(value, what)
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")
    return n


def real(value: object, what: str) -> float:
    """``value`` as a float; a bool, string or other non-real raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return float(value)


def probability(value: object, what: str) -> float:
    """``value`` as a float in [0, 1]."""
    p = real(value, what)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{what} must lie in [0, 1], got {value}")
    return p


def fraction(value: object, what: str = "betting fraction") -> float:
    """``value`` as a float in [0, 1)."""
    f = real(value, what)
    if not 0.0 <= f < 1.0:
        raise DomainError(f"{what} must lie in [0, 1), got {value}")
    return f


def root_seed(value: object, what: str = "root_seed") -> int:
    """``value`` as an int in [0, 2**64), numpy integers included."""
    seed = integer(value, what)
    if not 0 <= seed < 2**64:
        raise DomainError(f"{what} must be a 64-bit unsigned integer, got {value!r}")
    return seed
