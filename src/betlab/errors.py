"""Exception types shared across the package, and the input rules.

Every public entry point checks its integers (counts, array lengths, seeds),
probabilities, betting fractions, other reals and arrays with the functions
below, so each rule and its message are written once.  Each rejects NaN,
infinities, bools, strings and out-of-range values with a
:class:`DomainError`; numpy numbers pass.  An enum, record or strategy
argument is checked by type with :func:`instance`.

A record states each field's rule where it declares the field, with
:func:`ruled`, and subclasses :class:`Ruled`, which applies the rules in
declaration order: of two bad fields, the one declared first is named.
A column whose length follows an earlier column's takes :class:`SizeOf`
that column as its size, so a record of columns declares them all.
"""

import dataclasses
import math
import numbers
import operator
import sys

# The longest float64 array numpy can size: its byte count must fit an intp.
MAX_LENGTH = sys.maxsize // 8


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


def instance(value: object, what: str, *types: type) -> object:
    """``value`` itself when it is an instance of one of ``types``; anything
    else, an enum member's string value included, raises."""
    if isinstance(value, types):
        return value
    names = " or ".join(t.__name__ for t in types)
    article = "an" if names[0] in "AEIOU" else "a"
    raise DomainError(f"{what} must be {article} {names}, got {shown(value, repr)}")


def ruled(rule, *args: object, what: str | None = None, default: object = dataclasses.MISSING):
    """A dataclass field that :class:`Ruled` checks with ``rule(value, what,
    *args)``; ``what``, the word of its message, defaults to the field's name,
    and a :class:`SizeOf` argument stands for an earlier field's size."""
    return dataclasses.field(default=default, metadata={"rule": (rule, what, args)})


@dataclasses.dataclass(frozen=True)
class SizeOf:
    """A :func:`ruled` argument: the size of the earlier field ``name``, less ``less``."""

    name: str
    less: int = 0


class Ruled:
    """Base of a frozen dataclass: each :func:`ruled` field is checked in
    declaration order and holds what its rule returns, so a :class:`SizeOf`
    reads a field that is already checked."""

    def __post_init__(self) -> None:
        for field in self.__dataclass_fields__.values():
            if "rule" in field.metadata:
                rule, what, args = field.metadata["rule"]
                args = [getattr(self, a.name).size - a.less if type(a) is SizeOf else a
                        for a in args]
                value = rule(getattr(self, field.name), what or field.name, *args)
                object.__setattr__(self, field.name, value)


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


# Default root seed used by the CLI when neither --seed nor the
# GRATIONAL_SEED environment variable is given.
DEFAULT_SEED = 0xD1CE5EED


def root_seed(value: object, what: str = "root_seed") -> int:
    """``value`` as an int in [0, 2**64), numpy integers included."""
    return integer(value, what, 0, 2**64 - 1)


# How a column of each dtype is first converted (None: numpy's own choice),
# the numpy kinds its entries may then have, and their word in a message.
# Like ``real``, a float column takes no bools or strings.  An int column
# holds Python ints of any size in an object array, so its entries' types
# are checked one by one, as ``integer`` checks a number.
_KINDS = {
    float: (None, "iuf", "real "),
    bool: (None, "b", "bool "),
    int: (object, "O", "integer "),
}


def column(value: object, what: str, dtype: type | None = None, size: int | None = None):
    """``value`` as a new, read-only, 1-d numpy array of ``dtype`` with ``size``
    entries, or at least one when None; a float column must be finite, and an
    int column (object dtype) holds Python ints, numpy integers converted."""
    import numpy as np  # here, so that importing this module loads no numpy

    first, kinds, word = _KINDS.get(dtype, (dtype, "", ""))
    entries = f"at least one {word}entry" if size is None else f"{size} {word}entries"
    try:  # a float or bool column converts once its entries' kind is checked
        array = np.array(value, dtype=first)
        got = f"shape {array.shape} of {array.dtype}"
    except (TypeError, ValueError):
        array, got = np.array(None), "a ragged or unconvertible value"
    sized = array.size >= 1 if size is None else array.size == size
    # numpy types an empty list as float64, so only entries have a kind to check.
    if array.ndim != 1 or not sized or (array.size and kinds and array.dtype.kind not in kinds):
        raise DomainError(f"{what} must be a 1-d sequence of {entries}, got {got}")
    if dtype is int:
        values = array.tolist()
        types = set(map(type, values))  # one pass in C, not a call per entry
        if types != {int}:
            bad = {t for t in types if t is bool or not issubclass(t, (int, np.integer))}
            if bad:
                k = next(i for i, v in enumerate(values) if type(v) in bad)
                got = f"{shown(values[k], repr)} at index {k}"
                raise DomainError(f"{what} must be a 1-d sequence of {entries}, got {got}")
            array = np.array(list(map(int, values)), dtype=object)
    array = array.astype(first or dtype or array.dtype, copy=False)
    if dtype is float and not np.isfinite(array).all():
        k = int(np.argmin(np.isfinite(array)))
        raise DomainError(f"{what} must be finite, got {array[k]} at index {k}")
    array.flags.writeable = False
    return array
