"""Per-period trading-system P&L analytics.

A trade series is an ordered record of periods, each Long, Short, or
Flat, carrying an additive P&L in any unit (ticks, dollars); the
statistics are unit-agnostic.  It is held as three columns (period ids,
side letters, P&L), and the statistics are numpy reductions over masks
and slices of them.  ``summarize`` reproduces the classic summary-table
columns:

    np npi maxdd pnlpp ir pnltot sdpnl winpct runs runspvu

Semantics worth spelling out:

* Filter universe: ``All`` keeps every period; ``Long``/``Short`` keep
  only that side.  ``np`` counts the universe, ``npi`` counts positioned
  (non-Flat) periods inside it, so Long/Short rows have np = npi while
  the All row can have npi < np.
* ``pnltot`` is the plain sum of per-period P&L, not compounded.
* ``maxdd`` is the maximum peak-to-trough decline of the cumulative-P&L
  curve in additive units.  It is stored as a positive magnitude; the
  display convention is a leading minus sign (see ``display_fields``).
* A win is pnl strictly > 0.  Zero-P&L positioned periods count as
  non-wins for ``winpct`` but do not break runs: they extend whatever
  run is open, which is implemented by stripping zeros from the run
  indicator sequence.
* ``runspvu`` is the one-sided left tail P[R <= observed runs] under the
  null that all arrangements of the observed win/loss counts are equally
  likely ("too few runs" = suspicious clustering).
* ``ir`` (mean over sample sd) is reported as NaN when the sd is zero or
  undefined; formatting layers render that as NA / null.

The normal tail of ``runspvu`` and the t-test p-value of ``ppgs_classify``
are computed in pure Python (:mod:`betlab.tails`), so a summary loads no
scipy: the normal tail is ``scipy.special.ndtr``'s value bit for bit, and
the t-test falls back to scipy's ``stdtr`` only when its p-value lies so
close to alpha that the pure value's error could change the label.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from . import render
from .errors import DomainError, EmptySelection, Ruled, SizeOf, column, instance, ruled, within
from .tails import ndtr, t_pvalue
from .wealthsim import LossKind, path_losses

# Exact runs-test enumeration up to this length; normal approximation
# with continuity correction beyond it.
_EXACT_RUNS_MAX_N = 30

# Side letters: long, short, flat.
_SIDES = ("L", "S", "F")

# The trades header, and the columns numpy's text loader reads: a side is
# read _SIDE_WIDTH wide, so that a padded side fits, and a cell that fills
# the width, which may have been cut, is refused.
_HEADER = ["period_id", "side", "pnl"]
_SIDE_WIDTH = 8
_LOADED = np.dtype([("period_id", np.int64), ("side", f"U{_SIDE_WIDTH}"), ("pnl", np.float64)])
# Characters the loader reads otherwise than ``csv`` and Python's int and
# float: a quote (csv's quoting), a NUL (numpy drops a side's trailing
# NULs) and the separators 0x1c-0x1f (numpy strips them from a number).
# Outside ASCII, numpy's integer parser misreads digits.
_NOT_PLAIN = '"\x00\x1c\x1d\x1e\x1f'

# ``ppgs_classify`` takes scipy's t-test p-value in place of the pure-Python
# one when that lies within this relative distance of alpha.  The tests hold
# the pure p-value to a tenth of it against mpmath wherever p > 1e-290 (its
# worst error measured is near 2e-13, scipy's near 3e-13), so for any alpha
# above that, both p-values fall on the same side of alpha and the label is
# scipy's.
_P_SLACK = 1e-9


class Filter(Enum):
    LONG = "long"
    SHORT = "short"
    ALL = "all"


class Ppgs(Enum):
    """Sign classification of a system's per-period expectation."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class TradeSeries(Ruled):
    """Ordered periods as three read-only columns of one length, at least one.

    ``period_id`` holds Python ints of any size (object dtype), strictly
    increasing; numpy integers become Python ints, and a bool, float or
    string is rejected.  ``side`` holds the letters L, S and F; ``pnl``
    holds finite float64 values, zero on Flat periods.  Each column is
    copied from any sequence.  A side must already be one of the letters:
    an enum member is rejected, never converted through ``str``.
    """

    period_id: np.ndarray = ruled(column, int)
    side: np.ndarray = ruled(column, None, SizeOf("period_id"))
    pnl: np.ndarray = ruled(column, float, SizeOf("period_id"))

    def __post_init__(self) -> None:
        super().__post_init__()
        ids, side, pnl = self.period_id, self.side, self.pnl
        if not (side.dtype.kind == "U" and np.isin(side, _SIDES).all()):
            raise DomainError("sides must be one of L,S,F")
        if np.any(ids[1:] <= ids[:-1]):
            raise DomainError("period_ids must be strictly increasing")
        flat = (side == "F") & (pnl != 0.0)
        if flat.any():
            k = int(flat.argmax())
            raise DomainError(f"flat period {ids[k]} carries pnl {float(pnl[k])}")

    def __len__(self) -> int:
        return self.pnl.size


@dataclass(frozen=True)
class SummaryRow:
    np: int
    npi: int
    maxdd: float
    pnlpp: float
    ir: float
    pnltot: float
    sdpnl: float
    winpct: float
    runs: int
    runspvu: float


SUMMARY_COLUMNS = tuple(field.name for field in fields(SummaryRow))


@dataclass(frozen=True)
class RunsResult:
    runs: int
    p_value_too_few: float
    degenerate: bool


def runs_test(outcomes: Sequence[bool]) -> RunsResult:
    """Runs count and left-tail p-value P[R <= observed] under the null.

    Exact hypergeometric runs distribution for n <= 30; normal
    approximation with continuity correction above.  A sequence with
    only one outcome value present is degenerate: one run, p-value 1.
    """
    flags = column(outcomes, "outcomes", bool)
    runs = 1 + int(np.count_nonzero(flags[1:] != flags[:-1]))
    n1 = int(np.count_nonzero(flags))
    n2 = flags.size - n1
    if n1 == 0 or n2 == 0:
        return RunsResult(runs=runs, p_value_too_few=1.0, degenerate=True)
    n = n1 + n2
    if n <= _EXACT_RUNS_MAX_N:
        # Count arrangements with R <= runs out of C(n, n1) equally likely
        # ones; integer arithmetic, one division at the end.
        acc = 0
        for r in range(2, runs + 1):
            k, odd = divmod(r, 2)
            if odd:
                acc += math.comb(n1 - 1, k) * math.comb(n2 - 1, k - 1)
                acc += math.comb(n1 - 1, k - 1) * math.comb(n2 - 1, k)
            else:
                acc += 2 * math.comb(n1 - 1, k - 1) * math.comb(n2 - 1, k - 1)
        p = acc / math.comb(n, n1)
    else:
        mu = 1.0 + 2.0 * n1 * n2 / n
        var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
        p = ndtr((runs + 0.5 - mu) / math.sqrt(var))  # scipy.stats.norm.cdf's bits
    return RunsResult(runs=runs, p_value_too_few=p, degenerate=False)


def _mean_sd(pnl: np.ndarray) -> tuple[float, float]:
    """Mean and sample sd (NaN for one value) of finite P&L that must not overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(pnl.mean())
        sd = float(pnl.std(ddof=1)) if pnl.size > 1 else math.nan
    if not math.isfinite(mean) or math.isinf(sd):
        raise DomainError("P&L sums overflow double precision")
    return mean, sd


def summarize(series: TradeSeries, which: Filter) -> SummaryRow:
    """Summary-table row for one filter; see module docstring for semantics."""
    instance(series, "series", TradeSeries)
    instance(which, "which", Filter)
    side, universe = series.side, series.pnl
    if which is not Filter.ALL:
        keep = side == ("L" if which is Filter.LONG else "S")
        side, universe = side[keep], universe[keep]
    if not universe.size:
        raise EmptySelection(f"no periods match filter {which.value!r}")
    pnl = universe[side != "F"]
    if not pnl.size:
        raise EmptySelection(f"no positioned periods under filter {which.value!r}")
    npi = pnl.size
    pnlpp, sdpnl = _mean_sd(pnl)
    ir = pnlpp / sdpnl if sdpnl and not math.isnan(sdpnl) else math.nan

    # Drawdown over the universe's cumulative curve, peak seeded at 0.
    with np.errstate(over="ignore", invalid="ignore"):
        cum = np.concatenate(([0.0], np.cumsum(universe)))
        maxdd = float(path_losses(cum, LossKind.DRAWDOWN))
    if not math.isfinite(maxdd):
        raise DomainError("cumulative P&L overflows double precision")

    nonzero = pnl[pnl != 0.0]
    if nonzero.size:
        rt = runs_test(nonzero > 0)
        runs, runspvu = rt.runs, rt.p_value_too_few
    else:
        runs, runspvu = 1, 1.0  # all-flat P&L: one degenerate run

    return SummaryRow(
        np=universe.size,
        npi=npi,
        maxdd=maxdd,
        pnlpp=pnlpp,
        ir=ir,
        pnltot=float(pnl.sum()),
        sdpnl=sdpnl,
        winpct=100.0 * float(np.count_nonzero(pnl > 0)) / npi,
        runs=runs,
        runspvu=runspvu,
    )


def average_gain_per_year(row: SummaryRow, n_years: float) -> float:
    """Total P&L averaged over the number of years covered."""
    instance(row, "row", SummaryRow)
    n_years = within(n_years, "n_years", 0, math.inf, "()")
    avg = row.pnltot / n_years
    if not math.isfinite(avg):
        raise DomainError(f"average gain per year overflows over {n_years} years")
    return avg


def _t_statistic(pnl: np.ndarray) -> tuple[float, int]:
    """t of the one-sample t-test of mean 0, and its degrees of freedom.

    Step for step the arithmetic of ``scipy.stats.ttest_1samp``, so t
    agrees to the last bit; ``np.var(ddof=1)`` would not.
    """
    n = pnl.size
    m = pnl.mean()
    v = np.mean((pnl - m) ** 2) * (n / (n - 1))
    return float(m / math.sqrt(v / n)), n - 1


def _ttest_pvalue(pnl: np.ndarray) -> float:
    """Two-sided p-value of the one-sample t-test of mean 0, bit for bit
    ``scipy.stats.ttest_1samp``'s."""
    from scipy.special import stdtr

    t, df = _t_statistic(pnl)
    return float(2 * stdtr(df, -abs(t)))


def ppgs_classify(series: TradeSeries, alpha: float = 0.05) -> Ppgs:
    """Sign of the per-period expectation, by one-sample t-test.

    Positive/Negative require at least 30 positioned periods and a
    two-sided p-value below ``alpha``; anything else is Indeterminate.
    Zero-variance series skip the test and classify by the sign of the
    (constant) mean.  The p-value is ``tails.t_pvalue``'s, or scipy's
    within ``_P_SLACK`` of ``alpha``, so the label is what scipy's gives.
    """
    instance(series, "series", TradeSeries)
    alpha = within(alpha, "alpha", 0, 1, "()")
    pnl = series.pnl[series.side != "F"]
    if pnl.size < 30:
        return Ppgs.INDETERMINATE
    mean, sd = _mean_sd(pnl)
    if sd != 0.0:
        p_value = t_pvalue(*_t_statistic(pnl))
        if p_value is None or abs(p_value - alpha) <= _P_SLACK * alpha:
            p_value = _ttest_pvalue(pnl)
        if not p_value < alpha:
            return Ppgs.INDETERMINATE
    if mean > 0:
        return Ppgs.POSITIVE
    if mean < 0:
        return Ppgs.NEGATIVE
    return Ppgs.INDETERMINATE


def _loaded(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The record's three columns read by numpy's C text loader, or None
    when a row may be at fault, for the row reader to name.  Its cells must
    be plain: ASCII without the characters of ``_NOT_PLAIN``, no line past
    ``csv``'s field limit, ids that fit int64, sides narrower than
    ``_SIDE_WIDTH`` and, stripped and upper-cased, L, S or F, and finite
    P&L.  A warning while numpy reads (a table without rows, or a cell read
    leniently) refuses the file."""
    text = "".join(lines)
    if (not text.isascii() or any(c in text for c in _NOT_PLAIN)
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, _LOADED, delimiter=",", comments=None,
                               usecols=(0, 1, 2), ndmin=1)
    except (ValueError, Warning):  # a cell numpy refuses or reads leniently
        return None
    if np.char.str_len(table["side"]).max() == _SIDE_WIDTH:  # a cell may be cut
        return None
    side = np.char.strip(table["side"])
    lower = ~np.isin(side, _SIDES)  # only these are upper-cased: np.char.upper is slow
    side[lower] = np.char.upper(side[lower])
    if not (np.isin(side, _SIDES).all() and np.isfinite(table["pnl"]).all()):
        return None
    return table["period_id"], side.astype("U1"), table["pnl"]


def _read_rows(lines: list[str]) -> tuple[list[int], list[str], list[float]]:
    """The record's three columns read row by row by ``csv``, in one pass.
    Each row is checked as it is read (side, then period_id and pnl, then
    finiteness; a short row's missing cells read as None), so the first bad
    line in the file is the one named, and only the three columns are kept.
    ``lines`` is emptied once read."""
    ids, sides, pnls = [], [], []
    try:
        for line, row in enumerate(filter(None, csv.reader(lines)), start=2):  # a blank line: []
            period_id, side, pnl = (row + [None, None])[:3]
            # numpy's unicode column drops trailing NULs, so "L\0" reads as L.
            letter = (side or "").strip().upper().rstrip("\x00")
            if letter not in _SIDES:
                raise DomainError(f"line {line}: side must be one of L,S,F, got {side!r}")
            try:
                number, value = int(period_id), float(pnl)
            except (TypeError, ValueError) as exc:  # TypeError: a short row
                raise DomainError(f"line {line}: {exc}") from None
            if not math.isfinite(value):
                raise DomainError(f"line {line}: pnl must be finite, got {pnl!r}")
            ids.append(number)
            sides.append(letter)
            pnls.append(value)
    except csv.Error as exc:  # such as a cell past csv.field_size_limit()
        raise DomainError(f"line {len(pnls) + 2}: {exc}") from None
    lines.clear()
    if not pnls:
        raise DomainError("no data rows in trades CSV")
    return ids, sides, pnls


def read_trades_csv(fh: IO[str]) -> TradeSeries:
    """Parse the trades schema: header period_id,side,pnl; side in {L,S,F}.

    Sides may be lower case and padded, cells may be quoted, cells after
    the third are ignored, and blank lines are skipped.  The header is
    read by ``csv``, the data lines as ``fh`` splits them.  A record of
    plain cells (see ``_loaded``) is read by numpy's text loader; any
    other, one with a bad row included, row by row by ``csv``
    (``_read_rows``), which names the first bad row by its line number,
    blank lines not counted.  ``TradeSeries`` then judges the whole record
    once (id order, no P&L on a flat period).  One leading byte-order mark,
    as spreadsheets write, is skipped.
    """
    first = fh.readline().removeprefix("\ufeff")
    try:
        header = next(csv.reader(itertools.chain([first], fh)), None) if first else None
    except csv.Error as exc:
        raise DomainError(f"line 1: {exc}") from None
    if header is None or [c.strip() for c in header] != _HEADER:
        raise DomainError(f"expected header {','.join(_HEADER)}, got {header}")
    lines = fh.readlines()
    return TradeSeries(*(_loaded(lines) or _read_rows(lines)))


def display_fields(row: SummaryRow) -> dict[str, float | int | None]:
    """Row as an ordered mapping using display conventions.

    maxdd flips to the negative display sign; NaN (undefined ir/sdpnl)
    becomes None so JSON renders null and text renders NA.
    """
    instance(row, "row", SummaryRow)
    values = {name: getattr(row, name) for name in SUMMARY_COLUMNS}
    values["maxdd"] = -row.maxdd or 0.0  # not -0.0 when there is no drawdown
    return {
        name: None if isinstance(x, float) and math.isnan(x) else x
        for name, x in values.items()
    }


def format_summary_text(rows: Sequence[tuple[str, SummaryRow]]) -> str:
    """Aligned text table in the canonical column order, one row per label."""
    header = ["", *SUMMARY_COLUMNS]
    instance(rows, "rows", Iterable)
    body = [[label, *map(render.cell, display_fields(row).values())] for label, row in rows]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()
        for line in [header, *body]
    ]
    return "\n".join(lines)
