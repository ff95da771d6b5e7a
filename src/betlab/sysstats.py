"""Per-period trading-system P&L analytics.

A trade series is an ordered list of periods, each Long, Short, or Flat,
carrying an additive P&L in any unit (ticks, dollars); the statistics
are unit-agnostic.  ``summarize`` reproduces the classic summary-table
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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Sequence

import numpy as np

from .errors import DomainError, EmptySelection

# Exact runs-test enumeration up to this length; normal approximation
# with continuity correction beyond it.
_EXACT_RUNS_MAX_N = 30

_SIDE_LETTERS = {"L": "LONG", "S": "SHORT", "F": "FLAT"}

SUMMARY_COLUMNS = (
    "np", "npi", "maxdd", "pnlpp", "ir",
    "pnltot", "sdpnl", "winpct", "runs", "runspvu",
)


class Side(Enum):
    LONG = "L"
    SHORT = "S"
    FLAT = "F"


class Filter(Enum):
    LONG = "long"
    SHORT = "short"
    ALL = "all"


class Ppgs(Enum):
    """Sign classification of a system's per-period expectation."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TradeRecord:
    period_id: int
    side: Side
    pnl: float


@dataclass(frozen=True)
class TradeSeries:
    """Ordered per-period records with finite P&L; Flat periods carry zero."""

    records: tuple[TradeRecord, ...]

    def __post_init__(self) -> None:
        records = tuple(self.records)
        ids = [r.period_id for r in records]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise DomainError("period_ids must be strictly increasing")
        for r in records:
            if not math.isfinite(r.pnl):
                raise DomainError(f"period {r.period_id}: pnl must be finite, got {r.pnl}")
            if r.side is Side.FLAT and r.pnl != 0.0:
                raise DomainError(f"flat period {r.period_id} carries pnl {r.pnl}")
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)


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


@dataclass(frozen=True)
class RunsResult:
    runs: int
    p_value_too_few: float
    degenerate: bool


def _universe(series: TradeSeries, which: Filter) -> list[TradeRecord]:
    if which is Filter.ALL:
        return list(series.records)
    side = Side.LONG if which is Filter.LONG else Side.SHORT
    return [r for r in series.records if r.side is side]


def runs_test(outcomes: Sequence[bool]) -> RunsResult:
    """Runs count and left-tail p-value P[R <= observed] under the null.

    Exact hypergeometric runs distribution for n <= 30; normal
    approximation with continuity correction above.  A sequence with
    only one outcome value present is degenerate: one run, p-value 1.
    """
    flags = [bool(x) for x in outcomes]
    if not flags:
        raise DomainError("runs test needs a nonempty sequence")
    runs = 1 + sum(a != b for a, b in zip(flags, flags[1:]))
    n1 = sum(flags)
    n2 = len(flags) - n1
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
        from scipy.special import ndtr  # the kernel of scipy.stats.norm.cdf

        p = float(ndtr((runs + 0.5 - mu) / math.sqrt(var)))
    return RunsResult(runs=runs, p_value_too_few=min(max(p, 0.0), 1.0), degenerate=False)


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
    universe = _universe(series, which)
    if not universe:
        raise EmptySelection(f"no periods match filter {which.value!r}")
    in_market = [r for r in universe if r.side is not Side.FLAT]
    if not in_market:
        raise EmptySelection(f"no positioned periods under filter {which.value!r}")
    pnl = np.asarray([r.pnl for r in in_market], dtype=float)
    npi = pnl.size
    pnlpp, sdpnl = _mean_sd(pnl)
    ir = pnlpp / sdpnl if sdpnl and not math.isnan(sdpnl) else math.nan

    # Drawdown over the universe's cumulative curve, peak seeded at 0.
    with np.errstate(over="ignore", invalid="ignore"):
        cum = np.concatenate(([0.0], np.cumsum([r.pnl for r in universe])))
        maxdd = float(np.max(np.maximum.accumulate(cum) - cum))
    if not math.isfinite(maxdd):
        raise DomainError("cumulative P&L overflows double precision")

    signs = [r.pnl > 0 for r in in_market if r.pnl != 0.0]
    if signs:
        rt = runs_test(signs)
        runs, runspvu = rt.runs, rt.p_value_too_few
    else:
        runs, runspvu = 1, 1.0  # all-flat P&L: one degenerate run

    return SummaryRow(
        np=len(universe),
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


def cumulative_pnl(series: TradeSeries) -> list[tuple[int, float]]:
    """Running P&L sum over all periods: [(period_id, cum_pnl), ...]."""
    if not series.records:
        raise DomainError("series is empty")
    out = []
    total = 0.0
    for r in series.records:
        total += r.pnl
        out.append((r.period_id, total))
    return out


def average_gain_per_year(row: SummaryRow, n_years: float) -> float:
    """Total P&L averaged over the number of years covered."""
    if not (math.isfinite(n_years) and n_years > 0):
        raise DomainError(f"n_years must be positive and finite, got {n_years}")
    avg = row.pnltot / n_years
    if not math.isfinite(avg):
        raise DomainError(f"average gain per year overflows over {n_years} years")
    return avg


def _ttest_pvalue(pnl: np.ndarray) -> float:
    """Two-sided p-value of the one-sample t-test of mean 0.

    Step for step the arithmetic of ``scipy.stats.ttest_1samp``, so the
    value agrees to the last bit; ``np.var(ddof=1)`` would not.
    """
    from scipy.special import stdtr

    n = pnl.size
    m = pnl.mean()
    v = np.mean((pnl - m) ** 2) * (n / (n - 1))
    t = m / math.sqrt(v / n)
    return float(2 * stdtr(n - 1, -abs(t)))


def ppgs_classify(series: TradeSeries, alpha: float = 0.05) -> Ppgs:
    """Sign of the per-period expectation, by one-sample t-test.

    Positive/Negative require at least 30 positioned periods and a
    two-sided p-value below ``alpha``; anything else is Indeterminate.
    Zero-variance series skip the test and classify by the sign of the
    (constant) mean.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    pnl = np.asarray(
        [r.pnl for r in series.records if r.side is not Side.FLAT], dtype=float
    )
    if pnl.size < 30:
        return Ppgs.INDETERMINATE
    mean, sd = _mean_sd(pnl)
    if sd == 0.0:
        if mean > 0:
            return Ppgs.POSITIVE
        if mean < 0:
            return Ppgs.NEGATIVE
        return Ppgs.INDETERMINATE
    p_value = _ttest_pvalue(pnl)
    if p_value < alpha and mean > 0:
        return Ppgs.POSITIVE
    if p_value < alpha and mean < 0:
        return Ppgs.NEGATIVE
    return Ppgs.INDETERMINATE


def read_trades_csv(fh: IO[str]) -> TradeSeries:
    """Parse the trades schema: header period_id,side,pnl; side in {L,S,F}."""
    reader = csv.DictReader(fh)
    expected = ["period_id", "side", "pnl"]
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != expected:
        raise DomainError(f"expected header {','.join(expected)}, got {reader.fieldnames}")
    records = []
    for i, row in enumerate(reader, start=2):
        letter = (row["side"] or "").strip().upper()
        if letter not in _SIDE_LETTERS:
            raise DomainError(f"line {i}: side must be one of L,S,F, got {row['side']!r}")
        try:
            period_id, pnl = int(row["period_id"]), float(row["pnl"])
        except (TypeError, ValueError) as exc:  # TypeError: a short row
            raise DomainError(f"line {i}: {exc}") from exc
        if not math.isfinite(pnl):
            raise DomainError(f"line {i}: pnl must be finite, got {row['pnl']!r}")
        records.append(TradeRecord(period_id=period_id, side=Side(letter), pnl=pnl))
    if not records:
        raise DomainError("no data rows in trades CSV")
    return TradeSeries(records=tuple(records))


def display_fields(row: SummaryRow) -> dict[str, float | int | None]:
    """Row as an ordered mapping using display conventions.

    maxdd flips to the negative display sign; NaN (undefined ir/sdpnl)
    becomes None so JSON renders null and text renders NA.
    """

    def clean(x: float) -> float | None:
        return None if math.isnan(x) else x

    return {
        "np": row.np,
        "npi": row.npi,
        "maxdd": -row.maxdd,
        "pnlpp": clean(row.pnlpp),
        "ir": clean(row.ir),
        "pnltot": clean(row.pnltot),
        "sdpnl": clean(row.sdpnl),
        "winpct": clean(row.winpct),
        "runs": row.runs,
        "runspvu": clean(row.runspvu),
    }


def format_summary_text(rows: Sequence[tuple[str, SummaryRow]]) -> str:
    """Aligned text table in the canonical column order, one row per label."""
    header = ["", *SUMMARY_COLUMNS]
    body = []
    for label, row in rows:
        fields = display_fields(row)
        body.append(
            [label]
            + [
                "NA" if v is None else (str(v) if isinstance(v, int) else format(v, ".12g"))
                for v in fields.values()
            ]
        )
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()
        for line in [header, *body]
    ]
    return "\n".join(lines)


def format_summary_json(rows: Sequence[tuple[str, SummaryRow]]) -> str:
    """JSON object keyed by row label, full precision."""
    return json.dumps(
        {label: display_fields(row) for label, row in rows}, indent=2, allow_nan=False
    )
