import csv
import io
import math
import tracemalloc
import warnings
from enum import Enum

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betlab import render, sysstats
from betlab.errors import DomainError, EmptySelection
from betlab.sysstats import (
    _ttest_pvalue,
    Filter,
    Ppgs,
    SummaryRow,
    TradeSeries,
    average_gain_per_year,
    display_fields,
    format_summary_text,
    ppgs_classify,
    read_trades_csv,
    runs_test,
    summarize,
)
from betlab.tails import t_pvalue


def series_of(*entries) -> TradeSeries:
    """Periods 1, 2, ... with the given (side letter, pnl) pairs."""
    return TradeSeries(
        period_id=list(range(1, len(entries) + 1)),
        side=[side for side, _ in entries],
        pnl=[float(pnl) for _, pnl in entries],
    )


FIXTURE = series_of(
    ("L", 3.0), ("S", -1.0), ("F", 0.0), ("L", 2.0), ("L", -4.0),
    ("S", 5.0), ("F", 0.0), ("L", 0.0), ("S", -2.0), ("L", 6.0),
)


def exact_runs_left_tail(n1: int, n2: int, r_obs: int) -> float:
    # independent reimplementation used as the oracle for the normal branch
    acc = 0
    for r in range(2, r_obs + 1):
        k, odd = divmod(r, 2)
        if odd:
            acc += math.comb(n1 - 1, k) * math.comb(n2 - 1, k - 1)
            acc += math.comb(n1 - 1, k - 1) * math.comb(n2 - 1, k)
        else:
            acc += 2 * math.comb(n1 - 1, k - 1) * math.comb(n2 - 1, k - 1)
    return acc / math.comb(n1 + n2, n1)


class Side(Enum):
    """Side letters as enum members.  ``str(Side.LONG)`` is "Side.LONG",
    which a cast to one character would cut to the valid letter "S"."""

    LONG = "L"
    SHORT = "S"


class TestTradeSeries:
    def test_ids_strictly_increasing(self):
        with pytest.raises(DomainError):
            TradeSeries(period_id=[2, 2], side=["L", "L"], pnl=[1.0, 1.0])

    def test_flat_must_be_zero(self):
        with pytest.raises(DomainError):
            TradeSeries(period_id=[1], side=["F"], pnl=[0.5])

    @pytest.mark.parametrize(
        "sides",
        [["L", "X"], ["L", "l"], ["L", ""], ["LS", "L"], ["L", 1],
         ["L", Side.SHORT], [Side.LONG, Side.LONG]],
    )
    def test_side_must_be_a_letter(self, sides):
        with pytest.raises(DomainError, match="sides must be one of L,S,F"):
            TradeSeries(period_id=[1, 2], side=sides, pnl=[1.0, -1.0])

    def test_ids_of_any_size(self):
        ids = [2**70, 2**70 + 1]
        series = TradeSeries(period_id=ids, side=["L", "S"], pnl=[1.0, -1.0])
        assert series.period_id.tolist() == ids

    def test_columns_are_read_only_copies(self):
        pnl = np.array([1.0, -1.0])
        series = TradeSeries(period_id=[1, 2], side=["L", "S"], pnl=pnl)
        pnl[0] = 5.0
        assert series.pnl[0] == 1.0
        with pytest.raises(ValueError):
            series.pnl[0] = 5.0

    def test_columns_must_match(self):
        with pytest.raises(DomainError, match="side must be a 1-d sequence of 2 entries"):
            TradeSeries(period_id=[1, 2], side=["L"], pnl=[1.0, 2.0])


class TestRunsTest:
    def test_alternation_reaches_max_runs(self):
        result = runs_test([True, False, True, False, True])
        assert result.runs == 5
        assert result.p_value_too_few == 1.0

    def test_two_blocks(self):
        result = runs_test([True, True, True, False, False])
        assert result.runs == 2
        # frozen left tail of the exact runs distribution for n1=3, n2=2:
        # P(R=2)=0.2, P(3)=0.3, P(4)=0.4, P(5)=0.1
        assert result.p_value_too_few == pytest.approx(0.2, abs=1e-15)

    def test_left_tail_accumulates(self):
        assert runs_test([True, True, False, True, False]).p_value_too_few == (
            pytest.approx(0.9, abs=1e-15)
        )

    def test_all_same_is_degenerate(self):
        result = runs_test([True, True, True])
        assert result.degenerate
        assert result.runs == 1
        assert result.p_value_too_few == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            runs_test([])

    @given(st.lists(st.booleans(), min_size=2, max_size=10))
    @settings(max_examples=200)
    def test_exact_branch_matches_brute_force(self, flags):
        from itertools import combinations

        n1 = sum(flags)
        n2 = len(flags) - n1
        if n1 == 0 or n2 == 0:
            return
        observed = runs_test(flags)

        def run_count(seq):
            return 1 + sum(a != b for a, b in zip(seq, seq[1:]))

        total = 0
        hits = 0
        n = len(flags)
        for positions in combinations(range(n), n1):
            seq = [i in positions for i in range(n)]
            total += 1
            if run_count(seq) <= observed.runs:
                hits += 1
        assert observed.p_value_too_few == pytest.approx(hits / total, abs=1e-12)

    def test_normal_branch_close_to_exact(self):
        flags = [True] * 20 + [False] * 20
        rng = np.random.default_rng(5)
        perm = list(rng.permutation(flags))
        result = runs_test(perm)
        exact = exact_runs_left_tail(20, 20, result.runs)
        assert result.p_value_too_few == pytest.approx(exact, abs=0.01)

    def test_normal_branch_clamped_to_unit_interval(self):
        assert 0.0 <= runs_test([True, False] * 20).p_value_too_few <= 1.0


class TestSummarize:
    def test_all_wins(self):
        row = summarize(series_of(*[("L", 1.0)] * 5), Filter.ALL)
        assert (row.np, row.npi) == (5, 5)
        assert row.winpct == 100.0
        assert row.runs == 1
        assert row.maxdd == 0.0

    def test_fixture_all_row(self):
        row = summarize(FIXTURE, Filter.ALL)
        assert (row.np, row.npi) == (10, 8)
        assert row.pnlpp == pytest.approx(1.125)
        assert row.pnltot == pytest.approx(9.0)
        assert row.winpct == pytest.approx(50.0)
        assert row.maxdd == pytest.approx(4.0)
        assert row.sdpnl == pytest.approx(math.sqrt(84.875 / 7), abs=1e-12)
        assert row.ir == pytest.approx(row.pnlpp / row.sdpnl)
        assert row.runs == 7  # zero-pnl period extends a run, never breaks one
        assert row.runspvu == 1.0

    def test_fixture_long_row(self):
        row = summarize(FIXTURE, Filter.LONG)
        assert (row.np, row.npi) == (5, 5)
        assert row.pnlpp == pytest.approx(1.4)
        assert row.pnltot == pytest.approx(7.0)
        assert row.winpct == pytest.approx(60.0)
        assert row.maxdd == pytest.approx(4.0)
        assert row.runs == 3

    def test_fixture_short_row(self):
        row = summarize(FIXTURE, Filter.SHORT)
        assert (row.np, row.npi) == (3, 3)
        assert row.pnltot == pytest.approx(2.0)
        assert row.maxdd == pytest.approx(2.0)
        assert row.winpct == pytest.approx(100.0 / 3.0)

    def test_sides_sum_to_all(self):
        total = summarize(FIXTURE, Filter.ALL).pnltot
        long_tot = summarize(FIXTURE, Filter.LONG).pnltot
        short_tot = summarize(FIXTURE, Filter.SHORT).pnltot
        assert total == pytest.approx(long_tot + short_tot)

    def test_mean_times_count_is_total(self):
        row = summarize(FIXTURE, Filter.ALL)
        assert row.pnlpp * row.npi == pytest.approx(row.pnltot, abs=1e-9)

    def test_cumulative_overflow_rejected(self):
        # One double below DBL_MAX / 17 each: the mean and sd stay finite,
        # but the cumulative P&L passes DBL_MAX at the 17th period.
        series = series_of(*[("L", 1.0574665499190091e307)] * 17)
        with pytest.raises(DomainError, match="^cumulative P&L overflows double precision$"):
            summarize(series, Filter.ALL)

    def test_mean_overflow_rejected(self):
        # Two P&L of 1e308 sum past DBL_MAX, so their mean is not finite.
        series = series_of(("L", 1e308), ("L", 1e308))
        with pytest.raises(DomainError, match="^P&L sums overflow double precision$"):
            summarize(series, Filter.ALL)

    def test_empty_filter_rejected(self):
        with pytest.raises(EmptySelection):
            summarize(series_of(("L", 1.0)), Filter.SHORT)

    @pytest.mark.parametrize("which", ["all", "long", "short", None, 0, "Filter.ALL"])
    def test_filter_must_be_a_filter(self, which):
        # Each of these once selected the Short row of an L/S/L series.
        with pytest.raises(DomainError, match="which must be a Filter"):
            summarize(series_of(("L", 1.0), ("S", -2.0), ("L", 1.0)), which)

    def test_all_flat_rejected(self):
        with pytest.raises(EmptySelection):
            summarize(series_of(("F", 0.0), ("F", 0.0)), Filter.ALL)

    def test_zero_variance_ir_is_undefined_marker(self):
        row = summarize(series_of(("L", 1.0), ("L", 1.0)), Filter.ALL)
        assert math.isnan(row.ir)

    def test_zero_pnl_extends_run(self):
        assert summarize(series_of(("L", 1.0), ("L", 0.0), ("L", 1.0)), Filter.ALL).runs == 1
        assert summarize(series_of(("L", 1.0), ("L", 0.0), ("L", -1.0)), Filter.ALL).runs == 2

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50).map(lambda x: round(x, 3)),
            min_size=1,
            max_size=30,
        )
    )
    def test_maxdd_never_decreases_when_appending(self, pnls):
        rows = []
        for k in range(1, len(pnls) + 1):
            rows.append(summarize(series_of(*[("L", v) for v in pnls[:k]]), Filter.ALL))
        dds = [r.maxdd for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(dds, dds[1:]))
        assert all(d >= 0 for d in dds)

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_ir_invariant_under_positive_rescale(self, scale):
        base = summarize(FIXTURE, Filter.ALL)
        scaled = summarize(
            series_of(*zip(FIXTURE.side.tolist(), (FIXTURE.pnl * scale).tolist())),
            Filter.ALL,
        )
        assert scaled.ir == pytest.approx(base.ir, rel=1e-9)
        assert scaled.pnltot == pytest.approx(base.pnltot * scale, rel=1e-9)


class TestAveragePerYear:
    def test_per_year_aggregation(self):
        row = SummaryRow(
            np=76, npi=76, maxdd=77.49, pnlpp=8.2, ir=0.32,
            pnltot=623.50, sdpnl=25.55, winpct=57.89, runs=38, runspvu=0.74,
        )
        assert average_gain_per_year(row, 19) == pytest.approx(32.81578947368421)

    def test_rejects_nonpositive_years(self):
        row = summarize(FIXTURE, Filter.ALL)
        with pytest.raises(DomainError):
            average_gain_per_year(row, 0)


class TestPpgsClassify:
    def test_constant_positive(self):
        assert ppgs_classify(series_of(*[("L", 1.0)] * 30)) is Ppgs.POSITIVE

    def test_constant_negative(self):
        assert ppgs_classify(series_of(*[("S", -1.0)] * 30)) is Ppgs.NEGATIVE

    def test_constant_zero(self):
        assert ppgs_classify(series_of(*[("L", 0.0)] * 30)) is Ppgs.INDETERMINATE

    def test_too_few_observations(self):
        assert ppgs_classify(series_of(*[("L", 1.0)] * 29)) is Ppgs.INDETERMINATE

    def test_null_is_mostly_indeterminate(self):
        rng = np.random.default_rng(11)
        verdicts = []
        for _ in range(40):
            pnls = rng.choice([-1.0, 1.0], size=500)
            verdicts.append(ppgs_classify(series_of(*[("L", v) for v in pnls])))
        frac = sum(v is Ppgs.INDETERMINATE for v in verdicts) / len(verdicts)
        assert frac >= 0.85  # roughly 1 - alpha under the null

    def test_clear_positive_drift(self):
        rng = np.random.default_rng(13)
        pnls = rng.normal(loc=1.0, scale=1.0, size=200)
        assert ppgs_classify(series_of(*[("L", v) for v in pnls])) is Ppgs.POSITIVE


class TestScipyOracle:
    """scipy.stats computes these values from the same kernels; the match is bitwise."""

    @given(st.lists(st.booleans(), min_size=31, max_size=400))
    @settings(max_examples=300, deadline=None)  # the first call imports scipy.stats
    def test_runs_normal_branch_is_norm_cdf(self, flags):
        from scipy.stats import norm

        n1 = sum(flags)
        n2 = len(flags) - n1
        if n1 == 0 or n2 == 0:
            return
        n = n1 + n2
        runs = 1 + sum(a != b for a, b in zip(flags, flags[1:]))
        mu = 1.0 + 2.0 * n1 * n2 / n
        var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
        expected = float(norm.cdf((runs + 0.5 - mu) / math.sqrt(var)))
        assert runs_test(flags).p_value_too_few == min(max(expected, 0.0), 1.0)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e9, max_value=1e9),
                st.integers(min_value=-50, max_value=50).map(float),
            ),
            min_size=2,
            max_size=300,
        ),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=400, deadline=None)  # the first call imports scipy.stats
    def test_ttest_pvalue_is_ttest_1samp(self, values, shift):
        from scipy.stats import ttest_1samp

        pnl = np.asarray(values) + shift
        if float(pnl.std(ddof=1)) == 0.0:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss note
            expected = float(ttest_1samp(pnl, 0.0).pvalue)
        assert _ttest_pvalue(pnl) == expected

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=30, max_size=200),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1e-9, max_value=0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_ppgs_label_is_ttest_1samps(self, values, shift, alpha):
        # At scipy's own p and at both of its neighbouring doubles, scipy's
        # p-value decides the label; at the drawn alpha, mostly the pure one.
        from scipy.stats import ttest_1samp

        pnl = np.asarray(values) + shift
        assume(float(pnl.std(ddof=1)) != 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss note
            p = float(ttest_1samp(pnl, 0.0).pvalue)
        series = series_of(*[("L", v) for v in pnl])
        mean = float(pnl.mean())
        for a in (alpha, p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)):
            if not 0.0 < a < 1.0:
                continue
            expected = Ppgs.INDETERMINATE
            if p < a and mean != 0.0:
                expected = Ppgs.POSITIVE if mean > 0 else Ppgs.NEGATIVE
            assert ppgs_classify(series, a) is expected, a


class TestPpgsFallback:
    """scipy's p-value is taken only within ``_P_SLACK`` of alpha."""

    SERIES = series_of(*[("L", v) for v in np.random.default_rng(3).normal(0.3, 1.0, 40)])

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        calls = []
        scipy_pvalue = sysstats._ttest_pvalue
        monkeypatch.setattr(
            sysstats, "_ttest_pvalue", lambda pnl: calls.append(pnl) or scipy_pvalue(pnl)
        )
        return calls

    def test_only_within_slack_of_alpha(self, scipy_calls):
        p = t_pvalue(*sysstats._t_statistic(self.SERIES.pnl))
        slack = sysstats._P_SLACK
        factors = [2.0, 1 + 1.5 * slack, 1 + 0.5 * slack, 1.0]
        factors += [1 - 0.5 * slack, 1 - 1.5 * slack, 0.5]
        called = []
        for factor in factors:
            scipy_calls.clear()
            label = ppgs_classify(self.SERIES, p * factor)
            called.append(len(scipy_calls))
            assert label is (Ppgs.POSITIVE if factor > 1 else Ppgs.INDETERMINATE)
        assert called == [0, 0, 1, 1, 1, 0, 0]

    def test_when_the_fraction_does_not_converge(self, scipy_calls, monkeypatch):
        monkeypatch.setattr(sysstats, "t_pvalue", lambda t, df: None)
        assert ppgs_classify(self.SERIES, 0.5) is Ppgs.POSITIVE
        assert len(scipy_calls) == 1


class TestCsvAndFormatting:
    def test_roundtrip(self):
        text = "period_id,side,pnl\n1,L,3.5\n2,S,-1.25\n3,F,0\n"
        series = read_trades_csv(io.StringIO(text))
        assert len(series) == 3
        assert series.side[1] == "S"
        assert series.pnl[1] == -1.25

    def test_bad_header(self):
        with pytest.raises(DomainError):
            read_trades_csv(io.StringIO("id,side,pnl\n1,L,1\n"))

    def test_bad_side(self):
        with pytest.raises(DomainError, match="side"):
            read_trades_csv(io.StringIO("period_id,side,pnl\n1,X,1\n"))

    @pytest.mark.parametrize("header", ["period_id,side,pnl", '"period_id","side","pnl"'])
    def test_byte_order_mark_is_skipped(self, header):
        # One leading mark is not part of the header, from any reader, not
        # only from a file the CLI opens; a second one is.
        text = f"{header}\n1,L,1\n2,S,-0.5\n"
        plain = read_trades_csv(io.StringIO(text))
        marked = read_trades_csv(io.StringIO("\ufeff" + text))
        for name in ("period_id", "side", "pnl"):
            assert getattr(marked, name).tolist() == getattr(plain, name).tolist()
        with pytest.raises(DomainError, match="^expected header"):
            read_trades_csv(io.StringIO("\ufeff\ufeff" + text))

    def test_padded_header(self):
        series = read_trades_csv(io.StringIO("period_id, side , pnl\n1,L,3.5\n"))
        assert (series.side.tolist(), series.pnl.tolist()) == (["L"], [3.5])

    def test_text_table_column_order_and_sign(self):
        text = format_summary_text([("All", summarize(FIXTURE, Filter.ALL))])
        header, row = text.splitlines()
        assert header.split() == [
            "np", "npi", "maxdd", "pnlpp", "ir",
            "pnltot", "sdpnl", "winpct", "runs", "runspvu",
        ]
        assert row.split()[0] == "All"
        assert row.split()[3] == "-4"  # maxdd shown with the negative sign

    def test_json_handles_undefined_ir(self):
        import json

        row = summarize(series_of(("L", 1.0), ("L", 1.0)), Filter.ALL)
        payload = json.loads(json.dumps(display_fields(row), allow_nan=False))
        assert payload["ir"] is None
        assert payload["maxdd"] == 0.0

    def test_display_fields_negates_maxdd(self):
        row = summarize(FIXTURE, Filter.ALL)
        assert display_fields(row)["maxdd"] == -row.maxdd


def oracle_read_trades_csv(fh) -> tuple[list[int], list[str], list[float]]:
    """The trades reader row by row, with the checks of TradeSeries inlined:
    the reference for the columnar reader's columns and messages."""
    reader = csv.DictReader(fh)
    expected = ["period_id", "side", "pnl"]
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != expected:
        raise DomainError(f"expected header {','.join(expected)}, got {reader.fieldnames}")
    records = []
    for i, row in enumerate(reader, start=2):
        letter = (row["side"] or "").strip().upper()
        if letter not in ("L", "S", "F"):
            raise DomainError(f"line {i}: side must be one of L,S,F, got {row['side']!r}")
        try:
            period_id, pnl = int(row["period_id"]), float(row["pnl"])
        except (TypeError, ValueError) as exc:  # TypeError: a short row
            raise DomainError(f"line {i}: {exc}") from exc
        if not math.isfinite(pnl):
            raise DomainError(f"line {i}: pnl must be finite, got {row['pnl']!r}")
        records.append((period_id, letter, pnl))
    if not records:
        raise DomainError("no data rows in trades CSV")
    ids = [r[0] for r in records]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise DomainError("period_ids must be strictly increasing")
    for period_id, letter, pnl in records:
        if letter == "F" and pnl != 0.0:
            raise DomainError(f"flat period {period_id} carries pnl {pnl}")
    return ids, [r[1] for r in records], [r[2] for r in records]


HEADERS = st.sampled_from(
    ["period_id,side,pnl"] * 20
    + ["id,side,pnl", "period_id,side,pnl,note", "period_id,side", "\nperiod_id,side,pnl", ""]
)
ID_CELLS = st.sampled_from(["{i}", " {i} ", '"{i}"'])
SIDE_CELLS = st.sampled_from(["L", "S", "F", "l", " s ", "f ", '"L"', "\u017f"])
FLAT_PNL_CELLS = st.sampled_from(["0", "0.0", "-0.0", " 0 ", '"0"'])
PNL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(['"1.25"', " -2 ", "1_0", "3e-320"]),
)
# (cell index, bad cell), or a cut to fewer cells, or a flat period with P&L.
FAULTS = st.sampled_from([
    (0, "x"), (0, ""), (0, "1.5"), (0, "{prev}"),
    (1, "X"), (1, ""), (1, "LS"),
    (2, "nan"), (2, "-inf"), (2, "1e999"), (2, "abc"), (2, ""), (2, '"3,5"'),
    ("cut", 1), ("cut", 2), ("flat", "0.5"),
])


@st.composite
def trades_files(draw) -> str:
    """Trades CSV text in the spellings the reader accepts, with up to two
    bad rows and sometimes a bad header."""
    base = draw(st.sampled_from([0, 0, 2**70]))  # ids beyond int64 too
    rows = []
    for i in range(base + 1, base + draw(st.integers(0, 12)) + 1):
        side = draw(SIDE_CELLS)
        pnl = draw(FLAT_PNL_CELLS if side.strip() in ("F", "f") else PNL_CELLS)
        rows.append([draw(ID_CELLS).format(i=i), side, pnl] + ['"a, b"'] * draw(st.integers(0, 1)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        where, cell = draw(FAULTS)
        if where == "cut":
            rows[k] = rows[k][:cell]
        elif where == "flat":
            rows[k][1:3] = ["F", cell]
        elif where < len(rows[k]):  # a row cut by an earlier fault has fewer cells
            rows[k][where] = cell.format(prev=base + k)
    lines = [draw(HEADERS)]
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1])) + [",".join(row)]
    return "\n".join(lines) + "\n"


class TestReaderOracle:
    @given(trades_files())
    @settings(max_examples=500, deadline=None)
    def test_columns_or_message_match_the_row_reader(self, text):
        try:
            ids, sides, pnls = oracle_read_trades_csv(io.StringIO(text))
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                read_trades_csv(io.StringIO(text))
            assert str(got.value) == str(exc)
            return
        series = read_trades_csv(io.StringIO(text))
        assert series.period_id.tolist() == ids
        assert series.side.tolist() == sides
        assert series.pnl.tobytes() == np.array(pnls, dtype=float).tobytes()


@given(st.floats())
@example(-0.0)
@example(5e-324)
@example(math.nan)
@example(-math.inf)
def test_float_cell_is_the_template_spec(x):
    # The long tables' templates format floats by render.FLOAT; a cell is
    # the same text, and both equal the str.format spec the tables used.
    assert render.FLOAT % x == render.cell(x) == "{:.12g}".format(x)


HEAD = "period_id,side,pnl"
BIG = 2**63  # one past the largest int64 id
LONG_DIGITS = "1" * 200_000  # a cell past csv's default field limit of 131072
# Trades files that numpy's text loader refuses, must not read, or reads
# only after a look at every cell, with the columns or the message that the
# row reader gives them: the file's text (as written, line ends included),
# then (ids, sides, pnls) or the DomainError's message.  A float id is read
# by numpy 1.x as an int with only a DeprecationWarning, which refuses it.
READER_CASES = {
    "crlf": (f"{HEAD}\r\n1,L,1.5\r\n2,S,-2\r\n", ([1, 2], ["L", "S"], [1.5, -2.0])),
    "bare-cr": (f"{HEAD}\r1,L,1.5\r2,S,-2\r", ([1, 2], ["L", "S"], [1.5, -2.0])),
    "comment-line": (f"{HEAD}\n1,L,1\n# note\n2,S,1\n",
                     "line 3: side must be one of L,S,F, got None"),
    "whitespace-line": (f"{HEAD}\n1,L,1\n  \t\n2,S,1\n",
                        "line 3: side must be one of L,S,F, got None"),
    "quoted-cells": (f'{HEAD}\n"1",L,"1.5"\n2,"S",-2\n', ([1, 2], ["L", "S"], [1.5, -2.0])),
    "quoted-extra-cell-over-two-lines": (f'{HEAD}\n1,L,5,"a\n2,S,3,"\n',
                                         ([1], ["L"], [5.0])),
    "underscore-digits": (f"{HEAD}\n1_0,L,1_5\n", ([10], ["L"], [15.0])),
    "float-id": (f"{HEAD}\n1.5,L,1\n2,S,1\n",
                 "line 2: invalid literal for int() with base 10: '1.5'"),
    "whole-float-id": (f"{HEAD}\n1,L,1\n2.0,S,1\n",
                       "line 3: invalid literal for int() with base 10: '2.0'"),
    "exponent-id": (f"{HEAD}\n1e3,L,1\n", "line 2: invalid literal for int() with base 10: '1e3'"),
    "unicode-digits": (f"{HEAD}\n١,L,٢.5\n", ([1], ["L"], [2.5])),
    "non-ascii-after-a-digit": (f"{HEAD}\n1\U00010134,L,1\n",
                                "line 2: invalid literal for int() with base 10: '1\\U00010134'"),
    "file-separator": (f"{HEAD}\n\x1c1,L,1\n",
                       "line 2: invalid literal for int() with base 10: '\\x1c1'"),
    "ids-past-int64": (f"{HEAD}\n{BIG},L,1\n{BIG + 1},S,2\n",
                       ([BIG, BIG + 1], ["L", "S"], [1.0, 2.0])),
    "negative-id-past-int64": (f"{HEAD}\n{-BIG - 1},L,1\n0,S,2\n",
                               ([-BIG - 1, 0], ["L", "S"], [1.0, 2.0])),
    "padded-and-lower-case-sides": (f"{HEAD}\n1, l ,1\n2,s\t,2\n3,F ,0\n",
                                    ([1, 2, 3], ["L", "S", "F"], [1.0, 2.0, 0.0])),
    "padded-to-the-loader-width": (f"{HEAD}\n1,   l    ,1\n2, \x0bS\x0c ,2\n",
                                   ([1, 2], ["L", "S"], [1.0, 2.0])),
    "two-letter-side": (f"{HEAD}\n1,LS,1\n", "line 2: side must be one of L,S,F, got 'LS'"),
    "side-past-the-loader-width": (f"{HEAD}\n1,L       x,1\n",
                                   "line 2: side must be one of L,S,F, got 'L       x'"),
    "extra-cells": (f"{HEAD}\n1,L,1,note,x\n2,S,2,\n", ([1, 2], ["L", "S"], [1.0, 2.0])),
    "padded-lower-case-and-quoted-cells": (f'{HEAD}\n 1 , l ,"2.5"\n2,s, -1 \n\n"3",F ,0,note\n',
                                           ([1, 2, 3], ["L", "S", "F"], [2.5, -1.0, 0.0])),
    "nan": (f"{HEAD}\n1,L,nan\n", "line 2: pnl must be finite, got 'nan'"),
    "inf": (f"{HEAD}\n1,L,1\n2,S,inf\n", "line 3: pnl must be finite, got 'inf'"),
    "overflow": (f"{HEAD}\n1,L,1e400\n", "line 2: pnl must be finite, got '1e400'"),
    "header-only": (f"{HEAD}\n", "no data rows in trades CSV"),
    "header-and-blank-lines": (f"{HEAD}\r\n\r\n\n", "no data rows in trades CSV"),
    # numpy's unicode arrays drop trailing NULs, so the row reader's side
    # column reads "L\0" as "L", while a NUL before a letter stays.
    "side-with-a-trailing-nul": (f"{HEAD}\n1,L\x00,1\n", ([1], ["L"], [1.0])),
    "side-with-a-nul-before-a-letter": (f"{HEAD}\n1,L\x00x,1\n",
                                        "line 2: side must be one of L,S,F, got 'L\\x00x'"),
    "cell-past-the-field-limit": (f"{HEAD}\n1,L,1\n\n2,S,{LONG_DIGITS}\n",
                                  "line 3: field larger than field limit (131072)"),
    "finite-cell-past-the-field-limit": (f"{HEAD}\n1,L,0.{'0' * 200_000}1\n",
                                         "line 2: field larger than field limit (131072)"),
    "header-past-the-field-limit": (f"{HEAD},{LONG_DIGITS}\n1,L,1\n",
                                    "line 1: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_case(name, tmp_path):
    # Read as the CLI opens a file: UTF-8, line ends split but kept.
    text, want = READER_CASES[name]
    path = tmp_path / "trades.csv"
    path.write_bytes(text.encode())
    with open(path, newline="", encoding="utf-8") as fh:
        if isinstance(want, str):
            with pytest.raises(DomainError) as got:
                read_trades_csv(fh)
            assert str(got.value) == want
            return
        series = read_trades_csv(fh)
    assert (series.period_id.tolist(), series.side.tolist(), series.pnl.tolist()) == want


def test_plain_record_takes_the_loader(monkeypatch):
    def rows(lines):
        raise AssertionError("row reader")

    monkeypatch.setattr(sysstats, "_read_rows", rows)
    text = f"{HEAD}\n1,L,1.5\n\n 2 ,s\t, -2e-3\r\n3, F ,-0.0\n{BIG - 1},l,0,note\n"
    series = read_trades_csv(io.StringIO(text, newline=""))
    assert series.period_id.tolist() == [1, 2, 3, BIG - 1]
    assert {type(i) for i in series.period_id.tolist()} == {int}
    assert series.side.tolist() == ["L", "S", "F", "L"]
    assert series.side.dtype == np.dtype("U1")
    assert series.pnl.tobytes() == np.array([1.5, -2e-3, -0.0, 0.0]).tobytes()
    with pytest.raises(AssertionError, match="row reader"):
        read_trades_csv(io.StringIO(f"{HEAD}\n1_0,L,1\n"))


def test_a_loader_warning_sends_the_file_to_the_row_reader(monkeypatch):
    # numpy 1.23-1.26 read the int64 cell 1.5 as 1 with only a
    # DeprecationWarning; a loader that warns is not believed.
    loadtxt = np.loadtxt

    def lenient(lines, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt([line.replace("1.5", "1") for line in lines], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)
    with pytest.raises(DomainError, match=r"^line 2: invalid literal for int\(\) .*'1\.5'$"):
        read_trades_csv(io.StringIO(f"{HEAD}\n1.5,L,1\n2,S,1\n"))


def test_row_reader_lets_go_of_the_lines():
    # A large file's lines are let go before TradeSeries builds its arrays.
    lines = ['1,L,"1.5"\n', "\n", "2,s,-2\n"]
    series = TradeSeries(*sysstats._read_rows(lines))
    assert lines == []
    assert (series.period_id.tolist(), series.side.tolist()) == ([1, 2], ["L", "S"])


def test_row_reader_keeps_no_list_of_rows():
    # Each row is checked as csv reads it and leaves only its three values in
    # the columns, so 20k quoted rows peak at about 3 MB; a list that holds
    # every row as three strings until the columns are built more than doubles it.
    lines = [f'{i},{"LS"[i % 2]},"{i}.25"\n' for i in range(1, 20_001)]
    tracemalloc.start()
    try:
        series = TradeSeries(*sysstats._read_rows(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 20_000
    assert peak < 4_000_000


PLAIN_IDS = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40, unique=True)


def judged(read) -> TradeSeries | str:
    """What ``read()`` returns, or the message of its DomainError."""
    try:
        return read()
    except DomainError as exc:
        return str(exc)


@given(
    ids=PLAIN_IDS,
    data=st.data(),
    pad=st.sampled_from(["", " ", "\t"]),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
    order=st.sampled_from(["increasing", "shuffled", "repeated"]),
    flat_pnl=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_loader_columns_are_the_row_readers(ids, data, pad, end, order, flat_pnl):
    # Every plain record, sides of either case padded to less than the
    # loader's width included: the loader's columns, bit for bit, are those
    # of the row reader, which the oracle test above holds to the spec.  A
    # plain record that breaks a rule of the whole record (ids out of order
    # or repeated, P&L on a flat period) is refused in the same words,
    # without being read row by row.
    ids = sorted(ids)
    if order == "shuffled":
        ids = data.draw(st.permutations(ids))
    elif order == "repeated":
        k = data.draw(st.integers(0, len(ids) - 1))
        ids.insert(k, ids[k])
    padding = st.text(" \t\x0b\x0c", max_size=3)
    sides = data.draw(st.lists(st.tuples(padding, st.sampled_from("LSFlsf"), padding).map("".join),
                               min_size=len(ids), max_size=len(ids)))
    pnls = [
        "0" if side.strip() in "Ff" and not flat_pnl else pad + data.draw(
            st.floats(allow_nan=False, allow_infinity=False).map(repr)) + pad
        for side in sides
    ]
    text = end.join([HEAD, *map(f"{pad}{{}}{pad},{{}},{{}}".format, ids, sides, pnls)]) + end

    def rows(lines):
        raise AssertionError("row reader")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sysstats, "_read_rows", rows)
        loaded = judged(lambda: read_trades_csv(io.StringIO(text, newline="")))
    lines = io.StringIO(text, newline="").readlines()[1:]
    want = judged(lambda: TradeSeries(*sysstats._read_rows(lines)))
    if isinstance(want, str):
        assert loaded == want
        return
    assert loaded.period_id.tolist() == want.period_id.tolist()
    assert {type(i) for i in loaded.period_id.tolist()} == {int}
    for name in ("side", "pnl"):
        got, expected = getattr(loaded, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
