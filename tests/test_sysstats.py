import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betlab.errors import DomainError, EmptySelection
from betlab.sysstats import (
    _ttest_pvalue,
    Filter,
    Ppgs,
    Side,
    SummaryRow,
    TradeRecord,
    TradeSeries,
    average_gain_per_year,
    cumulative_pnl,
    display_fields,
    format_summary_json,
    format_summary_text,
    ppgs_classify,
    read_trades_csv,
    runs_test,
    summarize,
)


def series_of(*entries) -> TradeSeries:
    return TradeSeries(
        records=tuple(
            TradeRecord(period_id=i + 1, side=Side(side), pnl=float(pnl))
            for i, (side, pnl) in enumerate(entries)
        )
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


class TestTradeSeries:
    def test_ids_strictly_increasing(self):
        with pytest.raises(DomainError):
            TradeSeries(
                records=(
                    TradeRecord(2, Side.LONG, 1.0),
                    TradeRecord(2, Side.LONG, 1.0),
                )
            )

    def test_flat_must_be_zero(self):
        with pytest.raises(DomainError):
            TradeSeries(records=(TradeRecord(1, Side.FLAT, 0.5),))


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

    def test_empty_filter_rejected(self):
        with pytest.raises(EmptySelection):
            summarize(series_of(("L", 1.0)), Filter.SHORT)

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
            series_of(
                *[
                    (r.side.value, r.pnl * scale)
                    for r in FIXTURE.records
                ]
            ),
            Filter.ALL,
        )
        assert scaled.ir == pytest.approx(base.ir, rel=1e-9)
        assert scaled.pnltot == pytest.approx(base.pnltot * scale, rel=1e-9)


class TestCumulativePnl:
    def test_running_sum(self):
        series = series_of(("L", 1.0), ("S", -2.0), ("L", 3.0))
        assert cumulative_pnl(series) == [(1, 1.0), (2, -1.0), (3, 2.0)]

    def test_all_zeros(self):
        series = series_of(("F", 0.0), ("F", 0.0))
        assert cumulative_pnl(series) == [(1, 0.0), (2, 0.0)]


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


class TestCsvAndFormatting:
    def test_roundtrip(self):
        text = "period_id,side,pnl\n1,L,3.5\n2,S,-1.25\n3,F,0\n"
        series = read_trades_csv(io.StringIO(text))
        assert len(series) == 3
        assert series.records[1].side is Side.SHORT
        assert series.records[1].pnl == -1.25

    def test_bad_header(self):
        with pytest.raises(DomainError):
            read_trades_csv(io.StringIO("id,side,pnl\n1,L,1\n"))

    def test_bad_side(self):
        with pytest.raises(DomainError, match="side"):
            read_trades_csv(io.StringIO("period_id,side,pnl\n1,X,1\n"))

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
        payload = json.loads(format_summary_json([("All", row)]))
        assert payload["All"]["ir"] is None
        assert payload["All"]["maxdd"] == 0.0

    def test_display_fields_negates_maxdd(self):
        row = summarize(FIXTURE, Filter.ALL)
        assert display_fields(row)["maxdd"] == -row.maxdd
