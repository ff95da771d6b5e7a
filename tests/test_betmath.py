import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betlab.betmath import (
    BetSpec,
    GrowthCurve,
    asymptotic_growth,
    critical_fraction,
    fractional_kelly,
    growth_curve,
    growth_derivative,
    kelly_fraction,
    mixed_sequence_fractions,
    stochastic_p_fraction,
)
from betlab.errors import DomainError, NoPositiveRoot

# Frozen from a 40-digit arbitrary-precision evaluation of
# 0.6*ln(1.2) + 0.4*ln(0.8).
G_AT_POINT_TWO = 0.020135513550688873
# Frozen from 40-digit bisection of G(f) = 0 above the optimal fraction.
F_CRIT_06 = 0.38939068333493392
F_CRIT_051 = 0.03998933390

edge_bets = st.tuples(
    st.floats(min_value=0.505, max_value=0.99),
    st.floats(min_value=0.25, max_value=4.0),
).map(lambda t: BetSpec(p=t[0], d=t[1]))


class TestBetSpec:
    def test_q_is_derived(self):
        assert BetSpec(p=0.6, d=1.0).q == pytest.approx(0.4)

    @pytest.mark.parametrize("p,d", [(-0.1, 1.0), (1.1, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_rejects_bad_domain(self, p, d):
        with pytest.raises(DomainError):
            BetSpec(p=p, d=d)


class TestKellyFraction:
    def test_even_odds(self):
        assert kelly_fraction(BetSpec(0.6, 1.0)) == pytest.approx(0.2)

    def test_zero_edge_clamps(self):
        assert kelly_fraction(BetSpec(0.5, 1.0)) == 0.0

    def test_negative_edge_clamps(self):
        assert kelly_fraction(BetSpec(0.4, 1.0)) == 0.0

    def test_two_to_one_odds(self):
        # hand evaluation: 0.55 - 0.45/2
        assert kelly_fraction(BetSpec(0.55, 2.0)) == pytest.approx(0.325)

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
        d=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_monotone_in_p(self, p1, p2, d):
        lo, hi = sorted([p1, p2])
        assert kelly_fraction(BetSpec(lo, d)) <= kelly_fraction(BetSpec(hi, d)) + 1e-15

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        d1=st.floats(min_value=0.1, max_value=10.0),
        d2=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_monotone_in_d(self, p, d1, d2):
        lo, hi = sorted([d1, d2])
        assert kelly_fraction(BetSpec(p, lo)) <= kelly_fraction(BetSpec(p, hi)) + 1e-15


class TestAsymptoticGrowth:
    def test_no_bet_no_growth(self):
        assert asymptotic_growth(BetSpec(0.6, 1.0), 0.0) == 0.0

    def test_frozen_value(self):
        assert asymptotic_growth(BetSpec(0.6, 1.0), 0.2) == pytest.approx(
            G_AT_POINT_TWO, abs=1e-15
        )

    def test_rejects_f_at_one(self):
        with pytest.raises(DomainError):
            asymptotic_growth(BetSpec(0.6, 1.0), 1.0)

    @given(bet=edge_bets)
    @settings(max_examples=60)
    def test_kelly_is_grid_argmax(self, bet):
        grid = np.arange(0.0, 0.9995, 1e-3)
        curve = growth_curve(bet, grid)
        assert abs(curve.argmax_fraction() - kelly_fraction(bet)) <= 1e-3 + 1e-12

    @given(
        bet=edge_bets,
        f1=st.floats(min_value=0.0, max_value=0.95),
        f2=st.floats(min_value=0.0, max_value=0.95),
        lam=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_concavity(self, bet, f1, f2, lam):
        mid = lam * f1 + (1 - lam) * f2
        lhs = asymptotic_growth(bet, mid)
        rhs = lam * asymptotic_growth(bet, f1) + (1 - lam) * asymptotic_growth(bet, f2)
        assert lhs >= rhs - 1e-12

    @given(bet=edge_bets, f=st.floats(min_value=0.001, max_value=0.9))
    def test_derivative_matches_central_difference(self, bet, f):
        h = 1e-5
        numeric = (asymptotic_growth(bet, f + h) - asymptotic_growth(bet, f - h)) / (2 * h)
        assert growth_derivative(bet, f) == pytest.approx(numeric, abs=1e-6)


class TestGrowthCurve:
    def test_includes_zero_growth_at_zero(self):
        curve = growth_curve(BetSpec(0.6, 1.0), [0.0, 0.1, 0.2])
        assert curve.rates[0] == 0.0

    def test_growth_ordering_below_optimum(self):
        bet = BetSpec(0.6, 1.0)
        g1 = asymptotic_growth(bet, 0.1)
        g2 = asymptotic_growth(bet, 0.2)
        assert 0.0 < g1 < g2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError, match="rates must be a 1-d sequence of 2 real entries"):
            GrowthCurve(fractions=np.array([0.0, 0.1]), rates=np.array([0.0]))

    @pytest.mark.parametrize(
        "fractions, rates, message",
        [
            # argmax_fraction once returned 0.0 here.
            ([0.0, 0.5], [math.nan, 1.0], "rates must be finite, got nan at index 0"),
            # argmax_fraction once raised numpy's ValueError here.
            ([], [], "fractions must be a 1-d sequence of at least one real entry"),
        ],
    )
    def test_rejects_bad_columns(self, fractions, rates, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            GrowthCurve(fractions, rates)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            GrowthCurve(fractions=np.array([0.2, 0.1]), rates=np.array([0.0, 0.0]))


class TestCriticalFraction:
    def test_frozen_value(self):
        assert critical_fraction(BetSpec(0.6, 1.0)) == pytest.approx(
            F_CRIT_06, abs=1e-9
        )

    def test_root_property(self):
        bet = BetSpec(0.6, 1.0)
        f_c = critical_fraction(bet)
        assert abs(asymptotic_growth(bet, f_c)) < 1e-10

    def test_thin_edge(self):
        bet = BetSpec(0.51, 1.0)
        f_c = critical_fraction(bet)
        assert f_c == pytest.approx(F_CRIT_051, abs=1e-8)
        assert asymptotic_growth(bet, f_c + 0.01) < 0.0

    def test_no_edge_raises(self):
        with pytest.raises(NoPositiveRoot):
            critical_fraction(BetSpec(0.5, 1.0))

    def test_certain_winner_raises(self):
        with pytest.raises(NoPositiveRoot):
            critical_fraction(BetSpec(1.0, 1.0))

    @given(bet=edge_bets)
    @settings(max_examples=60)
    def test_exceeds_kelly_and_growth_negative_beyond(self, bet):
        assume(kelly_fraction(bet) > 0.0)
        # with extreme edges the zero crossing lies above 1 - 1e-9, too
        # close to 1 for the probes below to evaluate growth past it
        assume(asymptotic_growth(bet, 1.0 - 1e-9) < 0.0)
        f_c = critical_fraction(bet)
        assert f_c > kelly_fraction(bet)
        # probe strictly inside (f_c, 1); a fixed upper point could fall
        # below the root when the edge is strong, and the offset must
        # clear the root locator's 1e-12 tolerance
        for frac in np.linspace(1e-4, 0.9, 7):
            f = f_c + max(frac * (1.0 - f_c), 1e-11)
            assert asymptotic_growth(bet, f) < 0.0


    def test_root_near_one_is_found(self):
        # p*log(2) = q*y at y = 0.97*log(2)/0.03, so f_c = 1 - 1.85e-10
        bet = BetSpec(0.97, 1.0)
        f_c = critical_fraction(bet)
        assert 1.0 - f_c == pytest.approx(math.exp(-0.97 * math.log(2.0) / 0.03), rel=1e-5)
        assert asymptotic_growth(bet, f_c - 1e-11) > 0.0 > asymptotic_growth(bet, f_c + 1e-11)

    @given(p=st.floats(0.0, 1.0, exclude_max=True), d=st.floats(1e-6, 1e6))
    @settings(max_examples=300)
    def test_exceeds_kelly_whenever_edge_is_positive(self, p, d):
        bet = BetSpec(p, d)
        assume(kelly_fraction(bet) > 0.0)
        f_c = critical_fraction(bet)
        assert kelly_fraction(bet) < f_c <= 1.0


class TestVariants:
    def test_stochastic_p_reduces_to_mean(self):
        assert stochastic_p_fraction(0.6, 1.0) == pytest.approx(0.2)
        assert stochastic_p_fraction(0.5, 1.0) == 0.0

    def test_stochastic_p_beats_fixed_realizations(self):
        # P uniform on {0.4, 0.8}: the mean-based fraction must beat the
        # fraction computed from either single realization, measured by
        # expected growth under the mixture.
        d = 1.0

        def mixture_growth(f):
            return 0.5 * (
                asymptotic_growth(BetSpec(0.4, d), f)
                + asymptotic_growth(BetSpec(0.8, d), f)
            )

        f_mean = stochastic_p_fraction(0.6, d)
        assert f_mean == pytest.approx(0.2)
        for f_fixed in [kelly_fraction(BetSpec(0.4, d)), kelly_fraction(BetSpec(0.8, d))]:
            assert mixture_growth(f_mean) >= mixture_growth(f_fixed)

    def test_mixed_sequence(self):
        bets = [BetSpec(0.6, 1.0), BetSpec(0.5, 1.0), BetSpec(0.55, 2.0)]
        assert mixed_sequence_fractions(bets) == pytest.approx([0.2, 0.0, 0.325])

    def test_mixed_sequence_empty(self):
        assert mixed_sequence_fractions([]) == []

    def test_mixed_sequence_homogeneous(self):
        out = mixed_sequence_fractions([BetSpec(0.6, 1.0)] * 1000)
        assert len(out) == 1000
        assert set(out) == {kelly_fraction(BetSpec(0.6, 1.0))}

    def test_mixed_sequence_reports_offending_index(self):
        with pytest.raises(DomainError, match="bet 1"):
            mixed_sequence_fractions([(0.6, 1.0), (1.5, 1.0)])

    @pytest.mark.parametrize("bet", [(0.6,), 0.6, (0.6, 1.0, 2.0), None])
    def test_mixed_sequence_needs_pairs(self, bet):
        with pytest.raises(DomainError, match=r"^bet 0: must be a BetSpec or \(p, d\) pair"):
            mixed_sequence_fractions([bet])

    def test_fractional_kelly_scaling(self):
        assert fractional_kelly(BetSpec(0.6, 1.0), 0.5) == pytest.approx(0.1)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0001])
    def test_fractional_kelly_domain(self, alpha):
        with pytest.raises(DomainError):
            fractional_kelly(BetSpec(0.6, 1.0), alpha)

    @given(bet=edge_bets, alpha=st.floats(min_value=0.01, max_value=1.0))
    def test_fractional_kelly_keeps_growth_positive(self, bet, alpha):
        f = fractional_kelly(bet, alpha)
        if kelly_fraction(bet) > 1e-6 and f < 1.0:
            assert asymptotic_growth(bet, f) > 0.0
