import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betlab.errors import DomainError, NoClear
from betlab.millerclear import (
    AuctionSpec,
    EmpiricalOpinions,
    NormalOpinions,
    clearing_price,
    dispersion_sweep,
    reauction_price,
    sample_normal_opinions,
    short_selling_effect,
)

# standard normal quantiles (tabulated values, not recomputed here)
Z_95 = 1.6448536269514722
Z_90 = 1.2815515655446004

SCARCE = AuctionSpec(n_shares=50, m_buyers=1000)  # level 0.95


class TestAuctionSpec:
    def test_supply_and_level(self):
        spec = AuctionSpec(n_shares=50, m_buyers=1000, short_supply=50)
        assert spec.supply == 100
        assert spec.quantile_level() == pytest.approx(0.9)

    def test_oversupply_defers_to_op_time(self):
        spec = AuctionSpec(n_shares=1500, m_buyers=1000)
        with pytest.raises(NoClear):
            spec.quantile_level()
        with pytest.raises(NoClear):
            clearing_price(NormalOpinions(50.0, 10.0), spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shares=1, m_buyers=0),
            dict(n_shares=-1, m_buyers=10),
            dict(n_shares=1, m_buyers=10, short_supply=-1),
            dict(n_shares=0, m_buyers=10, short_supply=0),
        ],
    )
    def test_rejects_bad_counts(self, kwargs):
        with pytest.raises(DomainError):
            AuctionSpec(**kwargs)


class TestNormalClearing:
    def test_scarce_supply_premium(self):
        price = clearing_price(NormalOpinions(50.0, 10.0), SCARCE)
        assert price == pytest.approx(50.0 + 10.0 * Z_95, abs=1e-10)
        assert price == pytest.approx(66.4485362695147, abs=1e-10)

    def test_half_supply_pins_the_mean(self):
        spec = AuctionSpec(n_shares=500, m_buyers=1000)
        assert clearing_price(NormalOpinions(50.0, 10.0), spec) == pytest.approx(
            50.0, abs=1e-12
        )

    def test_zero_dispersion_removes_premium(self):
        assert clearing_price(NormalOpinions(50.0, 0.0), SCARCE) == 50.0

    def test_truncation_clamps_negative_quantiles(self):
        glut = AuctionSpec(n_shares=950, m_buyers=1000)  # level 0.05
        raw = clearing_price(NormalOpinions(0.0, 10.0), glut)
        assert raw == pytest.approx(-10.0 * Z_95, abs=1e-10)
        assert clearing_price(NormalOpinions(0.0, 10.0, truncate=True), glut) == 0.0
        # clamping never touches positive prices
        assert clearing_price(
            NormalOpinions(50.0, 10.0, truncate=True), SCARCE
        ) == pytest.approx(50.0 + 10.0 * Z_95)

    def test_full_supply_diverges_unless_truncated(self):
        spec = AuctionSpec(n_shares=400, m_buyers=1000, short_supply=600)
        assert np.isneginf(clearing_price(NormalOpinions(50.0, 10.0), spec))
        assert clearing_price(NormalOpinions(50.0, 10.0, truncate=True), spec) == 0.0


class TestScipyOracle:
    @given(
        mean=st.floats(min_value=-1e6, max_value=1e6),
        sd=st.floats(min_value=0.0, max_value=1e6),
        m_buyers=st.integers(min_value=2, max_value=10**9),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=400, deadline=None)  # the first call imports scipy.stats
    def test_normal_price_is_mean_plus_sd_ppf(self, mean, sd, m_buyers, share):
        from scipy.stats import norm

        supply = min(max(1, round(share * m_buyers)), m_buyers - 1)
        spec = AuctionSpec(n_shares=supply, m_buyers=m_buyers)
        expected = mean + sd * float(norm.ppf(spec.quantile_level()))
        assert clearing_price(NormalOpinions(mean, sd), spec) == expected
        assert dispersion_sweep(mean, [sd], spec)[0] == expected


class TestDispersionSweep:
    def test_premium_grows_with_dispersion(self):
        prices = dispersion_sweep(50.0, [0.0, 5.0, 10.0], SCARCE)
        assert prices == pytest.approx(
            [50.0, 58.2242681347574, 66.4485362695147], abs=1e-10
        )
        assert np.all(np.diff(prices) > 0)

    def test_flat_at_the_median(self):
        spec = AuctionSpec(n_shares=500, m_buyers=1000)
        prices = dispersion_sweep(50.0, [0.0, 5.0, 10.0], spec)
        assert prices == pytest.approx([50.0, 50.0, 50.0], abs=1e-12)

    def test_reverses_when_supply_is_plentiful(self):
        spec = AuctionSpec(n_shares=950, m_buyers=1000)
        prices = dispersion_sweep(50.0, [0.0, 5.0, 10.0], spec)
        assert np.all(np.diff(prices) < 0)

    @pytest.mark.parametrize("sds", [[], [-1.0, 0.0], [5.0, 1.0]])
    def test_rejects_bad_grids(self, sds):
        with pytest.raises(DomainError):
            dispersion_sweep(50.0, sds, SCARCE)

    @pytest.mark.parametrize(
        "sds, message",
        [
            pytest.param(["a"], "sds must be a 1-d sequence of at least one real entry, "
                         "got shape (1,) of <U1", id="a"),
            pytest.param([None], "got shape (1,) of object", id="None"),
            pytest.param([1j], "got shape (1,) of complex128", id="1j"),
            # A lone sd is not a grid of them.
            pytest.param(5.0, "got shape () of float64", id="scalar"),
        ],
    )
    def test_rejects_non_real_sds(self, sds, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            dispersion_sweep(50.0, sds, SCARCE)


class TestShortSelling:
    def test_added_supply_walks_down_the_demand_curve(self):
        prices = short_selling_effect(
            NormalOpinions(50.0, 10.0), SCARCE, [0, 50, 450]
        )
        assert prices == pytest.approx(
            [50.0 + 10.0 * Z_95, 50.0 + 10.0 * Z_90, 50.0], abs=1e-10
        )
        assert np.all(np.diff(prices) < 0)

    def test_base_spec_short_supply_is_replaced_not_added(self):
        base = AuctionSpec(n_shares=50, m_buyers=1000, short_supply=450)
        prices = short_selling_effect(NormalOpinions(50.0, 10.0), base, [0])
        assert prices[0] == pytest.approx(50.0 + 10.0 * Z_95, abs=1e-10)

    def test_rejects_negative_supply(self):
        with pytest.raises(DomainError):
            short_selling_effect(NormalOpinions(50.0, 10.0), SCARCE, [0, -1])


class TestEmpiricalClearing:
    def test_matches_descending_sort(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(50.0, 10.0, size=257)
        ranked = np.sort(samples)[::-1]
        dist = EmpiricalOpinions(samples=samples)
        for n in (1, 13, 128, 200, 257):
            spec = AuctionSpec(n_shares=n, m_buyers=257)
            assert clearing_price(dist, spec) == ranked[n - 1]

    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=120)
    def test_order_statistic_property(self, data, k):
        if k > len(data):
            k = len(data)
        samples = np.asarray(data)
        dist = EmpiricalOpinions(samples=samples)
        spec = AuctionSpec(n_shares=k, m_buyers=len(data))
        assert clearing_price(dist, spec) == np.sort(samples)[::-1][k - 1]

    def test_nonincreasing_in_supply(self):
        samples = np.random.default_rng(7).normal(0.0, 1.0, size=100)
        dist = EmpiricalOpinions(samples=samples)
        prices = [
            clearing_price(dist, AuctionSpec(n_shares=k, m_buyers=100))
            for k in range(1, 101)
        ]
        assert np.all(np.diff(prices) <= 0)

    def test_converges_to_normal_quantile(self):
        m = 100_000
        dist = sample_normal_opinions(50.0, 10.0, m, root_seed=11)
        spec = AuctionSpec(n_shares=5000, m_buyers=m)
        emp = clearing_price(dist, spec)
        ideal = clearing_price(NormalOpinions(50.0, 10.0), spec)
        assert abs(emp - ideal) / ideal < 0.01

    def test_requires_one_estimate_per_buyer(self):
        dist = EmpiricalOpinions(samples=np.arange(5.0) + 1.0)
        with pytest.raises(DomainError):
            clearing_price(dist, AuctionSpec(n_shares=2, m_buyers=6))

    def test_truncation_applies_at_construction(self):
        dist = EmpiricalOpinions(samples=np.array([-5.0, 1.0, 2.0]), truncate=True)
        spec = AuctionSpec(n_shares=3, m_buyers=3)
        assert clearing_price(dist, spec) == 0.0

    def test_full_supply_clears_at_the_pessimist(self):
        samples = np.array([3.0, 9.0, 1.0, 7.0])
        spec = AuctionSpec(n_shares=1, m_buyers=4, short_supply=3)
        assert clearing_price(EmpiricalOpinions(samples=samples), spec) == 1.0

    def test_rejects_bad_samples(self):
        with pytest.raises(DomainError):
            EmpiricalOpinions(samples=np.array([]))
        with pytest.raises(DomainError):
            EmpiricalOpinions(samples=np.zeros((2, 2)))


class TestReauction:
    def test_second_sale_fetches_less(self):
        dist = sample_normal_opinions(50.0, 10.0, 1000, root_seed=13)
        first = clearing_price(dist, SCARCE)
        second = reauction_price(dist, SCARCE)
        assert second < first
        assert second == np.sort(dist.samples)[::-1][99]

    def test_needs_enough_remaining_buyers(self):
        dist = sample_normal_opinions(50.0, 10.0, 700, root_seed=13)
        spec = AuctionSpec(n_shares=400, m_buyers=700)
        with pytest.raises(NoClear):
            reauction_price(dist, spec)

    def test_normal_mode_unsupported(self):
        with pytest.raises(DomainError):
            reauction_price(NormalOpinions(50.0, 10.0), SCARCE)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_normal_opinions(50.0, 10.0, 64, root_seed=3)
        b = sample_normal_opinions(50.0, 10.0, 64, root_seed=3)
        c = sample_normal_opinions(50.0, 10.0, 64, root_seed=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_moments_roughly_match(self):
        dist = sample_normal_opinions(50.0, 10.0, 200_000, root_seed=5)
        assert dist.samples.mean() == pytest.approx(50.0, abs=0.1)
        assert dist.samples.std() == pytest.approx(10.0, abs=0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            sample_normal_opinions(50.0, -1.0, 10, root_seed=1)
        with pytest.raises(DomainError):
            sample_normal_opinions(50.0, 1.0, 0, root_seed=1)
        with pytest.raises(DomainError):
            NormalOpinions(50.0, -0.5)

    def test_rejects_overflowing_draws(self):
        with pytest.raises(DomainError, match="overflow"):
            sample_normal_opinions(1e308, 1e308, 10, 1)
