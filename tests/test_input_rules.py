"""Counts, probabilities, betting fractions, seeds, seats and other real
arguments at every public entry point.

Each entry point that takes one of these hands it to a rule in
``betlab.errors``.  A bad value -- NaN, an infinity, a bool, a string,
2.5 where an integer belongs, or a number outside the range -- must raise
``DomainError``: never a ``TypeError``/``ValueError`` from deeper down, and
never a NaN result.  numpy numbers stay accepted.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import errors
from betlab.betmath import (
    BetSpec,
    GrowthCurve,
    asymptotic_growth,
    fractional_kelly,
    growth_curve,
    growth_derivative,
    mixed_sequence_fractions,
    stochastic_p_fraction,
)
from betlab.cli import SEED_ENV_VAR, run
from betlab.errors import DomainError
from betlab.games import (
    BestResponder,
    Biased,
    CoinFlip,
    FrequencyExploiter,
    frequency_exploiter,
    play_match,
    responder_expected_gain,
    spy_match,
)
from betlab.grational import (
    GrationalGrid,
    GrationalProblem,
    LossKind,
    McBudget,
    best_feasible,
    solve,
    violation_probability,
)
from betlab.millerclear import (
    AuctionSpec,
    EmpiricalOpinions,
    NormalOpinions,
    sample_normal_opinions,
    short_selling_effect,
)
from betlab.seeding import stream
from betlab.sysstats import Filter, TradeSeries, average_gain_per_year, ppgs_classify, summarize
from betlab.wealthsim import (
    SimConfig,
    adaptive_policy_growth,
    outcome_matrix,
    ruin_probability_all_in,
)

BET = BetSpec(0.6, 1.0)
BUDGET = McBudget(n_paths=1000, root_seed=1)
DD = LossKind.DRAWDOWN


def problem(n_steps=10, max_prob=0.1):
    return GrationalProblem(BET, n_steps, DD, 0.5, max_prob)


GRID = GrationalGrid(
    f=np.array([0.0, 0.1]),
    e_growth=np.array([0.0, 0.01]),
    se_growth=np.zeros(2),
    p_violation=np.array([0.0, 0.2]),
    se_violation=np.zeros(2),
    feasible=np.array([True, False]),
)

# Each site passes the value under test in one argument, every other
# argument valid.
COUNT_SITES = {
    "SimConfig.n_steps": lambda v: SimConfig(BET, 0.1, v, 2, 1),
    "SimConfig.n_paths": lambda v: SimConfig(BET, 0.1, 2, v, 1),
    "outcome_matrix.n_steps": lambda v: outcome_matrix(BET, v, 2, 1),
    "outcome_matrix.n_paths": lambda v: outcome_matrix(BET, 2, v, 1),
    "ruin_probability_all_in.n": lambda v: ruin_probability_all_in(BET, v),
    "adaptive_policy_growth.n_steps": lambda v: adaptive_policy_growth(BET, v, 1),
    "GrationalProblem.n_steps": lambda v: problem(n_steps=v),
    "McBudget.n_paths": lambda v: McBudget(v, 1),
    "violation_probability.n_steps": lambda v: violation_probability(
        BET, 0.1, v, DD, 0.5, BUDGET
    ),
    "AuctionSpec.m_buyers": lambda v: AuctionSpec(50, v).quantile_level(),
    "sample_normal_opinions.m_buyers": lambda v: sample_normal_opinions(50.0, 10.0, v, 1),
    "responder_expected_gain.n_rounds": lambda v: responder_expected_gain(0.6, 0.6, v, 1.0),
    "play_match.n_rounds": lambda v: play_match(CoinFlip(), CoinFlip(), v, 1),
    "spy_match.n_rounds": lambda v: spy_match(CoinFlip(), v, 1),
    "FrequencyExploiter.k": lambda v: FrequencyExploiter(v),
    "frequency_exploiter.k": lambda v: frequency_exploiter(["H", "T"], k=v),
}
# Share counts may be zero.
NONNEGATIVE_SITES = {
    "AuctionSpec.n_shares": lambda v: AuctionSpec(v, 1000, short_supply=1),
    "AuctionSpec.short_supply": lambda v: AuctionSpec(100, 1000, short_supply=v),
    "short_selling_effect.short_supplies": lambda v: short_selling_effect(
        NormalOpinions(50.0, 10.0), AuctionSpec(100, 1000), [0, v]
    ),
}
PROBABILITY_SITES = {
    "BetSpec.p": lambda v: BetSpec(v, 1.0),
    "stochastic_p_fraction.p_mean": lambda v: stochastic_p_fraction(v, 1.0),
    "mixed_sequence_fractions": lambda v: mixed_sequence_fractions([(0.6, 1.0), (v, 1.0)]),
    "GrationalProblem.max_prob": lambda v: problem(max_prob=v),
    "best_feasible.max_prob": lambda v: best_feasible(GRID, v),
    "Biased.p_h": lambda v: Biased(v),
    "BestResponder.announced_p_h": lambda v: BestResponder(v),
    "responder_expected_gain.p_h": lambda v: responder_expected_gain(v, 0.6, 10, 1.0),
    "responder_expected_gain.x": lambda v: responder_expected_gain(0.6, v, 10, 1.0),
}
FRACTION_SITES = {
    "asymptotic_growth.f": lambda v: asymptotic_growth(BET, v),
    "growth_derivative.f": lambda v: growth_derivative(BET, v),
    "SimConfig.f": lambda v: SimConfig(BET, v, 2, 2, 1),
    "solve.f_max": lambda v: solve(problem(), BUDGET, f_max=v),
    "violation_probability.f": lambda v: violation_probability(
        BET, v, 10, DD, 0.5, BUDGET
    ),
    "growth_curve.fractions": lambda v: growth_curve(BET, [0.0, v]),
    "GrowthCurve.fractions": lambda v: GrowthCurve([0.0, v], [0.0, 0.0]),
}
SEED_SITES = {
    "stream": lambda v: stream(v),
    "stream.keyed": lambda v: stream(v, 3),
    "SimConfig.root_seed": lambda v: SimConfig(BET, 0.1, 2, 2, v),
    "McBudget.root_seed": lambda v: McBudget(1000, v),
    "outcome_matrix.root_seed": lambda v: outcome_matrix(BET, 2, 2, v),
    "adaptive_policy_growth.root_seed": lambda v: adaptive_policy_growth(BET, 10, v),
    "play_match.root_seed": lambda v: play_match(CoinFlip(), CoinFlip(), 10, v),
    "spy_match.root_seed": lambda v: spy_match(CoinFlip(), 10, v),
    "sample_normal_opinions.root_seed": lambda v: sample_normal_opinions(50.0, 10.0, 10, v),
}

# The seat a strategy plays from: 1 or 2.
SEAT_SITES = {
    "frequency_exploiter.player": lambda v: frequency_exploiter(["H"] * 5, k=1, player=v),
    "FrequencyExploiter.begin.player": lambda v: FrequencyExploiter().begin(stream(1), v),
    "BestResponder.column.player": lambda v: BestResponder(0.5).column(stream(1), v, 3),
}
SERIES = TradeSeries(period_id=[1, 2], side=["L", "S"], pnl=[1.0, -0.5])
# Real arguments whose range rule is their own; a non-real must fail the
# shared real-number rule before any comparison.
REAL_SITES = {
    "BetSpec.d": lambda v: BetSpec(0.6, v),
    "fractional_kelly.alpha": lambda v: fractional_kelly(BET, v),
    "SimConfig.w0": lambda v: SimConfig(BET, 0.1, 2, 2, 1, w0=v),
    "GrationalProblem.loss_threshold": lambda v: GrationalProblem(BET, 10, DD, v, 0.1),
    "solve.grid_step": lambda v: solve(problem(), BUDGET, grid_step=v),
    "play_match.stake": lambda v: play_match(CoinFlip(), CoinFlip(), 10, 1, stake=v),
    "play_match.rake": lambda v: play_match(CoinFlip(), CoinFlip(), 10, 1, rake=v),
    "spy_match.stake": lambda v: spy_match(CoinFlip(), 10, 1, stake=v),
    "responder_expected_gain.stake_total": lambda v: responder_expected_gain(0.6, 0.6, 10, v),
    "ppgs_classify.alpha": lambda v: ppgs_classify(SERIES, alpha=v),
    "average_gain_per_year.n_years": lambda v: average_gain_per_year(
        summarize(SERIES, Filter.ALL), v
    ),
    "NormalOpinions.mean": lambda v: NormalOpinions(v, 10.0),
    "NormalOpinions.sd": lambda v: NormalOpinions(50.0, v),
    "sample_normal_opinions.mean": lambda v: sample_normal_opinions(v, 10.0, 10, 1),
    "sample_normal_opinions.sd": lambda v: sample_normal_opinions(50.0, v, 10, 1),
}

# Not a number of the right kind, whatever the range.
NOT_NUMBER = st.sampled_from([True, False, "0.5", "3", None, b"1", 1j, np.bool_(True)])
# Nor a real that a double can hold; 10**400 is a good count, not a good real.
NOT_REAL = NOT_NUMBER | st.just(10**400)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)])
NOT_INTEGER = st.one_of(
    NOT_NUMBER,
    NON_FINITE,
    st.sampled_from([2.5, 1.0, 0.0, np.float64(3.0), np.float32(2.0)]),
    st.floats(),
)
NEGATIVE = st.integers(max_value=-1) | st.sampled_from([np.int64(-1), -(2**70)])


def outside(lo: float, hi: float, hi_closed: bool) -> st.SearchStrategy:
    """Reals outside [lo, hi] (or [lo, hi)), numpy scalars among them."""
    in_range = (lambda x: lo <= x <= hi) if hi_closed else (lambda x: lo <= x < hi)
    floats = st.floats().filter(lambda x: not in_range(x))
    edges = [-1e-300, -1e-16, 1.5, 2, -1, np.float64(-0.5), np.int64(2)]
    edges += [] if hi_closed else [1.0, 1, np.float64(1.0)]
    return floats | st.sampled_from(edges)


BAD_COUNT = NOT_INTEGER | NEGATIVE | st.just(0)
BAD_NONNEGATIVE = NOT_INTEGER | NEGATIVE
BAD_PROBABILITY = NOT_REAL | NON_FINITE | outside(0.0, 1.0, hi_closed=True)
BAD_FRACTION = NOT_REAL | NON_FINITE | outside(0.0, 1.0, hi_closed=False)
BAD_SEED = NOT_INTEGER | NEGATIVE | st.integers(min_value=2**64)
BAD_SEAT = NOT_INTEGER | st.integers().filter(lambda n: n not in (1, 2)) | st.sampled_from(
    [0, 3, np.int64(0), np.uint8(3)]
)

SETTINGS = settings(max_examples=200, deadline=None)


def rejects(site, value) -> None:
    with pytest.raises(DomainError):
        site(value)


@SETTINGS
@given(name=st.sampled_from(sorted(COUNT_SITES)), value=BAD_COUNT)
@example(name="GrationalProblem.n_steps", value=math.nan)
@example(name="GrationalProblem.n_steps", value=2.5)
@example(name="AuctionSpec.m_buyers", value=math.nan)
@example(name="ruin_probability_all_in.n", value=math.nan)
@example(name="FrequencyExploiter.k", value=2.5)
@example(name="play_match.n_rounds", value=2.5)
def test_counts(name, value):
    rejects(COUNT_SITES[name], value)


@SETTINGS
@given(name=st.sampled_from(sorted(NONNEGATIVE_SITES)), value=BAD_NONNEGATIVE)
@example(name="AuctionSpec.n_shares", value=2.5)
@example(name="short_selling_effect.short_supplies", value=math.nan)
def test_share_counts(name, value):
    rejects(NONNEGATIVE_SITES[name], value)


@SETTINGS
@given(name=st.sampled_from(sorted(PROBABILITY_SITES)), value=BAD_PROBABILITY)
def test_probabilities(name, value):
    rejects(PROBABILITY_SITES[name], value)


@SETTINGS
@given(name=st.sampled_from(sorted(FRACTION_SITES)), value=BAD_FRACTION)
@example(name="growth_curve.fractions", value=math.nan)
@example(name="GrowthCurve.fractions", value=math.nan)
def test_fractions(name, value):
    rejects(FRACTION_SITES[name], value)


@SETTINGS
@given(name=st.sampled_from(sorted(SEED_SITES)), value=BAD_SEED)
def test_seeds(name, value):
    rejects(SEED_SITES[name], value)


@SETTINGS
@given(name=st.sampled_from(sorted(SEAT_SITES)), value=BAD_SEAT)
@example(name="frequency_exploiter.player", value=7)
@example(name="frequency_exploiter.player", value=True)
def test_seats(name, value):
    rejects(SEAT_SITES[name], value)


@pytest.mark.parametrize("name", sorted(SEAT_SITES))
@pytest.mark.parametrize("seat", [1, 2, np.int64(2)])
def test_good_seats(name, seat):
    SEAT_SITES[name](seat)


@SETTINGS
@given(name=st.sampled_from(sorted(REAL_SITES)), value=NOT_REAL)
def test_reals(name, value):
    with pytest.raises(DomainError, match="must be a real number"):
        REAL_SITES[name](value)


@pytest.mark.parametrize("stake_total", [math.inf, -math.inf, math.nan, -1.0])
def test_stake_total_finite(stake_total):
    # 0 * inf at an unbiased p_h gave nan.
    with pytest.raises(DomainError):
        responder_expected_gain(0.5, 0.6, 10, stake_total)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_samples_finite(bad):
    with pytest.raises(DomainError, match="samples must be finite"):
        EmpiricalOpinions(samples=[50.0, bad, 40.0])


def test_numpy_numbers_accepted():
    i64, f64 = np.int64, np.float64
    config = SimConfig(BetSpec(f64(0.6), 1.0), f64(0.1), i64(5), np.int32(2), np.uint64(7))
    assert config.n_paths == 2
    assert asymptotic_growth(BET, np.float32(0.25)) == asymptotic_growth(BET, 0.25)
    assert ruin_probability_all_in(BET, i64(3)) == ruin_probability_all_in(BET, 3)
    assert AuctionSpec(i64(100), np.uint16(1000), i64(0)).quantile_level() == 0.9
    match = play_match(Biased(f64(0.6)), FrequencyExploiter(i64(2)), i64(20), np.uint64(3))
    assert match.n_rounds == 20
    assert responder_expected_gain(f64(0.6), np.float32(0.5), np.int8(10), 1.0) == 0.0
    dist, auction = NormalOpinions(50.0, 10.0), AuctionSpec(100, 1000)
    prices = short_selling_effect(dist, auction, np.arange(3))
    assert prices.shape == (3,)
    assert growth_curve(BET, np.array([0, 0.5], dtype=np.float32)).fractions.dtype == float
    assert best_feasible(GRID, f64(0.5)).f_star == 0.1


class TestRules:
    """The rules' messages: each site's message is one of these."""

    @pytest.mark.parametrize(
        "rule, args, message",
        [
            ("count", (0, "n_paths"), "n_paths must be >= 1, got 0"),
            ("count", (2.5, "n_paths"), "n_paths must be an integer, got 2.5"),
            ("integer", (True, "k"), "k must be an integer, got True"),
            ("probability", (1.5, "x"), "x must lie in [0, 1], got 1.5"),
            ("probability", (True, "x"), "x must be a real number, got True"),
            ("fraction", (1.0,), "betting fraction must lie in [0, 1), got 1.0"),
            ("fraction", ("0.5", "f_max"), "f_max must be a real number, got '0.5'"),
            ("root_seed", (-1,), "root_seed must be a 64-bit unsigned integer, got -1"),
            ("root_seed", (1.0,), "root_seed must be an integer, got 1.0"),
            ("real", (True, "odds"), "odds must be a real number, got True"),
        ],
    )
    def test_message(self, rule, args, message):
        with pytest.raises(DomainError) as info:
            getattr(errors, rule)(*args)
        assert str(info.value) == message

    def test_returns_python_numbers(self):
        assert type(errors.count(np.int64(3), "n")) is int
        assert type(errors.root_seed(np.uint64(2**64 - 1))) is int
        assert type(errors.probability(np.float32(0.5), "p")) is float
        assert errors.fraction(0) == 0.0
        assert type(errors.real(np.int64(-3), "x")) is float


def test_seed_env_message(monkeypatch):
    # The CLI reports an out-of-range GRATIONAL_SEED in the rule's words.
    monkeypatch.setenv(SEED_ENV_VAR, str(2**64))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["pennies", "--p1", "coinflip", "--p2", "coinflip", "--rounds", "3"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == (
        f"error: bad {SEED_ENV_VAR} value '{2**64}': "
        f"seed must be a 64-bit unsigned integer, got {2**64}\n"
    )
