"""Counts, probabilities, betting fractions, seeds, seats, other real
arguments, arrays, and enum, record and strategy arguments at every public
entry point.

Each entry point that takes one of these hands it to a rule in
``betlab.errors``.  A bad value -- NaN, an infinity, a bool, a string,
2.5 where an integer belongs, a number outside the range, or an array of
the wrong shape -- must raise ``DomainError``: never a
``TypeError``/``ValueError`` from deeper down, and never a NaN result.
numpy numbers stay accepted.
"""

import contextlib
import dataclasses
import io
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import errors, games, grational
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
from betlab.cli import SEED_ENV_VAR, run
from betlab.errors import DomainError
from betlab.games import (
    Alternator,
    BestResponder,
    Biased,
    CoinFlip,
    Fixed,
    FrequencyExploiter,
    GameTranscript,
    frequency_exploiter,
    parse_strategy,
    play_match,
    responder_expected_gain,
    spy_match,
    write_transcript_csv,
)
from betlab.grational import (
    _MIN_GRID_STEP,
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
    clearing_price,
    dispersion_sweep,
    reauction_price,
    sample_normal_opinions,
    short_selling_effect,
)
from betlab.popp import (
    DEFAULT_MULTIPLIERS,
    Phase,
    StateVars,
    classify_phase,
    kelly_multiplier,
    legal_transitions,
    scaled_fraction,
)
from betlab.seeding import stream
from betlab.sysstats import (
    Filter,
    TradeSeries,
    average_gain_per_year,
    display_fields,
    format_summary_text,
    ppgs_classify,
    runs_test,
    summarize,
)
from betlab.wealthsim import (
    SimConfig,
    WealthPath,
    adaptive_policy_growth,
    drawdown,
    outcome_matrix,
    path_losses,
    path_stats,
    ruin_probability_all_in,
    simulate_paths,
    worst_loss,
    write_paths_csv,
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

# One of each strategy, whose ``begin`` checks its stream, seat and rounds.
STRATEGIES = (Biased(0.6), CoinFlip(), Fixed("H"), Alternator(), FrequencyExploiter(),
              BestResponder(0.7))

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
    **{
        f"{type(s).__name__}.begin.n_rounds": lambda v, s=s: s.begin(stream(1), 1, v)
        for s in STRATEGIES
    },
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
    "FrequencyExploiter.begin.player": lambda v: FrequencyExploiter().begin(stream(1), v, 3),
    "BestResponder.begin.player": lambda v: BestResponder(0.5).begin(stream(1), v, 3),
    "Biased.begin.player": lambda v: Biased(0.6).begin(stream(1), v, 3),
    "CoinFlip.begin.player": lambda v: CoinFlip().begin(stream(1), v, 3),
    "Fixed.begin.player": lambda v: Fixed("H").begin(stream(1), v, 3),
    "Alternator.begin.player": lambda v: Alternator().begin(stream(1), v, 3),
}
SERIES = TradeSeries(period_id=[1, 2], side=["L", "S"], pnl=[1.0, -0.5])


def values(enum) -> list[str]:
    return [member.value for member in enum]


# Enum, record and strategy arguments checked by ``errors.instance``: the
# site, the start of its message, and the values it refuses besides None
# and a string: for an enum, each member's string value.
TYPE_SITES = {
    "GrationalProblem.loss_kind": (
        lambda v: GrationalProblem(BET, 10, v, 0.5, 0.1),
        "loss_kind must be a LossKind",
        values(LossKind),
    ),
    "violation_probability.loss_kind": (
        lambda v: violation_probability(BET, 0.1, 10, v, 0.5, BUDGET),
        "loss_kind must be a LossKind",
        values(LossKind),
    ),
    "path_losses.kind": (
        lambda v: path_losses(np.array([0.0, 1.0]), v),
        "loss_kind must be a LossKind",
        values(LossKind),
    ),
    "clearing_price.dist": (
        lambda v: clearing_price(v, AuctionSpec(1, 3)),
        "dist must be a NormalOpinions or EmpiricalOpinions",
        [[50.0, 60.0, 70.0]],
    ),
    "reauction_price.dist": (
        lambda v: reauction_price(v, AuctionSpec(1, 3)),
        "dist must be an EmpiricalOpinions",
        [NormalOpinions(50.0, 10.0)],
    ),
    "legal_transitions.frm": (legal_transitions, "frm must be a Phase", values(Phase)),
    "classify_phase.observed": (
        classify_phase, "observed must be a StateVars", [("++", "+", "+", "-", "-", "-", "+")]
    ),
    "kelly_multiplier.phase": (kelly_multiplier, "phase must be a Phase", values(Phase)),
    "summarize.which": (lambda v: summarize(SERIES, v), "which must be a Filter", values(Filter)),
    # A strategy's class is not a strategy.
    "play_match.strategy1": (
        lambda v: play_match(v, CoinFlip(), 3, 1), "strategy1 must be a Strategy", [Biased]
    ),
    "play_match.strategy2": (
        lambda v: play_match(CoinFlip(), v, 3, 1), "strategy2 must be a Strategy", [Biased]
    ),
    "spy_match.strategy1": (
        lambda v: spy_match(v, 3, 1), "strategy1 must be a Strategy", [Biased]
    ),
    # Records, where each is first read: their fields as a tuple, or another
    # record, are not one.
    "GrationalProblem.bet": (
        lambda v: GrationalProblem(v, 10, DD, 0.5, 0.1), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "SimConfig.bet": (lambda v: SimConfig(v, 0.1, 2, 2, 1), "bet must be a BetSpec", [(0.6, 1.0)]),
    "kelly_fraction.bet": (kelly_fraction, "bet must be a BetSpec", [(0.6, 1.0)]),
    "solve.problem": (lambda v: solve(v, BUDGET), "problem must be a GrationalProblem", [BET]),
    "solve.budget": (lambda v: solve(problem(), v), "budget must be a McBudget", [(1000, 1)]),
    "violation_probability.budget": (
        lambda v: violation_probability(BET, 0.1, 10, DD, 0.5, v),
        "budget must be a McBudget",
        [(1000, 1)],
    ),
    "simulate_paths.config": (simulate_paths, "config must be a SimConfig", [BET]),
    "path_stats.path": (path_stats, "path must be a WealthPath", [np.zeros(3)]),
    "summarize.series": (
        lambda v: summarize(v, Filter.ALL), "series must be a TradeSeries", [BET]
    ),
    "ppgs_classify.series": (
        lambda v: ppgs_classify(v, 0.05), "series must be a TradeSeries", [BET]
    ),
    "asymptotic_growth.bet": (
        lambda v: asymptotic_growth(v, 0.1), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "growth_derivative.bet": (
        lambda v: growth_derivative(v, 0.1), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "growth_curve.bet": (
        lambda v: growth_curve(v, [0.0, 0.1]), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "ruin_probability_all_in.bet": (
        lambda v: ruin_probability_all_in(v, 3), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "adaptive_policy_growth.bet": (
        lambda v: adaptive_policy_growth(v, 3, 1), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "outcome_matrix.bet": (
        lambda v: outcome_matrix(v, 3, 2, 1), "bet must be a BetSpec", [(0.6, 1.0)]
    ),
    "worst_loss.path": (worst_loss, "path must be a WealthPath", [np.zeros(3)]),
    "drawdown.path": (drawdown, "path must be a WealthPath", [np.zeros(3)]),
    "write_paths_csv.path": (
        lambda v: write_paths_csv([v], io.StringIO()), "path must be a WealthPath", [np.zeros(3)]
    ),
    "best_feasible.grid": (
        lambda v: best_feasible(v, 0.1), "grid must be a GrationalGrid", [problem()]
    ),
    "average_gain_per_year.row": (
        lambda v: average_gain_per_year(v, 2.0), "row must be a SummaryRow", [SERIES]
    ),
    "display_fields.row": (display_fields, "row must be a SummaryRow", [SERIES]),
    "format_summary_text.row": (
        lambda v: format_summary_text([("All", v)]), "row must be a SummaryRow", [SERIES]
    ),
    "write_transcript_csv.transcript": (
        lambda v: write_transcript_csv(v, io.StringIO()),
        "transcript must be a GameTranscript",
        [BET],
    ),
    # Last, so that the rows above keep their ids.  A truthy string once
    # truncated: "no" clamped the price or the samples at 0.
    "NormalOpinions.truncate": (
        lambda v: NormalOpinions(0.0, 10.0, truncate=v), "truncate must be a bool", [0, "no"]
    ),
    "EmpiricalOpinions.truncate": (
        lambda v: EmpiricalOpinions([-5.0, 1.0, 2.0], truncate=v),
        "truncate must be a bool",
        [0, "no"],
    ),
    # A bit generator is not a Generator.
    **{
        f"{type(s).__name__}.begin.rng": (
            lambda v, s=s: s.begin(v, 1, 3), "rng must be a Generator", [np.random.PCG64(1)]
        )
        for s in STRATEGIES
    },
    # Text entry points: only a string is parsed.
    "parse_strategy.text": (parse_strategy, "text must be a str", [5, b"coinflip"]),
    "StateVars.from_tokens.text": (StateVars.from_tokens, "text must be a str", [5, b"+"]),
    # Miller's auction, where each entry point first reads it.
    "clearing_price.auction": (
        lambda v: clearing_price(NormalOpinions(50.0, 10.0), v),
        "auction must be an AuctionSpec",
        [(1, 3)],
    ),
    "dispersion_sweep.auction": (
        lambda v: dispersion_sweep(50.0, [0.0, 1.0], v), "auction must be an AuctionSpec", [(1, 3)]
    ),
    "short_selling_effect.auction": (
        lambda v: short_selling_effect(NormalOpinions(50.0, 10.0), v, []),
        "auction must be an AuctionSpec",
        [(1, 3)],
    ),
    "reauction_price.auction": (
        lambda v: reauction_price(EmpiricalOpinions([50.0, 60.0, 70.0]), v),
        "auction must be an AuctionSpec",
        [(1, 3)],
    ),
    # A choice is a string before it is H or T: an array of them was once
    # tested as a whole and raised numpy's "truth value ... is ambiguous".
    "Fixed.choice": (Fixed, "choice must be a str", [np.array(["H", "T"]), 5]),
    "Alternator.start": (Alternator, "start must be a str", [np.array(["H", "T"]), 5]),
    # Checked even when there are no short supplies to price.
    "short_selling_effect.dist": (
        lambda v: short_selling_effect(v, AuctionSpec(1, 3), []),
        "dist must be a NormalOpinions or EmpiricalOpinions",
        [[50.0, 60.0, 70.0]],
    ),
}
TYPE_CASES = [
    (name, value)
    for name, (_, start, others) in TYPE_SITES.items()
    for value in [None, *([] if start.endswith("a str") else ["x"]), *others]
]
INF = math.inf
# Real arguments checked by ``errors.within``: the site, then the interval's
# ends and whether each is closed ``[ ]`` or open ``( )``.  Every end at
# infinity is open.
RANGE_SITES = {
    "BetSpec.d": (lambda v: BetSpec(0.6, v), 0, INF, "()"),
    "fractional_kelly.alpha": (lambda v: fractional_kelly(BET, v), 0, 1, "(]"),
    "SimConfig.w0": (lambda v: SimConfig(BET, 0.1, 2, 2, 1, w0=v), 0, INF, "()"),
    # A small f_max keeps the grid short at the finest step.
    "solve.grid_step": (
        lambda v: solve(problem(), BUDGET, grid_step=v, f_max=0.001),
        _MIN_GRID_STEP,
        0.1,
        "[]",
    ),
    "play_match.stake": (
        lambda v: play_match(CoinFlip(), CoinFlip(), 10, 1, stake=v), 0, INF, "()"
    ),
    "play_match.rake": (
        lambda v: play_match(CoinFlip(), CoinFlip(), 10, 1, rake=v), 0, INF, "[)"
    ),
    "spy_match.stake": (lambda v: spy_match(CoinFlip(), 10, 1, stake=v), 0, INF, "()"),
    "responder_expected_gain.stake_total": (
        lambda v: responder_expected_gain(0.6, 0.6, 10, v), 0, INF, "[)"
    ),
    "ppgs_classify.alpha": (lambda v: ppgs_classify(SERIES, alpha=v), 0, 1, "()"),
    "average_gain_per_year.n_years": (
        lambda v: average_gain_per_year(summarize(SERIES, Filter.ALL), v), 0, INF, "()"
    ),
    "NormalOpinions.mean": (lambda v: NormalOpinions(v, 10.0), -INF, INF, "()"),
    "NormalOpinions.sd": (lambda v: NormalOpinions(50.0, v), 0, INF, "[)"),
    "sample_normal_opinions.mean": (
        lambda v: sample_normal_opinions(v, 10.0, 10, 1), -INF, INF, "()"
    ),
    "sample_normal_opinions.sd": (
        lambda v: sample_normal_opinions(50.0, v, 10, 1), 0, INF, "[)"
    ),
    "kelly_multiplier": (
        lambda v: kelly_multiplier(Phase.CRASH, {**DEFAULT_MULTIPLIERS, Phase.CRASH: v}),
        0,
        1,
        "[]",
    ),
}
MAX = errors.MAX_LENGTH
# Integer arguments checked by ``errors.integer``: the site, then the
# interval's inclusive ends (``INF`` for no bound).  An array length ends at
# ``MAX``.  Where a site would build an array of ``MAX`` entries, another
# argument makes it refuse the call after the range rule has passed: an
# overflowing stake, a seed of None or a stream of None.
INTEGER_SITES = {
    "count": (lambda v: errors.count(v, "n"), 1, INF),
    "root_seed": (errors.root_seed, 0, 2**64 - 1),
    "stream.key": (lambda v: stream(1, v), 0, INF),
    "stream.second_key": (lambda v: stream(1, 0, v), 0, INF),
    "frequency_exploiter.player": (
        lambda v: frequency_exploiter(["H"] * 5, k=1, player=v), 1, 2
    ),
    "BestResponder.begin.player": (lambda v: BestResponder(0.5).begin(stream(1), v, 3), 1, 2),
    "FrequencyExploiter.k": (lambda v: FrequencyExploiter(v), 1, 8),
    "play_match.n_rounds": (
        lambda v: play_match(CoinFlip(), CoinFlip(), v, 1, stake=1e300), 1, MAX
    ),
    "spy_match.n_rounds": (lambda v: spy_match(CoinFlip(), v, 1, stake=1e300), 1, MAX),
    "AuctionSpec.n_shares": (lambda v: AuctionSpec(v, 1000, short_supply=1), 0, INF),
    "AuctionSpec.short_supply": (lambda v: AuctionSpec(100, 1000, short_supply=v), 0, INF),
    "short_selling_effect.short_supplies": (
        lambda v: short_selling_effect(NormalOpinions(50.0, 10.0), AuctionSpec(1, 1000), [v]),
        0,
        INF,
    ),
    "adaptive_policy_growth.n_steps": (lambda v: adaptive_policy_growth(BET, v, None), 1, MAX),
    "outcome_matrix.first": (lambda v: outcome_matrix(BET, 2, 2, 1, first=v), 0, INF),
    "sample_normal_opinions.m_buyers": (
        lambda v: sample_normal_opinions(50.0, 10.0, v, None), 1, MAX
    ),
    "Biased.begin.player": (lambda v: Biased(0.6).begin(stream(1), v, 3), 1, 2),
    "CoinFlip.begin.player": (lambda v: CoinFlip().begin(stream(1), v, 3), 1, 2),
    "Fixed.begin.player": (lambda v: Fixed("H").begin(stream(1), v, 3), 1, 2),
    "Alternator.begin.player": (lambda v: Alternator().begin(stream(1), v, 3), 1, 2),
    **{
        f"{type(s).__name__}.begin.n_rounds": (lambda v, s=s: s.begin(None, 1, v), 1, MAX)
        for s in STRATEGIES
    },
}
# Real arguments whose range rule is their own; a non-real must fail the
# shared real-number rule before any comparison.
REAL_SITES = {name: site for name, (site, *_) in RANGE_SITES.items()} | {
    "GrationalProblem.loss_threshold": lambda v: GrationalProblem(BET, 10, DD, v, 0.1),
}

# Not a number of the right kind, whatever the range.
NOT_NUMBER = st.sampled_from([True, False, "0.5", "3", None, b"1", 1j, np.bool_(True)])
# Nor a real that a double can hold; 10**400 is a good count, not a good real.
NOT_REAL = NOT_NUMBER | st.sampled_from([10**400, 10**5000, -(10**5000)])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)])
NOT_INTEGER = st.one_of(
    NOT_NUMBER,
    NON_FINITE,
    st.sampled_from([2.5, 1.0, 0.0, np.float64(3.0), np.float32(2.0)]),
    st.floats(),
)
# -(10**5000) has more digits than Python turns into text.
NEGATIVE = st.integers(max_value=-1) | st.sampled_from([np.int64(-1), -(2**70), -(10**5000)])


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
BAD_SEED = NOT_INTEGER | NEGATIVE | st.integers(min_value=2**64) | st.just(10**5000)
BAD_SEAT = NOT_INTEGER | st.integers().filter(lambda n: n not in (1, 2)) | st.sampled_from(
    [0, 3, np.int64(0), np.uint8(3), 10**5000, -(10**5000)]
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
@example(name="Biased.begin.n_rounds", value=2.5)
@example(name="Fixed.begin.n_rounds", value=-1)
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


@pytest.mark.parametrize("name, value", TYPE_CASES)
def test_types(name, value, monkeypatch):
    # Each was once refused in its own words, or not at all: a strategy
    # that is not one raised AttributeError after its stream was built.
    streams = []
    monkeypatch.setattr(games, "stream", lambda *key: streams.append(key))
    site, start, _ = TYPE_SITES[name]
    with pytest.raises(DomainError, match=f"^{re.escape(start)}, got {re.escape(repr(value))}$"):
        site(value)
    assert streams == []


@SETTINGS
@given(name=st.sampled_from(sorted(REAL_SITES)), value=NOT_REAL)
@example(name="kelly_multiplier", value="0")
def test_reals(name, value):
    with pytest.raises(DomainError, match="must be a real number"):
        REAL_SITES[name](value)


def range_points(low, high, ends):
    """The values an interval refuses at its edges (NaN, both infinities,
    the double just past each end, an open end) and the closed ends it holds."""
    refused = [math.nan, -INF, INF, math.nextafter(low, -INF), math.nextafter(high, INF)]
    held = []
    for end, bracket in ((low, ends[0]), (high, ends[1])):
        (held if bracket in "[]" else refused).append(end)
    return refused, held


@SETTINGS
@given(name=st.sampled_from(sorted(RANGE_SITES)), refuse=st.booleans(), data=st.data())
def test_ranges(name, refuse, data):
    site, low, high, ends = RANGE_SITES[name]
    refused, held = range_points(low, high, ends)
    if refuse:
        with pytest.raises(DomainError, match="must lie in"):
            site(data.draw(st.sampled_from(refused)))
        return
    interior = st.floats(
        min_value=None if low == -INF else low,
        max_value=None if high == INF else high,
        exclude_min=low != -INF,
        exclude_max=high != INF,
        allow_nan=False,
        allow_infinity=False,
        allow_subnormal=False,
    )
    value = data.draw(st.sampled_from(held) | interior if held else interior)
    # The range rule lets the value through; another rule of the site (the
    # schedule's order, an overflowing product) may still refuse it.
    try:
        site(value)
    except DomainError as exc:
        assert "must lie in" not in str(exc)


def integer_points(low, high):
    """The ints a range refuses (the int past each end, 2**63, 10**20 and
    -(10**5000), where they lie outside it) and its finite ends, which it holds."""
    candidates = [low - 1, high + 1, 2**63, 10**20, -(10**5000)]
    refused = [n for n in candidates if not low <= n <= high]
    return refused, [end for end in (low, high) if end != INF]


@SETTINGS
@given(name=st.sampled_from(sorted(INTEGER_SITES)), refuse=st.booleans(), data=st.data())
def test_integer_ranges(name, refuse, data):
    site, low, high = INTEGER_SITES[name]
    refused, held = integer_points(low, high)
    if refuse:
        with pytest.raises(DomainError, match="must lie in"):
            site(data.draw(st.sampled_from(refused)))
        return
    # The range rule lets an end through; another rule of the site may
    # still refuse it.
    try:
        site(data.draw(st.sampled_from(held)))
    except DomainError as exc:
        assert "must lie in" not in str(exc)


@pytest.mark.parametrize(
    "n_steps, n_paths",
    [(sys.maxsize, 2), (2, sys.maxsize), (MAX, 2), (2, MAX), (2**63, 1), (1, 10**20)],
)
def test_outcome_matrix_size(n_steps, n_paths):
    # The matrix's size, not each side, is bounded by the largest array length.
    with pytest.raises(DomainError, match="exceed what numpy can index"):
        outcome_matrix(BET, n_steps, n_paths, 1)


@pytest.mark.parametrize(
    "n_steps, n_paths",
    [(sys.maxsize, 1000), (2, sys.maxsize), (MAX // 999, 1000), (2, 10**20), (2**63, 1000)],
)
def test_grational_matrix_size(n_steps, n_paths, monkeypatch):
    # The solver draws the matrix in blocks, but still refuses one numpy
    # could not index, before it draws a block.
    def draw(*args):
        raise AssertionError("drew outcomes before checking the matrix's size")

    monkeypatch.setattr(grational, "outcome_matrix", draw)
    budget = McBudget(n_paths, 1)
    with pytest.raises(DomainError, match="exceed what numpy can index"):
        solve(problem(n_steps), budget)
    with pytest.raises(DomainError, match="exceed what numpy can index"):
        violation_probability(BET, 0.1, n_steps, DD, 0.5, budget)


HUGE_INT_CALLS = {
    "root_seed": lambda: errors.root_seed(10**5000),
    "real": lambda: errors.real(10**5000, "x"),
    "count": lambda: errors.count(-(10**5000), "n"),
    "probability": lambda: errors.probability(10**5000, "p"),
    "outcome_matrix": lambda: outcome_matrix(BET, 10**5000, 2, 1),
    "outcome_matrix.first": lambda: outcome_matrix(BET, 2, 2, 1, first=-(10**5000)),
    "play_match": lambda: play_match(CoinFlip(), CoinFlip(), 10**5000, 1),
    "AuctionSpec.quantile_level": lambda: AuctionSpec(10**5000, 10).quantile_level(),
}


@pytest.mark.parametrize("name", sorted(HUGE_INT_CALLS))
def test_huge_ints(name):
    # str() of an int past 4300 digits raises ValueError; the message names
    # the int by its bit length instead.
    with pytest.raises(DomainError, match="int of 16610 bits"):
        HUGE_INT_CALLS[name]()


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


# Numbers a site returns or a record stores, and a value to pass: a float
# site is given np.float32(value) and float(np.float32(value)), an int site
# np.int32(value) and int(value), and must give the same Python float or int
# for both.  A float32 once leaked into the arithmetic and the result: the
# Kelly fraction came back as np.float32, the critical fraction was wrong in
# its 7th digit, and json.dumps refused both.
NUMBER_SITES = {
    "BetSpec.p": (lambda v: BetSpec(v, 1.0).p, 0.6),
    "BetSpec.d": (lambda v: BetSpec(0.6, v).d, 1.5),
    "kelly_fraction": (lambda v: kelly_fraction(BetSpec(v, 1.0)), 0.6),
    "critical_fraction": (lambda v: critical_fraction(BetSpec(v, 1.0)), 0.6),
    "asymptotic_growth.f": (lambda v: asymptotic_growth(BetSpec(0.6, 1.5), v), 0.1),
    "growth_derivative.f": (lambda v: growth_derivative(BET, v), 0.1),
    "fractional_kelly.alpha": (lambda v: fractional_kelly(BET, v), 0.5),
    "SimConfig.f": (lambda v: SimConfig(BET, v, 2, 2, 1).f, 0.1),
    "SimConfig.n_steps": (lambda v: SimConfig(BET, 0.1, v, 2, 1).n_steps, 5),
    "SimConfig.n_paths": (lambda v: SimConfig(BET, 0.1, 2, v, 1).n_paths, 5),
    "SimConfig.root_seed": (lambda v: SimConfig(BET, 0.1, 2, 2, v).root_seed, 7),
    "SimConfig.w0": (lambda v: SimConfig(BET, 0.1, 2, 2, 1, w0=v).w0, 2.5),
    "GrationalProblem.n_steps": (lambda v: problem(n_steps=v).n_steps, 5),
    "GrationalProblem.loss_threshold": (
        lambda v: GrationalProblem(BET, 10, DD, v, 0.1).loss_threshold, 0.3
    ),
    "GrationalProblem.max_prob": (lambda v: problem(max_prob=v).max_prob, 0.1),
    "McBudget.n_paths": (lambda v: McBudget(v, 1).n_paths, 1000),
    "McBudget.root_seed": (lambda v: McBudget(1000, v).root_seed, 7),
    "NormalOpinions.mean": (lambda v: NormalOpinions(v, 10.0).mean, 50.3),
    "NormalOpinions.sd": (lambda v: NormalOpinions(50.0, v).sd, 10.3),
    "clearing_price": (
        lambda v: clearing_price(NormalOpinions(v, 10.0), AuctionSpec(50, 1000)), 50.0
    ),
    "AuctionSpec.n_shares": (lambda v: AuctionSpec(v, 1000).n_shares, 50),
    "AuctionSpec.m_buyers": (lambda v: AuctionSpec(50, v).m_buyers, 1000),
    "AuctionSpec.short_supply": (lambda v: AuctionSpec(50, 1000, v).short_supply, 5),
    "GameTranscript.stake": (lambda v: GameTranscript(["H"], ["T"], v).stake, 1.5),
    "GameTranscript.rake": (lambda v: GameTranscript(["H"], ["T"], 1.0, v).rake, 0.1),
    "responder_expected_gain.p_h": (lambda v: responder_expected_gain(v, 0.7, 10, 1.0), 0.6),
    "average_gain_per_year.n_years": (
        lambda v: average_gain_per_year(summarize(SERIES, Filter.ALL), v), 3.0
    ),
    "kelly_multiplier": (
        lambda v: kelly_multiplier(Phase.CRASH, {**DEFAULT_MULTIPLIERS, Phase.CRASH: v}), 0.1
    ),
}


@pytest.mark.parametrize("name", sorted(NUMBER_SITES))
def test_numbers_are_python_numbers(name):
    site, value = NUMBER_SITES[name]
    kind = type(value)
    narrow = (np.float32 if kind is float else np.int32)(value)
    got, want = site(narrow), site(kind(narrow))
    assert type(got) is type(want) is kind and got == want, (got, want)


# Each record that holds arrays: how to build it, and the arrays it is built
# from.  ``==`` between two such dataclasses raised numpy's "truth value ...
# is ambiguous" ValueError.  The first two entries of each array a record
# copies differ, so writing one over the other changes the array.
GRID_COLUMNS = [getattr(GRID, field.name) for field in dataclasses.fields(GRID)]
ARRAY_HOLDERS = {
    "GameTranscript": (lambda c1, c2: GameTranscript(c1, c2, 1.0), ["H", "T"], ["T", "H"]),
    "WealthPath": (WealthPath, [0.0, 0.1, -0.1], [True, False]),
    "GrowthCurve": (GrowthCurve, [0.1, 0.2], [0.01, 0.02]),
    "growth_curve": (lambda f: growth_curve(BET, f), [0.1, 0.2]),
    "TradeSeries": (TradeSeries, [1, 2], ["L", "S"], [1.0, -0.5]),
    "EmpiricalOpinions": (EmpiricalOpinions, [50.0, 40.0]),
    "EmpiricalOpinions.truncate": (lambda s: EmpiricalOpinions(s, truncate=True), [5.0, -4.0]),
    "GrationalGrid": (GrationalGrid, *GRID_COLUMNS),
    "GrationalSolution": (lambda *c: best_feasible(GrationalGrid(*c), 0.5), *GRID_COLUMNS),
}


def held_arrays(record) -> dict[str, np.ndarray]:
    """The arrays a record holds, by field name, with those of the records it holds."""
    held = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            held[field.name] = value
        elif dataclasses.is_dataclass(value):
            held.update({f"{field.name}.{k}": v for k, v in held_arrays(value).items()})
    return held


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    build, *arrays = ARRAY_HOLDERS[name]
    a, b = build(*arrays), build(*arrays)
    assert a == a and a != b and not a == b


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_keep_read_only_copies(name):
    # Changing the caller's arrays leaves the record as it was built, and
    # every array the record holds refuses a write.
    build, *values = ARRAY_HOLDERS[name]
    arrays = [np.array(value) for value in values]
    record = build(*arrays)
    held = held_arrays(record)
    before = {field: array.copy() for field, array in held.items()}
    for array in arrays:
        array[0] = array[1]
    assert held
    for field, array in held.items():
        assert np.array_equal(array, before[field]), field
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


# Array arguments checked by ``errors.column``: the site, then the column's
# dtype and a value of its kind but of a length the site refuses (None where
# any length is good).  Every other argument holds one entry, or two
# log-wealth values for one outcome.
COLUMN_SITES = {
    "WealthPath.log_wealth": (lambda v: WealthPath(v, [True]), float, [0.0, 0.1, 0.2]),
    "WealthPath.outcomes": (lambda v: WealthPath([0.0, 0.1], v), bool, [True, False]),
    "GameTranscript.choices1": (lambda v: GameTranscript(v, ["H"], 1.0), None, ["H", "T"]),
    "GameTranscript.choices2": (lambda v: GameTranscript(["H"], v, 1.0), None, ["H", "T"]),
    "TradeSeries.period_id": (lambda v: TradeSeries(v, ["L"], [1.0]), int, [1, 2]),
    "TradeSeries.side": (lambda v: TradeSeries([1], v, [1.0]), None, ["L", "S"]),
    "TradeSeries.pnl": (lambda v: TradeSeries([1], ["L"], v), float, [1.0, 2.0]),
    "EmpiricalOpinions.samples": (EmpiricalOpinions, float, None),
    "GrowthCurve.fractions": (lambda v: GrowthCurve(v, [0.0]), float, [0.1, 0.2]),
    "GrowthCurve.rates": (lambda v: GrowthCurve([0.1], v), float, [0.0, 0.0]),
    "growth_curve.fractions": (lambda v: growth_curve(BET, v), float, None),
    "runs_test.outcomes": (runs_test, bool, None),
    "GrationalGrid.f": (lambda v: GrationalGrid(v, *GRID_COLUMNS[1:]), float, [0.0]),
    "GrationalGrid.se_violation": (
        lambda v: GrationalGrid(*GRID_COLUMNS[:4], v, GRID_COLUMNS[5]), float, [0.0, 0.0, 0.0]
    ),
    "GrationalGrid.feasible": (lambda v: GrationalGrid(*GRID_COLUMNS[:5], v), bool, [True]),
}
# Not a 1-d sequence of at least one entry: 0-d, 2-d, empty and ragged values.
NOT_COLUMN = st.sampled_from([
    "abc", "H", "0.5", b"1", 0.5, 7, None, True, np.float64(0.5), np.array(0.5), {"H": 1},
    [[0.5]], [["H"]], [[True, False]], np.zeros((2, 2)), np.array([["L"]]),
    [], (), np.array([]), np.zeros(0, dtype=bool), np.array([], dtype="U1"),
    [[0.5, 0.5], [0.5]], [["H"], ["H", "T"]], [1, [2, 3]], [True, [False]],
])
# Entries a float column refuses: like ``real``, no strings, bools, None,
# complex numbers or ints past double range; nor NaN or an infinity.
BAD_REAL_ENTRIES = st.sampled_from([
    ["a", "b"], ["0.5"], [0.5, "x"], [b"1"], [None], [0.5, None], [1j], [10**400],
    [True, False], np.array([True]),
    [math.nan], [0.5, math.inf], [-math.inf], np.array([0.1, math.nan]), [np.float32("inf")],
])
# Entries a bool column refuses: numbers, strings and None.
BAD_BOOL_ENTRIES = st.sampled_from([[0, 1], [1], [0.5], [math.nan], ["T"], [None], np.arange(2)])
# Entries an int column refuses: like ``integer``, no bools, floats (even
# integral or NaN), strings or None.
BAD_INT_ENTRIES = st.sampled_from([
    ["a"], ["1"], [b"1"], [1.5], [2.0], [math.nan], [np.float64(3)], [True], [np.True_],
    [None], [1j], np.array([1.0]), np.array([True]), np.array(["1"]), [[1]],
])
BAD_ENTRIES = {float: BAD_REAL_ENTRIES, bool: BAD_BOOL_ENTRIES, int: BAD_INT_ENTRIES}
COLUMN_MESSAGE = re.compile(
    r"\w+ must be a 1-d sequence of (at least one|\d+) (real |bool |integer )?entr(y|ies), got .+"
    r"|\w+ must be finite, got \S+ at index \d+"
)


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(COLUMN_SITES)), data=st.data())
def test_columns(name, data):
    site, dtype, wrong_length = COLUMN_SITES[name]
    values = NOT_COLUMN | BAD_ENTRIES.get(dtype, st.nothing())
    if wrong_length is not None:
        values |= st.just(wrong_length)
    with pytest.raises(DomainError) as info:
        site(data.draw(values))
    assert COLUMN_MESSAGE.fullmatch(str(info.value)), str(info.value)


class TestRules:
    """The rules' messages: each site's message is one of these."""

    @pytest.mark.parametrize(
        "rule, args, message",
        [
            ("count", (0, "n_paths"), "n_paths must lie in [1, inf), got 0"),
            ("count", (2.5, "n_paths"), "n_paths must be an integer, got 2.5"),
            ("integer", (True, "k"), "k must be an integer, got True"),
            ("probability", (1.5, "x"), "x must lie in [0, 1], got 1.5"),
            ("probability", (True, "x"), "x must be a real number, got True"),
            ("fraction", (1.0,), "betting fraction must lie in [0, 1), got 1.0"),
            ("fraction", ("0.5", "f_max"), "f_max must be a real number, got '0.5'"),
            ("root_seed", (-1,), "root_seed must lie in [0, 18446744073709551615], got -1"),
            ("root_seed", (1.0,), "root_seed must be an integer, got 1.0"),
            ("real", (True, "odds"), "odds must be a real number, got True"),
            ("within", (-1.0, "odds", 0, math.inf, "()"), "odds must lie in (0, inf), got -1.0"),
            ("within", (math.nan, "sd", 0, math.inf, "[)"), "sd must lie in [0, inf), got nan"),
            ("within", (0, "alpha", 0, 1, "(]"), "alpha must lie in (0, 1], got 0"),
            (
                "count",
                (-(10**5000), "n"),
                "n must lie in [1, inf), got a negative int of 16610 bits",
            ),
            (
                "root_seed",
                (10**5000,),
                "root_seed must lie in [0, 18446744073709551615], got an int of 16610 bits",
            ),
            ("integer", (9, "context order", 1, 8), "context order must lie in [1, 8], got 9"),
            ("integer", (0, "k", -math.inf, -1), "k must lie in (-inf, -1], got 0"),
            ("integer", (0, "n", 1, sys.maxsize), f"n must lie in [1, {sys.maxsize}], got 0"),
            (
                "column",
                ([[1.0]], "x", float),
                "x must be a 1-d sequence of at least one real entry, got shape (1, 1) of float64",
            ),
            (
                "column",
                ([], "o", bool),
                "o must be a 1-d sequence of at least one bool entry, got shape (0,) of float64",
            ),
            (
                "column",
                (["H"], "c", None, 2),
                "c must be a 1-d sequence of 2 entries, got shape (1,) of <U1",
            ),
            (
                "column",
                (["0.5"], "x", float),
                "x must be a 1-d sequence of at least one real entry, got shape (1,) of <U3",
            ),
            (
                "column",
                ([[1.0], [1.0, 2.0]], "x", float),
                "x must be a 1-d sequence of at least one real entry, "
                "got a ragged or unconvertible value",
            ),
            ("column", ([1.0, math.nan], "x", float), "x must be finite, got nan at index 1"),
            ("column", ([-math.inf], "x", float, 1), "x must be finite, got -inf at index 0"),
            (
                "column",
                ([1, 2.0], "id", int),
                "id must be a 1-d sequence of at least one integer entry, got 2.0 at index 1",
            ),
            (
                "column",
                ([3, np.int8(4), True], "id", int, 3),
                "id must be a 1-d sequence of 3 integer entries, got True at index 2",
            ),
            (
                "column",
                (np.array([1.0]), "id", int),
                "id must be a 1-d sequence of at least one integer entry, got 1.0 at index 0",
            ),
            # Last, so that the rows above keep their ids.
            ("instance", ("crash", "phase", Phase), "phase must be a Phase, got 'crash'"),
            (
                "instance",
                (None, "dist", EmpiricalOpinions, NormalOpinions),
                "dist must be an EmpiricalOpinions or NormalOpinions, got None",
            ),
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

    def test_instance_returns_the_value(self):
        series = TradeSeries([1], ["L"], [1.0])
        assert errors.instance(series, "series", TradeSeries) is series
        assert errors.instance(Filter.ALL, "which", Phase, Filter) is Filter.ALL

    def test_column_is_a_new_read_only_array(self):
        given = np.arange(3.0)
        got = errors.column(given, "x", float)
        assert not np.shares_memory(got, given) and not got.flags.writeable
        assert errors.column(np.arange(3), "x", float).dtype == float
        assert errors.column([2**70], "id", object)[0] == 2**70

    @pytest.mark.parametrize("dtype, kind", [(float, "f"), (bool, "b"), (int, "O")])
    @pytest.mark.parametrize("empty", [[], (), np.array([]), np.zeros(0, dtype=bool)])
    def test_zero_entries_asked_for(self, empty, dtype, kind):
        # numpy types [] as float64: with no entries there is no kind to refuse.
        got = errors.column(empty, "x", dtype, 0)
        assert got.shape == (0,) and got.dtype.kind == kind and not got.flags.writeable

    def test_path_without_steps(self):
        path = WealthPath([0.0], [])
        assert path.outcomes.shape == (0,) and path.outcomes.dtype == bool

    @pytest.mark.parametrize(
        "ids",
        [[1, 2**70], np.arange(2), np.array([5, 2**64 - 1], dtype=np.uint64),
         [np.int8(-1), np.int64(2)], [1, np.uint32(7)]],
    )
    def test_int_column_holds_python_ints(self, ids):
        got = errors.column(ids, "id", int)
        assert got.dtype == object and not got.flags.writeable
        assert [type(v) for v in got] == [int, int]
        assert got.tolist() == [int(v) for v in ids]


def test_seed_env_message(monkeypatch):
    # The CLI reports an out-of-range GRATIONAL_SEED in the rule's words.
    monkeypatch.setenv(SEED_ENV_VAR, str(2**64))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["pennies", "--p1", "coinflip", "--p2", "coinflip", "--rounds", "3"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == (
        f"error: bad {SEED_ENV_VAR} value '{2**64}': "
        f"seed must lie in [0, {2**64 - 1}], got {2**64}\n"
    )


# Valid arguments for each record whose fields declare their rules with
# ``errors.ruled``; a ``Ruled`` subclass without a row fails below.
RULED_ARGS = {
    "AuctionSpec": dict(n_shares=1, m_buyers=3),
    "BetSpec": dict(p=0.6, d=1.0),
    "EmpiricalOpinions": dict(samples=[50.0, 60.0, 70.0]),
    "GameTranscript": dict(choices1=["H", "T"], choices2=["T", "T"], stake=1.0),
    "GrationalGrid": dict(f=[0.0, 0.1], e_growth=[0.0, 0.01], se_growth=[0.0, 0.0],
                          p_violation=[0.0, 0.2], se_violation=[0.0, 0.0], feasible=[True, False]),
    "GrationalProblem": dict(bet=BET, n_steps=10, loss_kind=DD, loss_threshold=0.5, max_prob=0.1),
    "GrowthCurve": dict(fractions=[0.0, 0.1], rates=[0.0, 0.01]),
    "McBudget": dict(n_paths=1000, root_seed=1),
    "NormalOpinions": dict(mean=50.0, sd=10.0),
    "SimConfig": dict(bet=BET, f=0.1, n_steps=2, n_paths=2, root_seed=1),
    "StateVars": dict(ret="++", vol="+", sr="+", spd="-", pop="-", lev="-", sdiv="+",
                      slink="?", srob="+"),
    "TradeSeries": dict(period_id=[1, 2], side=["L", "S"], pnl=[1.0, -0.5]),
    "WealthPath": dict(log_wealth=[0.0, 0.1], outcomes=[True]),
}


def ruled_records(base=errors.Ruled):
    for record in base.__subclasses__():
        yield record
        yield from ruled_records(record)


RULED = {record.__name__: record for record in ruled_records()}


def ruled_fields(record) -> list[tuple[str, str]]:
    """Each ruled field's name and the word its message starts with."""
    rules = (field for field in dataclasses.fields(record) if "rule" in field.metadata)
    return [(field.name, field.metadata["rule"][1] or field.name) for field in rules]


def test_every_ruled_record_has_arguments():
    assert set(RULED) - set(RULED_ARGS) == set()
    for name, args in RULED_ARGS.items():
        RULED[name](**args)


@pytest.mark.parametrize("bad", [None, object(), []], ids=["None", "object", "list"])
@pytest.mark.parametrize(
    "name, field, word",
    [pytest.param(name, field, word, id=f"{name}.{field}")
     for name, record in sorted(RULED.items()) for field, word in ruled_fields(record)],
)
def test_ruled_field_refuses(name, field, word, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(word)} must "):
        RULED[name](**{**RULED_ARGS[name], field: bad})


@pytest.mark.parametrize("name", sorted(RULED))
def test_first_declared_field_is_named(name):
    fields = ruled_fields(RULED[name])
    with pytest.raises(DomainError, match=f"^{re.escape(fields[0][1])} must "):
        RULED[name](**{**RULED_ARGS[name], **{field: None for field, _ in fields}})


# Two bad fields, in a record whose checks once ran in another order.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AuctionSpec(-1, 0), "n_shares must lie in [0, inf), got -1"),
        (
            lambda: SimConfig(BET, 0.1, 2, 2, -1, w0=0),
            "root_seed must lie in [0, 18446744073709551615], got -1",
        ),
        # A later column's size is read from the first, which is checked whole before it.
        (lambda: WealthPath([0.0, math.nan], [2]), "log_wealth must be finite, got nan at index 1"),
        (
            lambda: GrationalGrid([0.0, 0.1], [0.0, math.inf], [0.0], [0.0], [0.0], [True]),
            "e_growth must be finite, got inf at index 1",
        ),
        (
            lambda: TradeSeries([2, 1], ["Q", "L"], [1.0]),
            "pnl must be a 1-d sequence of 2 real entries, got shape (1,) of float64",
        ),
        (lambda: GameTranscript(["X"], ["H"], -1), "stake must lie in (0, inf), got -1"),
        (lambda: GrowthCurve([0.5, 0.2], [0.0]), "fractions must be strictly increasing"),
    ],
    ids=["AuctionSpec", "SimConfig", "WealthPath", "GrationalGrid", "TradeSeries",
         "GameTranscript", "GrowthCurve"],
)
def test_two_faults_name_the_first_declared(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


# Collection arguments that once raised TypeError ("... is not iterable"):
# the site, the start of its message and the values it refuses.  A string
# is iterable, so only a schedule refuses one; None is the default schedule.
COLLECTION_SITES = {
    "short_selling_effect.short_supplies": (
        lambda v: short_selling_effect(NormalOpinions(50.0, 10.0), AuctionSpec(1, 3), v),
        "short_supplies must be an Iterable",
        [None, 5],
    ),
    "mixed_sequence_fractions.bets": (mixed_sequence_fractions, "bets must be an Iterable", [None, 5]),
    "frequency_exploiter.history": (frequency_exploiter, "history must be an Iterable", [None, 5]),
    "kelly_multiplier.schedule": (
        lambda v: kelly_multiplier(Phase.CRASH, v),
        "schedule must be a Mapping",
        [5, "x", list(DEFAULT_MULTIPLIERS.items())],
    ),
    "scaled_fraction.schedule": (
        lambda v: scaled_fraction(Phase.CRASH, BET, v), "schedule must be a Mapping", [5, "x"]
    ),
    "format_summary_text.rows": (format_summary_text, "rows must be an Iterable", [None, 5]),
    "write_paths_csv.paths": (
        lambda v: write_paths_csv(v, io.StringIO()), "paths must be an Iterable", [None, 5]
    ),
}


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name, (_, _, values) in COLLECTION_SITES.items() for value in values],
)
def test_collections(name, value):
    site, start, _ = COLLECTION_SITES[name]
    with pytest.raises(DomainError, match=f"^{re.escape(start)}, got {re.escape(repr(value))}$"):
        site(value)


def test_short_selling_effect_without_supplies():
    prices = short_selling_effect(NormalOpinions(50.0, 10.0), AuctionSpec(1, 3), [])
    assert prices.shape == (0,)
