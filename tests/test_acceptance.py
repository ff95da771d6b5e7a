"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line (visible under ``pytest -s``).  Tolerances and time
budgets are asserted inside the test bodies.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from betlab import betmath, games, grational, millerclear, popp, sysstats, wealthsim
from betlab.errors import DomainError
from betlab.seeding import DEFAULT_SEED


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")

        return wrapper

    return decorate


@criterion(1, "grid search recovers the optimal fraction on 147 bets in under 1s")
def test_criterion_01_kelly_recovery():
    start = time.perf_counter()
    ps = np.round(np.arange(0.51, 0.995, 0.01), 10)
    ds = np.array([0.5, 1.0, 2.0])
    assert ps.size * ds.size == 147
    fractions = np.arange(0.0, 0.9995, 1e-3)
    p_grid, d_grid = np.meshgrid(ps, ds, indexing="ij")
    p_col = p_grid.reshape(-1, 1)
    d_col = d_grid.reshape(-1, 1)
    rates = p_col * np.log1p(d_col * fractions) + (1 - p_col) * np.log1p(-fractions)
    best = fractions[np.argmax(rates, axis=1)]
    expected = np.maximum(p_col[:, 0] - (1 - p_col[:, 0]) / d_col[:, 0], 0.0)
    assert np.all(np.abs(best - expected) <= 1e-3 + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "responder edge: closed form, Monte Carlo, and the spy variant")
def test_criterion_02_pennies():
    # closed form: 60/40 bias exploited with a 60% tilt on $200
    gain = games.responder_expected_gain(0.6, 0.6, 100, 200.0)
    assert abs(gain - 8.0) <= 1e-9
    assert format(gain, ".12g") == "8"
    assert games.responder_expected_gain(0.6, 1.0, 100, 200.0) == pytest.approx(40.0)

    # Monte Carlo at the same per-round stake agrees within 3 s.e.
    n = 1_000_000
    stake = 2.0
    t = games.play_match(games.Biased(0.6), games.Biased(0.4), n, root_seed=29,
                         stake=stake)
    per_round = gain / 100.0
    se = stake / math.sqrt(n)
    assert abs(t.total_gain2 / n - per_round) <= 3 * se

    # full disclosure: +stake every single round
    spy = games.spy_match(games.CoinFlip(), 100, root_seed=7)
    assert spy.total_gain2 == 100.0
    assert np.all(spy.gains2 == 1.0)


@criterion(3, "overbetting threshold sits in (0.38, 0.40) and ruins long paths")
def test_criterion_03_critical_fraction():
    start = time.perf_counter()
    bet = betmath.BetSpec(0.6, 1.0)
    f_c = betmath.critical_fraction(bet)
    assert 0.38 < f_c < 0.40
    assert abs(betmath.asymptotic_growth(bet, f_c)) < 1e-10

    config = wealthsim.SimConfig(
        bet=bet, f=f_c + 0.05, n_steps=100_000, n_paths=100, root_seed=DEFAULT_SEED
    )
    paths = wealthsim.simulate_paths(config)
    realized = [
        (p.log_wealth[-1] - p.log_wealth[0]) / p.n_steps for p in paths
    ]
    negative = sum(1 for g in realized if g < 0)
    assert negative >= 95, f"only {negative}/100 paths shrank"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(4, "capped-loss optimizer: unconstrained recovery and monotone caps")
def test_criterion_04_grational():
    bet = betmath.BetSpec(0.6, 1.0)

    # with the cap switched off the optimizer lands on the growth optimum
    problem = grational.GrationalProblem(
        bet=bet, n_steps=40, loss_kind=grational.LossKind.WORST_LOSS,
        loss_threshold=0.5, max_prob=1.0,
    )
    sol = grational.solve(
        problem, grational.McBudget(n_paths=20_000, root_seed=DEFAULT_SEED),
        grid_step=0.01, f_max=0.5,
    )
    assert abs(sol.f_star - betmath.kelly_fraction(bet)) <= 0.01 + 1e-12

    # loosening the cap never shrinks the chosen fraction
    fs = []
    for u in [0.05, 0.1, 0.2, 0.5]:
        pr = grational.GrationalProblem(
            bet=bet, n_steps=20, loss_kind=grational.LossKind.WORST_LOSS,
            loss_threshold=0.3, max_prob=u,
        )
        fs.append(
            grational.solve(
                pr, grational.McBudget(n_paths=8000, root_seed=7),
                grid_step=0.02, f_max=0.4,
            ).f_star
        )
    assert all(a <= b + 1e-12 for a, b in zip(fs, fs[1:]))

    # raising the tolerated loss size never shrinks it either
    ts = []
    for threshold in [0.2, 0.4, 0.8]:
        pr = grational.GrationalProblem(
            bet=bet, n_steps=20, loss_kind=grational.LossKind.WORST_LOSS,
            loss_threshold=threshold, max_prob=0.1,
        )
        ts.append(
            grational.solve(
                pr, grational.McBudget(n_paths=8000, root_seed=7),
                grid_step=0.02, f_max=0.4,
            ).f_star
        )
    assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))

    # one-step horizon: the violation event is a coin flip with exact odds
    budget = grational.McBudget(n_paths=40_000, root_seed=11)
    for f, threshold in [(0.3, 0.2), (0.3, 0.5), (0.05, 0.1), (0.6, 0.5)]:
        exact = bet.q if -math.log1p(-f) >= threshold else 0.0
        est = grational.violation_probability(
            bet, f, 1, grational.LossKind.WORST_LOSS, threshold, budget
        )
        if exact == 0.0:
            assert est.value == 0.0
        else:
            se = math.sqrt(exact * (1 - exact) / budget.n_paths)
            assert abs(est.value - exact) <= 3 * se


@criterion(5, "loss functionals equal their brute-force definitions on 10k paths")
def test_criterion_05_loss_functionals():
    rng = np.random.default_rng(17)
    n_paths, n_steps = 10_000, 50
    increments = rng.normal(0.0, 0.3, size=(n_paths, n_steps))
    for row in increments:
        lw = np.concatenate([[0.0], np.cumsum(row)])
        path = wealthsim.WealthPath(log_wealth=lw, outcomes=row > 0)

        floor = lw[0]
        dd_peak = lw[0]
        dd = 0.0
        for x in lw:
            floor = min(floor, x)
            dd_peak = max(dd_peak, x)
            dd = max(dd, dd_peak - x)
        brute_wl = lw[0] - floor

        wl = wealthsim.worst_loss(path)
        drawdown = wealthsim.drawdown(path)
        assert wl == brute_wl
        assert drawdown == dd
        assert 0.0 <= wl <= drawdown


@criterion(6, "streak test matches exhaustive enumeration for all lengths <= 12")
def test_criterion_06_runs_exhaustive():
    start = time.perf_counter()
    for n in range(1, 13):
        by_heads: dict[int, Counter] = defaultdict(Counter)
        scored = []
        for seq in itertools.product((False, True), repeat=n):
            runs = 1 + sum(seq[i] != seq[i - 1] for i in range(1, n))
            n1 = sum(seq)
            by_heads[n1][runs] += 1
            scored.append((seq, n1, runs))
        for seq, n1, runs in scored:
            total = sum(by_heads[n1].values())
            left = sum(c for r, c in by_heads[n1].items() if r <= runs)
            result = sysstats.runs_test(seq)
            assert result.runs == runs
            assert abs(result.p_value_too_few - left / total) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _oracle_summary(trades, which):
    """Straight-line reimplementation of the summary row for cross-checking."""
    if which == "long":
        universe = [t for t in trades if t[1] == "L"]
    elif which == "short":
        universe = [t for t in trades if t[1] == "S"]
    else:
        universe = list(trades)
    placed = [pnl for _, side, pnl in universe if side in ("L", "S")]
    n_universe, n_placed = len(universe), len(placed)
    assert n_universe and n_placed

    cum = 0.0
    peak = 0.0
    maxdd = 0.0
    for _, _, pnl in universe:
        cum += pnl
        peak = max(peak, cum)
        maxdd = max(maxdd, peak - cum)

    total = sum(placed)
    mean = total / n_placed
    if n_placed > 1:
        sd = math.sqrt(sum((x - mean) ** 2 for x in placed) / (n_placed - 1))
    else:
        sd = None
    ir = mean / sd if sd else None
    wins = sum(1 for x in placed if x > 0)
    signs = [x > 0 for x in placed if x != 0]

    if signs:
        runs = 1 + sum(signs[i] != signs[i - 1] for i in range(1, len(signs)))
        n1 = sum(signs)
        matched = 0
        at_most = 0
        for positions in itertools.combinations(range(len(signs)), n1):
            arrangement = [i in positions for i in range(len(signs))]
            r = 1 + sum(
                arrangement[i] != arrangement[i - 1]
                for i in range(1, len(arrangement))
            )
            matched += 1
            at_most += r <= runs
        p_value = at_most / matched
    else:
        runs, p_value = 1, 1.0

    return {
        "np": n_universe,
        "npi": n_placed,
        "maxdd": maxdd,
        "pnlpp": mean,
        "ir": ir,
        "pnltot": total,
        "sdpnl": sd,
        "winpct": 100.0 * wins / n_placed,
        "runs": runs,
        "runspvu": p_value,
    }


@criterion(7, "summary row agrees with an independent oracle, field for field")
def test_criterion_07_summary():
    trades = [
        (1, "L", 3.0), (2, "S", -1.0), (3, "F", 0.0), (4, "L", 2.0),
        (5, "L", -4.0), (6, "S", 5.0), (7, "F", 0.0), (8, "L", 0.0),
        (9, "S", -2.0), (10, "L", 6.0),
    ]
    ids, sides, pnls = zip(*trades)
    series = sysstats.TradeSeries(period_id=ids, side=sides, pnl=pnls)
    for which in ("long", "short", "all"):
        row = sysstats.summarize(series, sysstats.Filter(which))
        expected = _oracle_summary(trades, which)
        fields = sysstats.display_fields(row)
        assert fields["np"] == expected["np"]
        assert fields["npi"] == expected["npi"]
        assert fields["maxdd"] == pytest.approx(-expected["maxdd"], abs=1e-12)
        assert fields["pnlpp"] == pytest.approx(expected["pnlpp"], abs=1e-12)
        assert fields["pnltot"] == pytest.approx(expected["pnltot"], abs=1e-12)
        assert fields["winpct"] == pytest.approx(expected["winpct"], abs=1e-12)
        assert fields["runs"] == expected["runs"]
        assert fields["runspvu"] == pytest.approx(expected["runspvu"], abs=1e-12)
        for key in ("ir", "sdpnl"):
            if expected[key] is None:
                assert fields[key] is None
            else:
                assert fields[key] == pytest.approx(expected[key], abs=1e-12)

    # a season's profit spread over 19 years, to three significant digits
    one = sysstats.TradeSeries(period_id=[1], side=["L"], pnl=[623.50])
    avg = sysstats.average_gain_per_year(
        sysstats.summarize(one, sysstats.Filter.ALL), 19.0
    )
    assert avg == pytest.approx(623.50 / 19.0)
    assert format(avg, ".3g") == "32.8"


@criterion(8, "auction clearing: quantile value, empirical agreement, monotonicity")
def test_criterion_08_miller():
    scarce = millerclear.AuctionSpec(n_shares=50, m_buyers=1000)
    normal = millerclear.clearing_price(millerclear.NormalOpinions(50.0, 10.0), scarce)
    assert abs(normal - 66.449) <= 0.01

    big = millerclear.AuctionSpec(n_shares=5000, m_buyers=100_000)
    emp = millerclear.clearing_price(
        millerclear.sample_normal_opinions(50.0, 10.0, 100_000, root_seed=11), big
    )
    ideal = millerclear.clearing_price(millerclear.NormalOpinions(50.0, 10.0), big)
    assert abs(emp - ideal) / ideal <= 0.01

    sds = [0.0, 5.0, 10.0, 20.0]
    upper = millerclear.dispersion_sweep(50.0, sds, scarce)
    assert np.all(np.diff(upper) > 0)
    median = millerclear.dispersion_sweep(
        50.0, sds, millerclear.AuctionSpec(n_shares=500, m_buyers=1000)
    )
    assert median == pytest.approx([50.0] * 4, abs=1e-12)
    lower = millerclear.dispersion_sweep(
        50.0, sds, millerclear.AuctionSpec(n_shares=950, m_buyers=1000)
    )
    assert np.all(np.diff(lower) < 0)

    shorts = [0, 50, 100, 200, 300, 400, 450]
    prices = millerclear.short_selling_effect(
        millerclear.NormalOpinions(50.0, 10.0), scarce, shorts
    )
    assert np.all(np.diff(prices) <= 0)


@criterion(9, "lifecycle table self-classifies; arcs and sizing order are fixed")
def test_criterion_09_popp():
    table = popp.phase_table()
    for phase in popp.Phase:
        assert popp.classify_phase(table[phase])[0] == (phase, 9)

    arcs = {(t.frm, t.to, t.kind) for t in popp.all_transitions()}
    assert arcs == {
        (popp.Phase.EUREKA, popp.Phase.EARLY_COPYCAT, popp.TransitionKind.ADVANCE),
        (popp.Phase.EARLY_COPYCAT, popp.Phase.LATE_COPYCAT, popp.TransitionKind.BUBBLE),
        (popp.Phase.EARLY_COPYCAT, popp.EXIT, popp.TransitionKind.FIZZLE),
        (popp.Phase.LATE_COPYCAT, popp.Phase.CRASH, popp.TransitionKind.ADVANCE),
        (popp.Phase.LATE_COPYCAT, popp.EXIT, popp.TransitionKind.FIZZLE),
        (popp.Phase.CRASH, popp.Phase.EUREKA, popp.TransitionKind.RESTART),
    }

    assert [popp.kelly_multiplier(p) for p in popp.Phase] == [1.0, 1.0, 0.5, 0.0]
    broken = {
        popp.Phase.EUREKA: 1.0,
        popp.Phase.EARLY_COPYCAT: 1.0,
        popp.Phase.LATE_COPYCAT: 1.0,  # crowded phase must be scaled down
        popp.Phase.CRASH: 0.0,
    }
    with pytest.raises(DomainError):
        popp.kelly_multiplier(popp.Phase.EUREKA, broken)


@criterion(10, "every CLI subcommand is byte-deterministic across runs and thread counts")
def test_criterion_10_cli_determinism(tmp_path):
    trades = tmp_path / "trades.csv"
    trades.write_text(
        "period_id,side,pnl\n1,L,3\n2,S,-1\n3,F,0\n4,L,2\n5,L,-4\n"
        "6,S,5\n7,F,0\n8,L,0\n9,S,-2\n10,L,6\n"
    )
    commands = [
        ["kelly", "--p", "0.6", "--d", "1", "--format", "json"],
        ["simulate", "--p", "0.6", "--d", "1", "--f", "0.2", "--steps", "50",
         "--paths", "100", "--seed", "11", "--format", "csv"],
        ["grational", "--p", "0.6", "--d", "1", "--steps", "10",
         "--threshold", "0.3", "--max-prob", "0.2", "--paths", "2000",
         "--grid-step", "0.05", "--f-max", "0.3", "--seed", "11",
         "--format", "csv"],
        ["stats", "--input", str(trades), "--filter", "all", "--years", "2",
         "--ppgs-alpha", "0.05", "--format", "json"],
        ["pennies", "--p1", "biased:0.6", "--p2", "exploiter", "--rounds", "200",
         "--seed", "11", "--format", "csv"],
        ["miller", "--sds", "0,5,10", "--shares", "50", "--buyers", "1000",
         "--mode", "empirical", "--seed", "11", "--format", "csv"],
        ["popp", "--state", "++,+,+,-,-,-,+,?,+", "--format", "json"],
    ]

    def run_cli(argv, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "betlab.cli", *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    for argv in commands:
        first = run_cli(argv, "1")
        again = run_cli(argv, "1")
        wide = run_cli(argv, "4")
        assert first == again, f"rerun differs for {argv[0]}"
        assert first == wide, f"thread count changes {argv[0]}"
        assert first, f"no output from {argv[0]}"
        if "json" in argv:
            json.loads(first)
