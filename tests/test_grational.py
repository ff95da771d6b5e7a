import math
import runpy
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import grational, seeding
from betlab.betmath import BetSpec, kelly_fraction
from betlab.errors import BudgetError, DomainError, InfeasibleThreshold
from betlab.grational import (
    GrationalGrid,
    GrationalProblem,
    LossKind,
    McBudget,
    best_feasible,
    solve,
    violation_probability,
)
from betlab.wealthsim import outcome_matrix

GROWTH_FRONTIER = Path(__file__).resolve().parents[1] / "scripts" / "growth_frontier.py"

BET = BetSpec(0.6, 1.0)

# Exact 32-path enumeration (p=0.6, d=1, f=0.9, n=5, threshold 0.5 nats):
# a single loss drops 2.30 nats from the running peak, so the drawdown
# violation set is "any loss" with probability 1 - 0.6**5, while three
# early wins buy enough cushion that some one-loss paths keep the
# from-start loss under threshold.
EXACT_WORST_LOSS_VIOLATION = 0.81856
EXACT_DRAWDOWN_VIOLATION = 0.92224


def enumerated_violation(bet, f, n, kind, threshold):
    total = 0.0
    a, b = math.log1p(bet.d * f), math.log1p(-f)
    for outcome in product([0, 1], repeat=n):
        lw = np.concatenate([[0.0], np.cumsum([a if x else b for x in outcome])])
        if kind is LossKind.WORST_LOSS:
            loss = -lw.min()
        else:
            loss = np.max(np.maximum.accumulate(lw) - lw)
        if loss >= threshold:
            wins = sum(outcome)
            total += bet.p**wins * (1 - bet.p) ** (n - wins)
    return total


def exact_worst_loss_violation(bet, f, n, threshold):
    """P[worst loss >= threshold] by dynamic programming over the win count.

    Log wealth after k wins in s steps is ``k*ab + s*b``, the kernel's own
    float expression, so a Monte Carlo count is exactly
    Binomial(n_paths, this value).  Carry the surviving mass over k, one
    step at a time, and kill each state whose log wealth is at most -T.
    """
    b = math.log1p(-f)
    ab = math.log1p(bet.d * f) - b
    alive = np.array([1.0])
    for s in range(1, n + 1):
        alive = np.append(alive * (1 - bet.p), 0.0) + np.append(0.0, alive * bet.p)
        alive[np.arange(s + 1) * ab + s * b <= -threshold] = 0.0
    return 1.0 - alive.sum()


def exact_drawdown_violation(bet, f, n, threshold):
    """P[drawdown >= threshold] by dynamic programming over (running peak,
    win count).

    Log wealth after k wins in s steps is ``k*ab + s*b``, as in
    :func:`exact_worst_loss_violation`, and the running peak is the largest
    of those values so far.  Carry the surviving mass over the states one
    step at a time, and kill each state whose drop from its peak,
    ``peak - lw``, reaches the threshold.
    """
    b = math.log1p(-f)
    ab = math.log1p(bet.d * f) - b
    alive = {(0.0, 0): 1.0}
    for s in range(1, n + 1):
        after = {}
        for (peak, k), mass in alive.items():
            for wins, chance in ((k, 1 - bet.p), (k + 1, bet.p)):
                lw = wins * ab + s * b
                pk = max(peak, lw)
                if pk - lw < threshold:
                    after[pk, wins] = after.get((pk, wins), 0.0) + mass * chance
        alive = after
    return 1.0 - sum(alive.values())


def brute_force_grid(problem, wins, fractions):
    """Score every grid fraction on the full log-wealth matrix."""
    n_paths, n_steps = wins.shape
    counts = np.zeros((n_paths, n_steps + 1), dtype=np.int64)
    np.cumsum(wins, axis=1, out=counts[:, 1:])
    steps = np.arange(n_steps + 1, dtype=float)

    e_growth = np.empty(fractions.size)
    se_growth = np.empty(fractions.size)
    p_violation = np.empty(fractions.size)
    se_violation = np.empty(fractions.size)
    d = problem.bet.d
    for i, f in enumerate(fractions):
        a = math.log1p(d * f)
        b = math.log1p(-f)
        lw = counts * (a - b) + steps * b
        growth = lw[:, -1] / n_steps
        e_growth[i] = growth.mean()
        se_growth[i] = growth.std(ddof=1) / math.sqrt(n_paths) if n_paths > 1 else 0.0
        if problem.loss_kind is LossKind.WORST_LOSS:
            losses = -lw.min(axis=1)
        else:
            losses = (np.maximum.accumulate(lw, axis=1) - lw).max(axis=1)
        p_hat = (losses >= problem.loss_threshold).mean()
        p_violation[i] = p_hat
        se_violation[i] = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
    return GrationalGrid(
        f=fractions,
        e_growth=e_growth,
        se_growth=se_growth,
        p_violation=p_violation,
        se_violation=se_violation,
        feasible=p_violation <= problem.max_prob,
    )


GRID_FIELDS = ("e_growth", "se_growth", "p_violation", "se_violation", "feasible")


class TestValidation:
    def test_nonpositive_threshold(self):
        with pytest.raises(InfeasibleThreshold):
            GrationalProblem(BET, 10, LossKind.WORST_LOSS, 0.0, 0.5)

    def test_nan_threshold_is_not_infeasible(self):
        with pytest.raises(DomainError, match="loss threshold must lie in") as info:
            GrationalProblem(BET, 10, LossKind.DRAWDOWN, math.nan, 0.1)
        assert not isinstance(info.value, InfeasibleThreshold)

    def test_loss_kind_must_be_the_enum(self):
        with pytest.raises(DomainError, match="LossKind"):
            GrationalProblem(BET, 10, "drawdown", 0.1, 0.5)

    def test_bad_max_prob(self):
        with pytest.raises(DomainError):
            GrationalProblem(BET, 10, LossKind.WORST_LOSS, 0.1, 1.5)

    def test_budget_too_small(self):
        problem = GrationalProblem(BET, 10, LossKind.WORST_LOSS, 0.1, 0.5)
        with pytest.raises(BudgetError):
            solve(problem, McBudget(999, 0))

    def test_grid_step_range(self):
        problem = GrationalProblem(BET, 10, LossKind.WORST_LOSS, 0.1, 0.5)
        with pytest.raises(DomainError):
            solve(problem, McBudget(2000, 0), grid_step=0.2)

    @pytest.mark.parametrize("root_seed", [-1, 2**64, 1.5, math.nan, True, "3"])
    def test_budget_rejects_bad_seed(self, root_seed):
        with pytest.raises(DomainError, match="root_seed"):
            McBudget(1000, root_seed)

    @pytest.mark.parametrize("n_paths", [1000.0, 2500.5, "1000", True])
    def test_budget_rejects_non_integer_paths(self, n_paths):
        with pytest.raises(DomainError, match="n_paths"):
            McBudget(n_paths, 1)

    def test_budget_accepts_numpy_integers(self):
        McBudget(np.int64(1000), np.uint64(2**64 - 1))


class TestViolationProbability:
    def test_zero_fraction_is_exactly_zero(self):
        est = violation_probability(
            BET, 0.0, 50, LossKind.WORST_LOSS, 0.1, McBudget(2000, 1)
        )
        assert est.value == 0.0 and est.se == 0.0

    def test_certain_winner_never_violates(self):
        est = violation_probability(
            BetSpec(1.0, 1.0), 0.5, 50, LossKind.DRAWDOWN, 0.1, McBudget(2000, 1)
        )
        assert est.value == 0.0

    def test_enumeration_oracle_frozen_values(self):
        assert enumerated_violation(
            BET, 0.9, 5, LossKind.WORST_LOSS, 0.5
        ) == pytest.approx(EXACT_WORST_LOSS_VIOLATION, abs=1e-12)
        assert enumerated_violation(
            BET, 0.9, 5, LossKind.DRAWDOWN, 0.5
        ) == pytest.approx(EXACT_DRAWDOWN_VIOLATION, abs=1e-12)
        # the drawdown value is exactly the any-loss probability
        assert EXACT_DRAWDOWN_VIOLATION == pytest.approx(1 - 0.6**5, abs=1e-12)

    @pytest.mark.parametrize(
        "kind,exact",
        [
            (LossKind.WORST_LOSS, EXACT_WORST_LOSS_VIOLATION),
            (LossKind.DRAWDOWN, EXACT_DRAWDOWN_VIOLATION),
        ],
    )
    def test_monte_carlo_matches_enumeration(self, kind, exact):
        est = violation_probability(BET, 0.9, 5, kind, 0.5, McBudget(50_000, 21))
        assert abs(est.value - exact) <= 3 * est.se

    @pytest.mark.parametrize("f,n,threshold", [(0.9, 5, 0.5), (0.3, 8, 0.4), (0.5, 10, 1.0)])
    def test_dynamic_programming_oracle_matches_enumeration(self, f, n, threshold):
        exact = exact_worst_loss_violation(BET, f, n, threshold)
        enumerated = enumerated_violation(BET, f, n, LossKind.WORST_LOSS, threshold)
        assert exact == pytest.approx(enumerated, abs=1e-12)

    @pytest.mark.parametrize(
        "p,d,n_steps,threshold,n_paths,seed",
        [
            (0.6, 1.0, 50, 0.5, 4000, 1),
            (0.55, 2.0, 80, 1.0, 3000, 2),
            (0.6, 1.0, 200, 2.0, 3000, 3),
        ],
    )
    def test_monte_carlo_counts_are_binomial_around_the_exact_value(
        self, p, d, n_steps, threshold, n_paths, seed
    ):
        bet = BetSpec(p, d)
        budget = McBudget(n_paths, seed)
        for f in (0.05, 0.1, 0.2, 0.3, 0.5):
            exact = exact_worst_loss_violation(bet, f, n_steps, threshold)
            est = violation_probability(bet, f, n_steps, LossKind.WORST_LOSS, threshold, budget)
            count = round(est.value * n_paths)
            sd = math.sqrt(n_paths * exact * (1 - exact))
            assert abs(count - n_paths * exact) <= 5 * sd + 1, (f, count, n_paths * exact)

    @pytest.mark.parametrize("f,n,threshold", [(0.3, 9, 0.4), (0.5, 10, 1.0), (0.2, 12, 0.3)])
    def test_drawdown_oracle_matches_enumeration(self, f, n, threshold):
        exact = exact_drawdown_violation(BET, f, n, threshold)
        enumerated = enumerated_violation(BET, f, n, LossKind.DRAWDOWN, threshold)
        assert exact == pytest.approx(enumerated, abs=1e-12)

    @pytest.mark.parametrize(
        "p,d,n_steps,threshold,n_paths,seed",
        [
            (0.6, 1.0, 50, 0.5, 4000, 4),
            (0.55, 2.0, 40, 0.8, 3000, 5),
            (0.52, 1.0, 60, 0.3, 3000, 6),
        ],
    )
    def test_drawdown_counts_are_binomial_around_the_exact_value(
        self, p, d, n_steps, threshold, n_paths, seed
    ):
        bet = BetSpec(p, d)
        budget = McBudget(n_paths, seed)
        for f in (0.05, 0.1, 0.2, 0.3, 0.5):
            exact = exact_drawdown_violation(bet, f, n_steps, threshold)
            est = violation_probability(bet, f, n_steps, LossKind.DRAWDOWN, threshold, budget)
            count = round(est.value * n_paths)
            sd = math.sqrt(n_paths * exact * (1 - exact))
            assert abs(count - n_paths * exact) <= 5 * sd + 1, (f, count, n_paths * exact)

    def test_single_step_exact_binomial(self):
        # n=1, worst loss: violation iff the one bet loses and
        # -log(1-f) clears the threshold
        budget = McBudget(40_000, 13)
        for f, threshold in [(0.3, 0.2), (0.3, 0.5), (0.05, 0.1)]:
            exact = (1 - BET.p) * (1.0 if -math.log1p(-f) >= threshold else 0.0)
            est = violation_probability(
                BET, f, 1, LossKind.WORST_LOSS, threshold, budget
            )
            se = max(est.se, math.sqrt(exact * (1 - exact) / budget.n_paths))
            assert abs(est.value - exact) <= 3 * se + 1e-12


class TestSolve:
    def test_vacuous_constraint_recovers_kelly(self):
        problem = GrationalProblem(BET, 400, LossKind.WORST_LOSS, 5.0, 1.0)
        solution = solve(problem, McBudget(3000, 7), grid_step=0.02)
        assert solution.feasible
        assert abs(solution.f_star - kelly_fraction(BET)) <= 0.02 + 1e-12

    def test_zero_tolerance_tiny_threshold_forces_zero(self):
        problem = GrationalProblem(BET, 100, LossKind.WORST_LOSS, 0.01, 0.0)
        solution = solve(problem, McBudget(2000, 3), grid_step=0.01)
        assert solution.f_star == 0.0
        assert solution.feasible
        assert solution.violation_prob.value == 0.0

    def test_interior_solution(self):
        problem = GrationalProblem(BET, 1000, LossKind.DRAWDOWN, 0.2, 0.1)
        solution = solve(problem, McBudget(2000, 17), grid_step=0.01)
        assert 0.0 < solution.f_star < 0.2

    def test_monotone_in_max_prob(self):
        stars = []
        for u in [0.05, 0.1, 0.2, 0.5]:
            problem = GrationalProblem(BET, 300, LossKind.DRAWDOWN, 0.2, u)
            stars.append(solve(problem, McBudget(2000, 17), grid_step=0.02).f_star)
        assert all(a <= b + 1e-12 for a, b in zip(stars, stars[1:]))

    def test_monotone_in_threshold(self):
        stars = []
        for threshold in [0.05, 0.1, 0.2, 0.5, 1.0]:
            problem = GrationalProblem(BET, 300, LossKind.WORST_LOSS, threshold, 0.1)
            stars.append(solve(problem, McBudget(2000, 17), grid_step=0.02).f_star)
        assert all(a <= b + 1e-12 for a, b in zip(stars, stars[1:]))

    def test_ceiling_one_grid_step_above_kelly(self):
        # one step for the grid resolution, one more because the noisy
        # empirical argmax may sit a step off the true optimum
        for u in [0.1, 0.5, 1.0]:
            problem = GrationalProblem(BET, 400, LossKind.DRAWDOWN, 0.3, u)
            solution = solve(problem, McBudget(2000, 23), grid_step=0.02)
            assert solution.f_star <= kelly_fraction(BET) + 2 * 0.02 + 1e-12

    def test_feasible_point_respects_cap(self):
        problem = GrationalProblem(BET, 200, LossKind.WORST_LOSS, 0.3, 0.2)
        solution = solve(problem, McBudget(2000, 29), grid_step=0.02)
        assert solution.feasible
        assert solution.violation_prob.value <= problem.max_prob

    def test_common_random_numbers_make_growth_concave(self):
        problem = GrationalProblem(BET, 200, LossKind.WORST_LOSS, 5.0, 1.0)
        grid = solve(problem, McBudget(1500, 31), grid_step=0.05).grid
        second_diff = np.diff(grid.e_growth, 2)
        assert np.all(second_diff <= 1e-10)

    def test_deterministic_given_seed(self):
        problem = GrationalProblem(BET, 100, LossKind.DRAWDOWN, 0.2, 0.1)
        a = solve(problem, McBudget(1200, 37), grid_step=0.05)
        b = solve(problem, McBudget(1200, 37), grid_step=0.05)
        assert a.f_star == b.f_star
        assert np.array_equal(a.grid.p_violation, b.grid.p_violation)

    def test_grid_shape(self):
        problem = GrationalProblem(BET, 50, LossKind.WORST_LOSS, 0.5, 0.5)
        grid = solve(problem, McBudget(1000, 1), grid_step=0.1, f_max=0.35).grid
        assert grid.f == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert (
            grid.f.shape
            == grid.e_growth.shape
            == grid.p_violation.shape
            == grid.feasible.shape
        )

    @given(cap=st.integers(0, 999).map("0.{:03d}".format),
           step=st.sampled_from(["0.1", "0.05", "0.03", "0.02", "0.01", "0.005", "0.001", "1e-4"]))
    @example(cap="0.290", step="0.01")
    @settings(max_examples=100, deadline=None)
    def test_grid_ends_at_the_decimal_cap(self, cap, step):
        # 0.29 / 0.01 is 28.999999999999996: the grid once stopped at 0.28.
        problem = GrationalProblem(BET, 1, LossKind.WORST_LOSS, 0.5, 0.5)
        grid = solve(problem, McBudget(1000, 1), float(step), float(cap)).grid
        n = math.floor(Fraction(cap) / Fraction(step)) + 1
        assert np.array_equal(grid.f, np.arange(n) * float(step))


class TestFirstViolationSearch:
    @given(
        p=st.floats(0.0, 1.0),
        d=st.floats(0.01, 100.0),
        kind=st.sampled_from(list(LossKind)),
        n_steps=st.integers(1, 300),
        n_paths=st.integers(1, 40),
        threshold=st.one_of(
            st.floats(5e-324, 1e-3), st.floats(1e-3, 20.0), st.just(math.inf)
        ),
        max_prob=st.floats(0.0, 1.0),
        fractions=st.one_of(
            # solve's grid, down to a single point when f_max < grid_step
            st.tuples(st.floats(0.001, 0.1), st.floats(0.0, 0.999)).map(
                lambda t: np.arange(math.floor(t[1] / t[0]) + 1) * t[0]
            ),
            # violation_probability's one-point grid
            st.floats(0.0, 0.999).map(lambda f: np.asarray([f])),
        ),
        seed=st.integers(0, 2**32),
        split=st.sampled_from(["one block", "rows", "equal", "random"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_brute_force(
        self, p, d, kind, n_steps, n_paths, threshold, max_prob, fractions, seed, split, data
    ):
        bet = BetSpec(p, d)
        problem = GrationalProblem(bet, n_steps, kind, threshold, max_prob)
        wins = outcome_matrix(bet, n_steps, n_paths, seed)
        # The kernel reads the matrix in blocks of rows: one block, 1-row
        # blocks, equal blocks with a partial last one, or random cuts.
        inner = range(1, n_paths)
        if split == "one block":
            cuts = []
        elif split == "rows":
            cuts = inner
        elif split == "equal":
            size = data.draw(st.integers(1, n_paths))
            cuts = range(size, n_paths, size)
        else:
            cuts = data.draw(st.sets(st.sampled_from(inner)) if inner else st.just(set()))
        grid = grational._grid_stats(problem, np.split(wins, sorted(cuts)), fractions)
        expected = brute_force_grid(problem, wins, fractions)
        for field in GRID_FIELDS:
            assert np.array_equal(getattr(grid, field), getattr(expected, field)), field

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_solve_in_blocks_matches_brute_force(self, kind, monkeypatch):
        # 300 steps give 217 paths per block: four full blocks and a partial
        # one, each drawn from its first path on, never the whole matrix.
        problem = GrationalProblem(BET, 300, kind, 0.3, 0.1)
        budget = McBudget(1000, 5)
        drawn = []
        draw = grational.outcome_matrix

        def recording(bet, n_steps, n_paths, root_seed, first=0):
            drawn.append((first, n_paths))
            return draw(bet, n_steps, n_paths, root_seed, first)

        monkeypatch.setattr(grational, "outcome_matrix", recording)
        grid = solve(problem, budget).grid
        rows = grational._BLOCK_CELLS // 301
        assert drawn == [(0, rows), (rows, rows), (2 * rows, rows), (3 * rows, rows),
                         (4 * rows, 1000 - 4 * rows)]
        wins = outcome_matrix(BET, 300, 1000, 5)
        expected = brute_force_grid(problem, wins, grid.f)
        for field in GRID_FIELDS:
            assert np.array_equal(getattr(grid, field), getattr(expected, field)), field
        drawn.clear()
        estimate = violation_probability(BET, 0.2, 300, kind, 0.3, budget)
        assert len(drawn) == 5
        assert estimate.value == brute_force_grid(problem, wins, np.asarray([0.2])).p_violation[0]

    def test_solve_memory_does_not_grow_with_the_matrix(self):
        # The horizon problem's matrix is 10 MB of bools; drawn in blocks,
        # the peak is the kernel's scratch (about 1.2 MB) and one block of
        # seed words.  The first solve loads what numpy loads lazily.
        problem = GrationalProblem(BET, 10_000, LossKind.WORST_LOSS, 2.0, 0.05)
        solve(GrationalProblem(BET, 10, LossKind.WORST_LOSS, 2.0, 0.05), McBudget(1000, 1))
        seeding._seed_words.cache_clear()
        tracemalloc.start()
        try:
            solve(problem, McBudget(1000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_short_path_solve_memory(self):
        # The README problem: 20000 paths of 50 steps, in blocks of 1285
        # paths stored step-major.  The peak is the kernel's scratch (about
        # 1.3 MB), one block of seed words, and a first index and final win
        # count per path.
        problem = GrationalProblem(BET, 50, LossKind.DRAWDOWN, 0.5, 0.1)
        solve(GrationalProblem(BET, 10, LossKind.DRAWDOWN, 0.5, 0.1), McBudget(1000, 1))
        seeding._seed_words.cache_clear()
        tracemalloc.start()
        try:
            solve(problem, McBudget(20_000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("extra, step_major", [(1, False), (2, True)])
    def test_block_layouts_match_brute_force(self, kind, extra, step_major, monkeypatch):
        # A block of n_steps + 1 paths is stored path by path, one of
        # n_steps + 2 step-major; the smaller block after it reuses the
        # scratch arrays in their layout.
        layouts = set()
        path_losses = grational.path_losses

        def recording(lw, *args):
            layouts.add(lw.strides[0] == lw.itemsize)
            return path_losses(lw, *args)

        monkeypatch.setattr(grational, "path_losses", recording)
        n_steps = 40
        problem = GrationalProblem(BET, n_steps, kind, 0.3, 0.1)
        wins = outcome_matrix(BET, n_steps, n_steps + extra + 3, 11)
        fractions = np.arange(100) * 0.01
        grid = grational._grid_stats(problem, np.split(wins, [n_steps + extra]), fractions)
        assert layouts == {step_major}
        expected = brute_force_grid(problem, wins, fractions)
        for field in GRID_FIELDS:
            assert np.array_equal(getattr(grid, field), getattr(expected, field)), field

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_log_wealth_passes_bounded_by_grid_bits(self, kind, monkeypatch):
        rows = []
        path_losses = grational.path_losses

        def counting(lw, *args):
            rows.append(lw.shape[0])
            return path_losses(lw, *args)

        monkeypatch.setattr(grational, "path_losses", counting)
        problem = GrationalProblem(BET, 300, kind, 0.3, 0.1)
        budget = McBudget(1000, 5)
        grid = solve(problem, budget).grid
        passes = math.ceil(math.log2(grid.f.size + 1))
        assert grid.f.size == 100 and passes == 7
        assert 0 < sum(rows) <= passes * budget.n_paths


class TestCapSweep:
    def test_no_feasible_fraction(self):
        grid = GrationalGrid(
            f=np.array([0.0, 0.1]),
            e_growth=np.array([0.0, 0.01]),
            se_growth=np.zeros(2),
            p_violation=np.array([0.2, 0.3]),
            se_violation=np.zeros(2),
            feasible=np.array([True, True]),
        )
        solution = best_feasible(grid, 0.1)
        assert not solution.feasible
        assert solution.f_star == 0.0
        assert not solution.grid.feasible.any()

    def test_best_feasible_matches_solve_per_cap(self):
        budget = McBudget(1500, 41)
        problem = GrationalProblem(BET, 60, LossKind.DRAWDOWN, 0.3, 0.5)
        grid = solve(problem, budget, grid_step=0.02).grid
        for u in [0.0, 0.01, 0.1, 0.3, 1.0]:
            per_cap = solve(
                GrationalProblem(BET, 60, LossKind.DRAWDOWN, 0.3, u), budget, grid_step=0.02
            )
            swept = best_feasible(grid, u)
            assert swept.f_star == per_cap.f_star
            assert swept.expected_growth == per_cap.expected_growth
            assert swept.violation_prob == per_cap.violation_prob
            assert swept.feasible == per_cap.feasible
            for field in GRID_FIELDS:
                assert np.array_equal(getattr(swept.grid, field), getattr(per_cap.grid, field))

    def test_growth_frontier_csv_matches_per_cap_solve(self, tmp_path, monkeypatch):
        caps = "0.01,0.05,0.2,1.0"
        out = tmp_path / "frontier.csv"
        argv = [
            "growth_frontier.py", "--p", "0.6", "--d", "1", "--steps", "40",
            "--loss", "worstloss", "--threshold", "0.4", "--paths", "1200",
            "--grid-step", "0.02", "--seed", "43", "--caps", caps, "--output", str(out),
        ]
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(GROWTH_FRONTIER), run_name="__main__")

        lines = ["u,f_star,e_growth,se_growth,p_violation,feasible"]
        for u in (float(tok) for tok in caps.split(",")):
            problem = GrationalProblem(BET, 40, LossKind.WORST_LOSS, 0.4, u)
            sol = solve(problem, McBudget(1200, 43), grid_step=0.02)
            values = [u, sol.f_star, sol.expected_growth.value, sol.expected_growth.se,
                      sol.violation_prob.value]
            lines.append(",".join(format(v, ".12g") for v in values) + f",{int(sol.feasible)}")
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
