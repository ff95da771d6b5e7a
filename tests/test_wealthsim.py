import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import render
from betlab.betmath import BetSpec, asymptotic_growth
from betlab.errors import DomainError
from betlab.seeding import DEFAULT_SEED
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


def oracle_outcome_matrix(bet, n_steps, n_paths, root_seed, first=0):
    """One ``SeedSequence`` per path: the stream definition, row by row."""
    wins = np.empty((n_paths, n_steps), dtype=bool)
    for i in range(n_paths):
        seq = np.random.SeedSequence(root_seed, spawn_key=(first + i,))
        wins[i] = np.random.default_rng(seq).random(n_steps) < bet.p
    return wins


def path_from_log_wealth(values) -> WealthPath:
    lw = np.asarray(values, dtype=float)
    return WealthPath(log_wealth=lw, outcomes=np.diff(lw) > 0)


def random_paths(n_paths, n_steps, seed):
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.5, size=(n_paths, n_steps))
    lw = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)
    return [path_from_log_wealth(row) for row in lw]


class TestSimulatePaths:
    def test_certain_wins(self):
        cfg = SimConfig(BetSpec(1.0, 1.0), f=0.5, n_steps=3, n_paths=4, root_seed=1)
        expected = [0.0, math.log(1.5), math.log(2.25), math.log(3.375)]
        for path in simulate_paths(cfg):
            assert path.log_wealth == pytest.approx(expected)
            assert path.outcomes.all()

    def test_certain_losses(self):
        cfg = SimConfig(BetSpec(0.0, 1.0), f=0.5, n_steps=2, n_paths=2, root_seed=1)
        for path in simulate_paths(cfg):
            assert path.log_wealth == pytest.approx([0.0, math.log(0.5), math.log(0.25)])

    def test_mean_growth_matches_asymptotic(self):
        bet = BetSpec(0.6, 1.0)
        cfg = SimConfig(bet, f=0.2, n_steps=20_000, n_paths=60, root_seed=77)
        rates = np.array([path_stats(p).growth_rate for p in simulate_paths(cfg)])
        se = rates.std(ddof=1) / math.sqrt(rates.size)
        assert abs(rates.mean() - asymptotic_growth(bet, 0.2)) < 3 * se

    def test_deterministic_and_prefix_stable(self):
        cfg = SimConfig(BetSpec(0.6, 1.0), f=0.2, n_steps=50, n_paths=8, root_seed=5)
        first = simulate_paths(cfg)
        second = simulate_paths(cfg)
        for a, b in zip(first, second):
            assert np.array_equal(a.log_wealth, b.log_wealth)
            assert np.array_equal(a.outcomes, b.outcomes)
        # growing the batch must not disturb earlier paths
        bigger = simulate_paths(
            SimConfig(BetSpec(0.6, 1.0), f=0.2, n_steps=50, n_paths=12, root_seed=5)
        )
        for a, b in zip(first, bigger):
            assert np.array_equal(a.log_wealth, b.log_wealth)

    def test_win_frequency_converges(self):
        wins = outcome_matrix(BetSpec(0.6, 1.0), 1000, 200, root_seed=9)
        se = math.sqrt(0.6 * 0.4 / wins.size)
        assert abs(wins.mean() - 0.6) < 4 * se

    def test_config_validation(self):
        bet = BetSpec(0.6, 1.0)
        with pytest.raises(DomainError):
            SimConfig(bet, f=1.0, n_steps=1, n_paths=1, root_seed=0)
        with pytest.raises(DomainError):
            SimConfig(bet, f=0.1, n_steps=0, n_paths=1, root_seed=0)
        with pytest.raises(DomainError):
            SimConfig(bet, f=0.1, n_steps=1, n_paths=1, root_seed=0, w0=0.0)

    @pytest.mark.parametrize("root_seed", [-1, 2**64, 1.5, math.nan, True, "3"])
    def test_config_rejects_bad_seed(self, root_seed):
        with pytest.raises(DomainError, match="root_seed"):
            SimConfig(BetSpec(0.6, 1.0), f=0.1, n_steps=1, n_paths=1, root_seed=root_seed)

    @pytest.mark.parametrize("field", ["n_steps", "n_paths"])
    @pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "3", True])
    def test_config_rejects_non_integer_size(self, field, value):
        sizes = {"n_steps": 2, "n_paths": 2, field: value}
        with pytest.raises(DomainError, match=field):
            SimConfig(BetSpec(0.6, 1.0), f=0.1, root_seed=0, **sizes)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(
            BetSpec(0.6, 1.0), f=0.2, n_steps=np.int64(5), n_paths=np.int32(3),
            root_seed=np.uint64(2**64 - 1),
        )
        expected = oracle_outcome_matrix(cfg.bet, 5, 3, 2**64 - 1)
        assert np.array_equal([p.outcomes for p in simulate_paths(cfg)], expected)


class TestOutcomeMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        root_seed=st.integers(min_value=0, max_value=2**64 - 1),
        n_steps=st.integers(min_value=1, max_value=30),
        n_paths=st.integers(min_value=1, max_value=300),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_oracle(self, root_seed, n_steps, n_paths, p):
        bet = BetSpec(p, 1.0)
        assert np.array_equal(
            outcome_matrix(bet, n_steps, n_paths, root_seed),
            oracle_outcome_matrix(bet, n_steps, n_paths, root_seed),
        )

    @settings(max_examples=5, deadline=None)
    @given(
        root_seed=st.integers(min_value=0, max_value=2**64 - 1),
        n_paths=st.integers(min_value=4097, max_value=8200),
    )
    @example(root_seed=DEFAULT_SEED, n_paths=8193)
    @example(root_seed=2**64 - 1, n_paths=4097)
    def test_matches_oracle_across_blocks(self, root_seed, n_paths):
        # Path counts past 4096 and 8192 cross the blocks seed words come in.
        bet = BetSpec(0.6, 1.0)
        assert np.array_equal(
            outcome_matrix(bet, 3, n_paths, root_seed),
            oracle_outcome_matrix(bet, 3, n_paths, root_seed),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        root_seed=st.integers(min_value=0, max_value=2**64 - 1),
        first=st.integers(min_value=0, max_value=2**33) | st.sampled_from([4090, 2**32 - 3]),
        n_steps=st.integers(min_value=1, max_value=30),
        n_paths=st.integers(min_value=1, max_value=20),
    )
    def test_block_from_first_path_matches_oracle(self, root_seed, first, n_steps, n_paths):
        # Row i is path first + i, within a 4096-key block of seed words,
        # across one, and past 2**32, where keys take numpy's SeedSequence.
        bet = BetSpec(0.6, 1.0)
        assert np.array_equal(
            outcome_matrix(bet, n_steps, n_paths, root_seed, first=first),
            oracle_outcome_matrix(bet, n_steps, n_paths, root_seed, first),
        )

    @pytest.mark.parametrize(
        "first", [-1, True, 2.5, "3", math.nan, -(10**5000)],
        ids=["-1", "True", "2.5", "str", "nan", "-10**5000"],
    )
    def test_rejects_bad_first_path(self, first):
        # Named as the first path, not as the stream key it becomes.
        with pytest.raises(DomainError, match="first path"):
            outcome_matrix(BetSpec(0.6, 1.0), 2, 2, 1, first=first)

    @pytest.mark.parametrize(
        "n_steps, n_paths", [(2.5, 3), (3, 2.5), (2.0, 3), ("3", 3), (3, math.nan)]
    )
    def test_rejects_non_integer_sizes(self, n_steps, n_paths):
        with pytest.raises(DomainError):
            outcome_matrix(BetSpec(0.6, 1.0), n_steps, n_paths, root_seed=1)

    @pytest.mark.parametrize("root_seed", [-1, 2**64, 1.5, math.nan])
    def test_rejects_bad_seed(self, root_seed):
        with pytest.raises(DomainError, match="root_seed"):
            outcome_matrix(BetSpec(0.6, 1.0), 2, 2, root_seed)


class TestLossFunctionals:
    def test_monotone_path_has_zero_worst_loss(self):
        assert worst_loss(path_from_log_wealth([0.0, 0.1, 0.5, 0.7])) == 0.0

    def test_worst_loss_interior_minimum(self):
        assert worst_loss(path_from_log_wealth([0.0, -0.1, 0.3])) == pytest.approx(0.1)

    def test_drawdown_peak_to_trough(self):
        assert drawdown(path_from_log_wealth([0.0, 0.2, 0.1, 0.4])) == pytest.approx(0.1)

    def test_drawdown_of_decline_is_total_fall(self):
        assert drawdown(path_from_log_wealth([0.0, -0.3, -0.9])) == pytest.approx(0.9)

    def test_against_brute_force(self):
        for path in random_paths(n_paths=300, n_steps=40, seed=4):
            lw = path.log_wealth
            assert worst_loss(path) == lw[0] - min(lw)
            brute = max(max(lw[: s + 1]) - lw[s] for s in range(lw.size))
            assert drawdown(path) == brute

    @pytest.mark.parametrize("kind", ["worstloss", "drawdown", None, 0])
    def test_path_losses_refuses_a_kind_that_is_not_a_member(self, kind):
        # A member's string value once fell through to drawdown.
        with pytest.raises(DomainError, match=f"^loss_kind must be a LossKind, got {kind!r}$"):
            path_losses(np.array([0.0, 1.0, 0.5]), kind)

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=60))
    def test_ordering_invariant(self, increments):
        lw = np.concatenate([[0.0], np.cumsum(increments)])
        path = path_from_log_wealth(lw)
        assert 0.0 <= worst_loss(path) <= drawdown(path)

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=40))
    def test_drawdown_monotone_in_prefix_length(self, increments):
        lw = np.concatenate([[0.0], np.cumsum(increments)])
        dds = [drawdown(path_from_log_wealth(lw[: k + 1])) for k in range(1, lw.size)]
        assert all(a <= b + 1e-15 for a, b in zip(dds, dds[1:]))


class TestWealthPath:
    @pytest.mark.parametrize(
        "log_wealth, outcomes, message",
        [
            ([[0.0, 0.1]], [True], "real entry, got shape"),
            ([], [], "real entry, got shape"),
            ([0.0, 0.1, 0.2], [True], "2 bool entries, got shape"),
            ([0.0, math.inf], [True], "must be finite"),
            ([0.0, math.nan], [True], "must be finite"),
        ],
    )
    def test_rejects_malformed(self, log_wealth, outcomes, message):
        with pytest.raises(DomainError, match=message):
            WealthPath(log_wealth=log_wealth, outcomes=outcomes)


class TestPathStats:
    def test_needs_one_step(self):
        with pytest.raises(DomainError, match="at least one step"):
            path_stats(path_from_log_wealth([0.0]))

    def test_growth_rate_definition(self):
        path = path_from_log_wealth([0.0, 0.1, 0.4])
        assert path_stats(path).growth_rate == pytest.approx(0.2)

    def test_ruin_flag(self):
        deep = path_from_log_wealth([0.0, -25.0])
        shallow = path_from_log_wealth([0.0, -1.0])
        assert path_stats(deep).ruined
        assert not path_stats(shallow).ruined


class TestRuinAllIn:
    def test_single_bet(self):
        assert ruin_probability_all_in(BetSpec(0.6, 1.0), 1) == pytest.approx(0.4)

    def test_ten_bets(self):
        # frozen: 1 - 0.6**10 evaluated in exact decimal
        assert ruin_probability_all_in(BetSpec(0.6, 1.0), 10) == pytest.approx(
            0.9939533824, abs=1e-12
        )

    def test_certain_winner_never_ruined(self):
        assert ruin_probability_all_in(BetSpec(1.0, 1.0), 1000) == 0.0

    @pytest.mark.parametrize("n", [10**400, 2**2000])
    @pytest.mark.parametrize("p, ruin", [(0.6, 1.0), (1 - 2**-53, 1.0), (1.0, 0.0)])
    def test_counts_past_double_range(self, n, p, ruin):
        # p**n converted n to a float and overflowed; its limit is exact.
        assert ruin_probability_all_in(BetSpec(p, 1.0), n) == ruin

    @given(n=st.integers(min_value=1, max_value=200))
    def test_monotone_in_n(self, n):
        bet = BetSpec(0.7, 1.0)
        assert ruin_probability_all_in(bet, n) <= ruin_probability_all_in(bet, n + 1)


class TestAdaptivePolicy:
    def test_known_p_long_run(self):
        bet = BetSpec(0.6, 1.0)
        growth = adaptive_policy_growth(bet, n_steps=1_000_000, root_seed=3)
        assert abs(growth - asymptotic_growth(bet, 0.2)) < 0.005

    def test_zero_edge_long_run(self):
        growth = adaptive_policy_growth(BetSpec(0.5, 1.0), n_steps=1_000_000, root_seed=3)
        assert abs(growth) < 0.002

    def test_certain_winner_survives_clamp(self):
        # all-win prefixes push the estimate to 1; the clamp keeps the
        # process finite and the growth large and positive
        growth = adaptive_policy_growth(BetSpec(1.0, 1.0), n_steps=100, root_seed=1)
        assert math.isfinite(growth)
        assert growth > 0.5

    @pytest.mark.parametrize("n_steps", [2.5, 10.0, "10", math.nan])
    def test_rejects_non_integer_steps(self, n_steps):
        with pytest.raises(DomainError, match="n_steps"):
            adaptive_policy_growth(BetSpec(0.6, 1.0), n_steps, root_seed=1)

    def test_rejects_length_past_float64_arrays(self):
        with pytest.raises(DomainError, match=rf"n_steps must lie in \[1, {sys.maxsize // 8}\]"):
            adaptive_policy_growth(BetSpec(0.6, 1.0), sys.maxsize, root_seed=1)

    def test_deterministic(self):
        bet = BetSpec(0.55, 2.0)
        a = adaptive_policy_growth(bet, 5000, root_seed=12)
        b = adaptive_policy_growth(bet, 5000, root_seed=12)
        assert a == b


class TestCsvExport:
    def test_layout(self):
        cfg = SimConfig(BetSpec(1.0, 1.0), f=0.5, n_steps=2, n_paths=2, root_seed=1)
        buf = io.StringIO()
        write_paths_csv(simulate_paths(cfg), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "path_id,step,log_wealth,outcome"
        assert lines[1] == "0,0,0,"  # step 0 has no outcome
        assert lines[2].startswith("0,1,") and lines[2].endswith(",1")
        assert len(lines) == 1 + 2 * 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(1, 40).flatmap(
                lambda n: st.tuples(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n
                    ),
                    st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
                )
            ),
            max_size=6,
        )
    )
    def test_is_csv_writer_of_cells(self, columns):
        # Ragged paths of any finite log wealths: the template's bytes are
        # csv.writer's over render.cell rows.
        paths = [WealthPath(lw, np.array(outcomes, dtype=bool)) for lw, outcomes in columns]
        rows = [["path_id", "step", "log_wealth", "outcome"]]
        for k, (lw, outcomes) in enumerate(columns):
            rows += [
                [k, s, lw[s], "" if s == 0 else int(outcomes[s - 1])] for s in range(len(lw))
            ]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(map(render.cell, r) for r in rows)
        got = io.StringIO()
        write_paths_csv(paths, got)
        # As lists of lines, so that a failure is explained without a text diff.
        assert got.getvalue().splitlines(True) == expected.getvalue().splitlines(True)
