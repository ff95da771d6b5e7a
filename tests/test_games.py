import csv
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import games, render
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
from betlab.seeding import stream


# The payoff oracle: (player1 gain, player2 gain) per unit stake, keyed by
# (choice1, choice2).
MATCHING_PENNIES = {
    ("H", "H"): (1, -1),
    ("H", "T"): (-1, 1),
    ("T", "H"): (-1, 1),
    ("T", "T"): (1, -1),
}


class TestPayoffs:
    def test_alternator_start_is_a_choice(self):
        with pytest.raises(DomainError, match="must be H or T"):
            Alternator("X")

    def test_transcript_arrays_must_match(self):
        with pytest.raises(DomainError, match="choices2 must be a 1-d sequence of 2 entries"):
            GameTranscript(choices1=np.array(["H", "T"]), choices2=np.array(["H"]), stake=1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.integers(1, 300).flatmap(
            lambda n: st.tuples(*[st.lists(st.sampled_from("HT"), min_size=n, max_size=n)] * 2)
        ),
        stake=st.floats(1e-6, 1e6),
        rake=st.just(0.0) | st.floats(0.0, 10.0),
    )
    @example(columns=(["H"], ["T"]), stake=16384.0, rake=1e-9)
    def test_transcript_gains_follow_the_payoff_rule(self, columns, stake, rake):
        c1, c2 = (np.array(c, dtype="U1") for c in columns)
        t = GameTranscript(c1, c2, stake, rake)
        assert_same((t.gains1, t.gains2), oracle_gains(c1, c2, stake, rake))

    @pytest.mark.parametrize(
        "c1, c2, stake, rake, message",
        [
            (["H", "X"], ["H", "T"], 1.0, 0.0, "choices1 must be H or T, got 'X'"),
            (["H", "T"], ["T", "X"], 1.0, 0.0, "choices2 must be H or T, got 'X'"),
            (["H", "T"], ["H"], 1.0, 0.0, "choices2 must be a 1-d sequence of 2 entries"),
            (["H"], ["T"], 0.0, 0.0, "stake must lie in"),
            (["H"], ["T"], 1.0, math.nan, "rake must lie in"),
        ],
    )
    def test_transcript_rejects_bad_input(self, c1, c2, stake, rake, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            GameTranscript(np.array(c1), np.array(c2), stake, rake)

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_transcript_takes_any_sequence(self, kind):
        want = GameTranscript(np.array(["H", "T", "T"]), np.array(["H", "H", "T"]), 2.0, 0.5)
        t = GameTranscript(kind(["H", "T", "T"]), kind(["H", "H", "T"]), 2.0, 0.5)
        assert_same((t.choices1, t.choices2, t.gains1, t.gains2),
                    (want.choices1, want.choices2, want.gains1, want.gains2))
        assert GameTranscript(kind(["H"]), kind(["T"]), 1.0).gains1.tolist() == [-1.0]
        with pytest.raises(DomainError, match="choices1 must be H or T, got 'X'"):
            GameTranscript(kind(["H", "X"]), kind(["T", "H"]), 1.0)

    def test_matching_pennies_cells(self):
        # play_match and spy_match apply the payoff rule cell by cell.
        for stake in (1.0, 2.5):
            for (a, b), (g1, g2) in MATCHING_PENNIES.items():
                t = play_match(Fixed(a), Fixed(b), 3, root_seed=0, stake=stake)
                assert t.gains1.tolist() == [g1 * stake] * 3
                assert t.gains2.tolist() == [g2 * stake] * 3
            for a in "HT":
                t = spy_match(Fixed(a), 3, root_seed=0, stake=stake)
                g1, g2 = MATCHING_PENNIES[(a, t.choices2[0])]
                assert t.gains1.tolist() == [g1 * stake] * 3
                assert t.gains2.tolist() == [g2 * stake] * 3


class TestPlayMatch:
    def test_value_zero_game(self):
        t = play_match(CoinFlip(), CoinFlip(), 100_000, root_seed=3)
        se = 1.0 / math.sqrt(t.n_rounds)
        assert abs(t.total_gain1 / t.n_rounds) < 3 * se

    def test_coinflip_neutralizes_fixed_opponent(self):
        t = play_match(CoinFlip(), Fixed("H"), 100_000, root_seed=5)
        se = 1.0 / math.sqrt(t.n_rounds)
        assert abs(t.total_gain1 / t.n_rounds) < 3 * se

    def test_zero_sum_every_round(self):
        t = play_match(Biased(0.7), Alternator(), 500, root_seed=1, stake=2.0)
        assert np.all(t.gains1 + t.gains2 == 0.0)
        assert set(np.unique(t.gains1)) <= {2.0, -2.0}

    def test_rake_drains_both(self):
        t = play_match(CoinFlip(), CoinFlip(), 100, root_seed=2, rake=0.1)
        assert t.total_gain1 + t.total_gain2 == pytest.approx(-0.1 * 100)

    def test_deterministic_given_seed(self):
        a = play_match(Biased(0.6), FrequencyExploiter(), 400, root_seed=9)
        b = play_match(Biased(0.6), FrequencyExploiter(), 400, root_seed=9)
        assert np.array_equal(a.choices1, b.choices1)
        assert np.array_equal(a.choices2, b.choices2)
        assert np.array_equal(a.gains2, b.gains2)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            play_match(CoinFlip(), CoinFlip(), 0, root_seed=1)
        with pytest.raises(DomainError):
            play_match(CoinFlip(), CoinFlip(), 10, root_seed=1, stake=0.0)


OTHER = {"H": "T", "T": "H"}


def oracle_player(strategy, rng, player):
    """The per-round rule of ``strategy`` in seat ``player``: a
    ``(choose, observe)`` pair that draws one uniform per coin flip."""

    def flip(p_h):
        return "H" if rng.random() < p_h else "T"

    def respond(predicted):
        # Player 1 wins on a match, player 2 on a mismatch.
        return predicted if player == 1 else OTHER[predicted]

    def ignore(opp):
        pass

    if isinstance(strategy, Biased):  # CoinFlip too
        return (lambda: flip(strategy.p_h)), ignore
    if isinstance(strategy, Fixed):
        return (lambda: strategy.choice), ignore
    if isinstance(strategy, Alternator):
        rounds = itertools.count()
        return (lambda: OTHER[strategy.start] if next(rounds) % 2 else strategy.start), ignore
    if isinstance(strategy, BestResponder):
        p = strategy.announced_p_h
        return (lambda: respond("H") if p > 0.5 else respond("T") if p < 0.5 else flip(0.5)), ignore
    assert isinstance(strategy, FrequencyExploiter)
    opp_seen, table, k = [], {}, strategy.k

    def choose():
        if len(opp_seen) >= k:
            counts = table.get(tuple(opp_seen[-k:]))
            if counts is not None and counts[0] != counts[1]:
                return respond("H" if counts[0] > counts[1] else "T")
        return flip(0.5)

    def observe(opp):
        if len(opp_seen) >= k:
            table.setdefault(tuple(opp_seen[-k:]), [0, 0])[0 if opp == "H" else 1] += 1
        opp_seen.append(opp)

    return choose, observe


def oracle_gains(c1, c2, stake, rake):
    gains1 = [(stake if a == b else -stake) - rake / 2.0 for a, b in zip(c1, c2)]
    gains2 = [(-stake if a == b else stake) - rake / 2.0 for a, b in zip(c1, c2)]
    return np.array(gains1), np.array(gains2)


def oracle_match(strategy1, strategy2, n_rounds, root_seed, stake=1.0, rake=0.0):
    """Round-by-round play: both seats choose, then each observes the other."""
    choose1, observe1 = oracle_player(strategy1, stream(root_seed, 1), 1)
    choose2, observe2 = oracle_player(strategy2, stream(root_seed, 2), 2)
    c1, c2 = np.empty(n_rounds, dtype="U1"), np.empty(n_rounds, dtype="U1")
    for i in range(n_rounds):
        a, b = choose1(), choose2()
        c1[i], c2[i] = a, b
        observe1(b)
        observe2(a)
    return (c1, c2, *oracle_gains(c1, c2, stake, rake))


def oracle_spy(strategy1, n_rounds, root_seed, stake=1.0):
    """Round-by-round play against a spy who always mismatches."""
    choose, observe = oracle_player(strategy1, stream(root_seed, 1), 1)
    c1, c2 = np.empty(n_rounds, dtype="U1"), np.empty(n_rounds, dtype="U1")
    for i in range(n_rounds):
        c1[i] = choose()
        c2[i] = OTHER[c1[i]]
        observe(c2[i])
    return (c1, c2, *oracle_gains(c1, c2, stake, 0.0))


SPECS = [
    "coinflip", "biased:0", "biased:1", "biased:0.6", "fixed:H", "fixed:T",
    "alternator", "alternator:T",
    "bestresponse:0.5", "bestresponse:0.75", "bestresponse:0.2",
    *(f"exploiter:k={k}" for k in range(1, 9)),
]
SPEC = st.sampled_from(SPECS) | st.floats(0.0, 1.0).map(lambda p: f"biased:{p!r}")


def transcript_arrays(t):
    return t.choices1, t.choices2, t.gains1, t.gains2


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestOracle:
    """Blind seats drawn as one column give the round-by-round transcript."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec1=SPEC,
        spec2=SPEC,
        n_rounds=st.integers(1, 300),
        root_seed=st.integers(0, 2**64 - 1),
        stake=st.floats(1e-6, 1e6),
        rake=st.just(0.0) | st.floats(0.0, 10.0),
    )
    # A rake far below the stake's rounding, where a check of the gains'
    # sum against -rake once refused a match the payoff rule had made.
    @example(spec1="coinflip", spec2="coinflip", n_rounds=1, root_seed=0, stake=16384.0, rake=1e-9)
    def test_play_and_spy_match_oracle(self, spec1, spec2, n_rounds, root_seed, stake, rake):
        s1, s2 = parse_strategy(spec1), parse_strategy(spec2)
        got = play_match(s1, s2, n_rounds, root_seed, stake=stake, rake=rake)
        want = oracle_match(s1, s2, n_rounds, root_seed, stake=stake, rake=rake)
        assert_same(transcript_arrays(got), want)
        got = spy_match(s1, n_rounds, root_seed, stake=stake)
        assert_same(transcript_arrays(got), oracle_spy(s1, n_rounds, root_seed, stake=stake))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 8), n_rounds=st.integers(1, 300), root_seed=st.integers(0, 2**64 - 1))
    # One instance in both seats once shared its history and table: 134.0, not 44.0.
    @example(k=2, n_rounds=200, root_seed=1)
    def test_one_exploiter_in_both_seats(self, k, n_rounds, root_seed):
        exploiter = FrequencyExploiter(k)
        got = play_match(exploiter, exploiter, n_rounds, root_seed)
        want = play_match(FrequencyExploiter(k), FrequencyExploiter(k), n_rounds, root_seed)
        assert_same(transcript_arrays(got), transcript_arrays(want))

    @pytest.mark.parametrize("spec", SPECS)
    def test_one_stream_per_seat(self, monkeypatch, spec):
        # Fixed and Alternator draw nothing but still take their seat's stream.
        keys = []

        def counted(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(games, "stream", counted)
        play_match(parse_strategy(spec), parse_strategy(spec), 5, 3)
        assert keys == [(3, 1), (3, 2)]
        keys.clear()
        spy_match(parse_strategy(spec), 5, 3)
        assert keys == [(3, 1)]


class TestResponderGain:
    def test_published_number(self):
        gain = responder_expected_gain(0.6, 0.6, 100, 200.0)
        assert gain == pytest.approx(8.0, abs=1e-9)

    def test_full_tilt(self):
        assert responder_expected_gain(0.6, 1.0, 100, 200.0) == pytest.approx(40.0)

    def test_unbiased_opponent_unexploitable(self):
        for x in [0.0, 0.3, 1.0]:
            assert responder_expected_gain(0.5, x, 10, 100.0) == pytest.approx(0.0)

    @given(
        p_h=st.floats(min_value=0.0, max_value=1.0),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bilinear_sign_flips(self, p_h, x):
        base = responder_expected_gain(p_h, x, 10, 100.0)
        assert responder_expected_gain(1 - p_h, x, 10, 100.0) == pytest.approx(-base)
        assert responder_expected_gain(p_h, 1 - x, 10, 100.0) == pytest.approx(-base)

    def test_monte_carlo_agreement(self):
        # player 2 plays T with prob 0.6 <=> H with prob 0.4
        n = 200_000
        stake = 200.0 / 100
        t = play_match(Biased(0.6), Biased(0.4), n, root_seed=29, stake=stake)
        per_round = responder_expected_gain(0.6, 0.6, 100, 200.0) / 100
        se = stake / math.sqrt(n)
        assert abs(t.total_gain2 / n - per_round) < 3 * se


class TestSpyMatch:
    def test_plus_one_per_round(self):
        t = spy_match(CoinFlip(), 100, root_seed=7)
        assert t.total_gain2 == 100.0
        assert np.all(t.gains2 == 1.0)

    def test_single_round(self):
        assert spy_match(Biased(0.9), 1, root_seed=1).total_gain2 == 1.0

    def test_zero_variance(self):
        t = spy_match(CoinFlip(), 10_000, root_seed=3, stake=2.5)
        assert float(np.var(t.gains2)) == 0.0
        assert t.total_gain2 == pytest.approx(2.5 * 10_000)


class TestFrequencyExploiter:
    def test_locks_onto_fixed_opponent(self):
        t = play_match(Fixed("H"), FrequencyExploiter(k=2), 50, root_seed=9)
        # first context is tabulated after round 3; exploitation is
        # perfect from round 4 on
        assert np.all(t.gains2[3:] == 1.0)
        assert np.all(t.choices2[3:] == "T")

    def test_cracks_alternation(self):
        t = play_match(Alternator("H"), FrequencyExploiter(k=2), 60, root_seed=9)
        # both alternation contexts are known after round 4; rounds 3 and 4
        # land on never-seen contexts and stay coin flips
        assert np.all(t.gains2[4:] == 1.0)

    def test_fair_coin_is_unexploitable(self):
        t = play_match(CoinFlip(), FrequencyExploiter(k=2), 20_000, root_seed=17)
        se = 1.0 / math.sqrt(t.n_rounds)
        assert abs(t.total_gain2 / t.n_rounds) < 3 * se

    def test_learns_static_bias(self):
        t = play_match(Biased(0.6), FrequencyExploiter(k=2), 20_000, root_seed=19)
        tail = t.gains2[10_000:]
        # every context's conditional distribution favors H, so the
        # exploiter converges to always-T: 0.2 per round in expectation
        assert tail.mean() > 0.15

    def test_never_loses_to_iid_grid(self):
        for p_h in np.arange(0.1, 0.95, 0.1):
            t = play_match(Biased(p_h), FrequencyExploiter(k=2), 4000, root_seed=23)
            se = 1.0 / math.sqrt(t.n_rounds)
            assert t.total_gain2 / t.n_rounds >= -3 * se

    def test_functional_form(self):
        assert frequency_exploiter(["H"] * 10, k=2, player=2) == "T"
        assert frequency_exploiter(["H"] * 10, k=2, player=1) == "H"
        assert frequency_exploiter([], k=2) in ("H", "T")
        with pytest.raises(DomainError):
            frequency_exploiter(["H", "X"], k=2)

    @settings(max_examples=300, deadline=None)
    @given(
        history=st.lists(st.sampled_from("HT"), max_size=80),
        k=st.integers(1, 8),
        player=st.sampled_from([1, 2]),
    )
    def test_functional_form_matches_the_oracle(self, history, k, player):
        choose, observe = oracle_player(FrequencyExploiter(k), stream(0), player)
        for choice in history:
            observe(choice)
        assert frequency_exploiter(history, k=k, player=player) == choose()

    def test_context_order_bounds(self):
        with pytest.raises(DomainError):
            FrequencyExploiter(k=0)
        with pytest.raises(DomainError):
            FrequencyExploiter(k=9)


class TestBestResponder:
    def test_player_two_against_announced_bias(self):
        t = play_match(Biased(0.75), BestResponder(0.75), 40_000, root_seed=31)
        assert np.all(t.choices2 == "T")
        se = 1.0 / math.sqrt(t.n_rounds)
        assert abs(t.total_gain2 / t.n_rounds - 0.5) < 3 * se

    def test_role_awareness(self):
        t = play_match(BestResponder(0.75), Biased(0.75), 40_000, root_seed=33)
        assert np.all(t.choices1 == "H")
        se = 1.0 / math.sqrt(t.n_rounds)
        assert abs(t.total_gain1 / t.n_rounds - 0.5) < 3 * se


class TestMinimaxGuarantee:
    def test_coinflip_safe_against_adversaries(self):
        adversaries = [
            lambda: Fixed("H"),
            lambda: Biased(0.9),
            lambda: Alternator("T"),
            lambda: FrequencyExploiter(k=2),
            lambda: BestResponder(0.9),
        ]
        for make in adversaries:
            total = 0.0
            rounds = 0
            for seed in range(40):
                t = play_match(CoinFlip(), make(), 400, root_seed=1000 + seed)
                total += t.total_gain1
                rounds += t.n_rounds
            se = 1.0 / math.sqrt(rounds)
            assert abs(total / rounds) < 4 * se


class TestParseAndExport:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("coinflip", CoinFlip),
            ("biased:0.6", Biased),
            ("fixed:H", Fixed),
            ("alternator", Alternator),
            ("alternator:T", Alternator),
            ("exploiter", FrequencyExploiter),
            ("exploiter:k=3", FrequencyExploiter),
            ("bestresponse:0.75", BestResponder),
        ],
    )
    def test_parse_strategy(self, text, cls):
        assert isinstance(parse_strategy(text), cls)

    def test_parse_strategy_k(self):
        assert parse_strategy("exploiter:k=3").k == 3

    @pytest.mark.parametrize("text", ["nope", "biased:x", "fixed:Q", "exploiter:k=0"])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            parse_strategy(text)

    @pytest.mark.parametrize(
        "text, rule",
        [
            # coinflip once dropped its value, and an empty value once read
            # as the default (k=2, start H).
            ("coinflip:0.9", "coinflip"),
            ("coinflip:", "coinflip"),
            ("exploiter:k=", "exploiter[:k=<1..8>]"),
            ("exploiter:k= ", "exploiter[:k=<1..8>]"),
            ("exploiter:", "exploiter[:k=<1..8>]"),
            ("alternator:", "alternator[:<H|T>]"),
            ("alternator: ", "alternator[:<H|T>]"),
            ("biased:", "biased:<p>"),
            ("fixed:", "fixed:<H|T>"),
            ("bestresponse:", "bestresponse:<p>"),
            # fixed with no value once printed "choice must be H or T, got ''".
            ("fixed", "fixed:<H|T>"),
            ("bestresponse", "bestresponse:<p>"),
        ],
    )
    def test_parse_refuses_a_dropped_or_empty_value(self, text, rule):
        with pytest.raises(DomainError) as info:
            parse_strategy(text)
        assert str(info.value) == f"bad strategy spec {text!r}: expected {rule}"

    @pytest.mark.parametrize(
        "text, k",
        [("exploiter", 2), ("exploiter:3", 3), ("exploiter: k=4", 4), ("EXPLOITER:k=5 ", 5),
         ("exploiter:K=6", 6), ("exploiter:K= 7", 7)],
    )
    def test_parse_exploiter_k(self, text, k):
        assert parse_strategy(text).k == k

    @pytest.mark.parametrize(
        "text, rule",
        [
            # Each once printed Python's conversion text ("could not convert
            # string to float", "invalid literal for int()").
            ("biased:x", "biased:<p>"),
            ("biased", "biased:<p>"),
            ("bestresponse:0.5.1", "bestresponse:<p>"),
            ("exploiter:k=x", "exploiter[:k=<1..8>]"),
            ("exploiter:K=2.5", "exploiter[:k=<1..8>]"),
            ("exploiter:kk=2", "exploiter[:k=<1..8>]"),
        ],
    )
    def test_parse_unconverted_value_prints_the_rule(self, text, rule):
        with pytest.raises(DomainError) as info:
            parse_strategy(text)
        assert str(info.value) == f"bad strategy spec {text!r}: expected {rule}"

    def test_parse_unknown_lists_every_spec(self):
        with pytest.raises(DomainError) as info:
            parse_strategy("nope:")
        assert str(info.value) == (
            "unknown strategy 'nope'; expected coinflip, biased:<p>, fixed:<H|T>, "
            "alternator[:<H|T>], exploiter[:k=<1..8>], or bestresponse:<p>"
        )

    def test_transcript_csv(self):
        t = play_match(Fixed("H"), Fixed("T"), 2, root_seed=1, stake=2.0)
        buf = io.StringIO()
        write_transcript_csv(t, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "round,choice1,choice2,gain1,gain2"
        assert lines[1] == "1,H,T,-2,2"
        assert len(lines) == 3

    @pytest.mark.parametrize("n_rounds", [4095, 4096, 4097, 2 * 4096 + 5])
    def test_transcript_csv_rows_across_batches(self, n_rounds):
        t = play_match(Biased(0.6), CoinFlip(), n_rounds, root_seed=4, stake=0.3, rake=0.07)
        buf = io.StringIO()
        write_transcript_csv(t, buf)
        rows = [
            f"{i + 1},{t.choices1[i]},{t.choices2[i]},{t.gains1[i]:.12g},{t.gains2[i]:.12g}"
            for i in range(n_rounds)
        ]
        assert buf.getvalue() == "\n".join(["round,choice1,choice2,gain1,gain2", *rows, ""])

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.integers(1, 50).flatmap(
            lambda n: st.tuples(*[st.lists(st.sampled_from("HT"), min_size=n, max_size=n)] * 2)
        ),
        stake=st.floats(1e-300, 1e300),
        rake=st.just(0.0) | st.floats(0.0, 1e300),
    )
    def test_transcript_csv_is_csv_writer_of_cells(self, columns, stake, rake):
        try:
            t = GameTranscript(*columns, stake=stake, rake=rake)
        except DomainError:  # stake and rake that overflow over the rounds
            return
        rows = [["round", "choice1", "choice2", "gain1", "gain2"]]
        rows += [
            [i + 1, t.choices1[i], t.choices2[i], float(t.gains1[i]), float(t.gains2[i])]
            for i in range(t.n_rounds)
        ]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(map(render.cell, r) for r in rows)
        got = io.StringIO()
        write_transcript_csv(t, got)
        # As lists of lines, so that a failure is explained without a text diff.
        assert got.getvalue().splitlines(True) == expected.getvalue().splitlines(True)


def test_readme_lists_the_strategy_rules():
    """The README's sentence on pennies specs names each rule of the spec
    table, in its order."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sentence = readme.split("Strategy specs for `pennies`:", 1)[1].split("`.", 1)[0] + "`"
    assert re.findall(r"`([^`]+)`", sentence) == [rule for rule, _, _ in games._SPECS.values()]
