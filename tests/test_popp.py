import dataclasses

import pytest

from betlab.betmath import BetSpec, kelly_fraction
from betlab.errors import DomainError
from betlab.popp import (
    DEFAULT_MULTIPLIERS,
    EXIT,
    Phase,
    StateVars,
    Transition,
    TransitionKind,
    all_transitions,
    classify_phase,
    kelly_multiplier,
    legal_transitions,
    phase_table,
    scaled_fraction,
)

ALL_NA = StateVars(*["NA"] * 9)


class TestSignTable:
    def test_discovery_signature(self):
        sig = phase_table()[Phase.EUREKA]
        assert sig.ret == "++"
        assert sig.spd == "-"
        assert sig.pop == "-"
        assert sig.slink == "?"

    def test_crowding_signature(self):
        sig = phase_table()[Phase.LATE_COPYCAT]
        assert sig.spd == "++"
        assert sig.pop == "++"
        assert sig.lev == "++"
        assert sig.ret == "-"

    def test_early_imitation_signature(self):
        sig = phase_table()[Phase.EARLY_COPYCAT]
        assert sig.ret == "+"
        assert sig.vol == "="
        assert sig.sdiv == "+"

    def test_crash_is_all_undefined(self):
        assert phase_table()[Phase.CRASH] == ALL_NA

    def test_table_copy_is_detached(self):
        table = phase_table()
        table[Phase.EUREKA] = ALL_NA
        assert phase_table()[Phase.EUREKA] != ALL_NA


class TestClassify:
    @pytest.mark.parametrize("phase", list(Phase))
    def test_own_signature_scores_nine(self, phase):
        ranking = classify_phase(phase_table()[phase])
        assert ranking[0] == (phase, 9)

    def test_rejects_non_state_vars(self):
        with pytest.raises(DomainError, match="StateVars"):
            classify_phase(["NA"] * 9)

    def test_all_na_is_a_crash(self):
        assert classify_phase(ALL_NA)[0] == (Phase.CRASH, 9)

    def test_single_flip_still_wins(self):
        observed = dataclasses.replace(phase_table()[Phase.EUREKA], ret="--")
        ranking = classify_phase(observed)
        assert ranking[0] == (Phase.EUREKA, 8)
        # hand count vs the early-imitation row: sr, sdiv, srob match,
        # slink is a wildcard; everything else differs
        assert ranking[1] == (Phase.EARLY_COPYCAT, 4)

    def test_wildcard_matches_anything(self):
        for level in ("--", "-", "=", "+", "++", "NA"):
            observed = dataclasses.replace(
                phase_table()[Phase.EUREKA], slink=level
            )
            assert classify_phase(observed)[0] == (Phase.EUREKA, 9)

    def test_na_matches_only_na(self):
        observed = dataclasses.replace(ALL_NA, ret="=")
        ranking = classify_phase(observed)
        assert ranking[0] == (Phase.CRASH, 8)

    def test_ties_keep_lifecycle_order(self):
        ranking = classify_phase(ALL_NA)
        scores = dict(ranking)
        # the three non-crash rows each match nothing except the wildcard
        assert scores[Phase.EUREKA] == scores[Phase.EARLY_COPYCAT] == 1
        assert [p for p, _ in ranking[1:]] == [
            Phase.EUREKA,
            Phase.EARLY_COPYCAT,
            Phase.LATE_COPYCAT,
        ]

    def test_ranking_covers_every_phase_once(self):
        ranking = classify_phase(phase_table()[Phase.EARLY_COPYCAT])
        assert sorted((p for p, _ in ranking), key=lambda p: p.value) == sorted(
            Phase, key=lambda p: p.value
        )


class TestStateVars:
    def test_from_tokens_roundtrip(self):
        text = "++,+,+,-,-,-,+,?,+"
        assert StateVars.from_tokens(text) == phase_table()[Phase.EUREKA]
        assert ",".join(StateVars.from_tokens(text).as_tuple()) == text

    def test_from_tokens_strips_spaces(self):
        parsed = StateVars.from_tokens("++, +, +, -, -, -, +, ?, +")
        assert parsed == phase_table()[Phase.EUREKA]

    def test_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            StateVars.from_tokens("++,+,+")

    def test_rejects_unknown_level(self):
        with pytest.raises(DomainError):
            StateVars.from_tokens("++,+,+,-,-,-,+,?,bogus")
        with pytest.raises(DomainError):
            StateVars(*(["+"] * 8 + ["na"]))


class TestLifecycleGraph:
    def test_exactly_six_arcs(self):
        arcs = {(t.frm, t.to, t.kind) for t in all_transitions()}
        assert arcs == {
            (Phase.EUREKA, Phase.EARLY_COPYCAT, TransitionKind.ADVANCE),
            (Phase.EARLY_COPYCAT, Phase.LATE_COPYCAT, TransitionKind.BUBBLE),
            (Phase.EARLY_COPYCAT, EXIT, TransitionKind.FIZZLE),
            (Phase.LATE_COPYCAT, Phase.CRASH, TransitionKind.ADVANCE),
            (Phase.LATE_COPYCAT, EXIT, TransitionKind.FIZZLE),
            (Phase.CRASH, Phase.EUREKA, TransitionKind.RESTART),
        }

    def test_per_phase_fanout(self):
        assert legal_transitions(Phase.EUREKA) == {
            Transition(Phase.EUREKA, Phase.EARLY_COPYCAT, TransitionKind.ADVANCE)
        }
        assert {(t.to, t.kind) for t in legal_transitions(Phase.EARLY_COPYCAT)} == {
            (Phase.LATE_COPYCAT, TransitionKind.BUBBLE),
            (EXIT, TransitionKind.FIZZLE),
        }
        assert {(t.to, t.kind) for t in legal_transitions(Phase.CRASH)} == {
            (Phase.EUREKA, TransitionKind.RESTART)
        }

    def test_no_self_loops_and_no_dead_ends(self):
        for t in all_transitions():
            assert t.frm != t.to
        for phase in Phase:
            assert legal_transitions(phase)

    def test_restart_is_the_only_way_back(self):
        back_arcs = [
            t for t in all_transitions() if t.kind is TransitionKind.RESTART
        ]
        assert len(back_arcs) == 1
        assert back_arcs[0].frm is Phase.CRASH
        assert back_arcs[0].to is Phase.EUREKA

    def test_every_phase_reachable_from_discovery(self):
        reached = {Phase.EUREKA}
        frontier = [Phase.EUREKA]
        while frontier:
            here = frontier.pop()
            for t in legal_transitions(here):
                if isinstance(t.to, Phase) and t.to not in reached:
                    reached.add(t.to)
                    frontier.append(t.to)
        assert reached == set(Phase)

    def test_rejects_non_phase(self):
        with pytest.raises(DomainError):
            legal_transitions("eureka")


class TestSizing:
    def test_default_schedule(self):
        assert [kelly_multiplier(p) for p in Phase] == [1.0, 1.0, 0.5, 0.0]

    def test_custom_schedule(self):
        schedule = {
            Phase.EUREKA: 0.8,
            Phase.EARLY_COPYCAT: 0.8,
            Phase.LATE_COPYCAT: 0.3,
            Phase.CRASH: 0.0,
        }
        assert kelly_multiplier(Phase.LATE_COPYCAT, schedule) == 0.3

    @pytest.mark.parametrize(
        "overrides",
        [
            {Phase.EUREKA: 0.9},  # breaks eureka == early-copycat
            {Phase.LATE_COPYCAT: 1.0},  # crowded phase not reduced
            {Phase.CRASH: 0.5},  # crash not below crowded
            {Phase.EUREKA: 1.5, Phase.EARLY_COPYCAT: 1.5},  # out of [0, 1]
        ],
    )
    def test_rejects_malformed_schedules(self, overrides):
        schedule = {
            Phase.EUREKA: 1.0,
            Phase.EARLY_COPYCAT: 1.0,
            Phase.LATE_COPYCAT: 0.5,
            Phase.CRASH: 0.0,
        }
        schedule.update(overrides)
        with pytest.raises(DomainError):
            kelly_multiplier(Phase.EUREKA, schedule)

    @pytest.mark.parametrize("phase", ["bogus", "late-copycat", None])
    def test_rejects_non_phase(self, phase):
        # "bogus" once raised KeyError; a member's string value was looked up.
        with pytest.raises(DomainError, match=f"^phase must be a Phase, got {phase!r}$"):
            kelly_multiplier(phase)
        with pytest.raises(DomainError, match="phase must be a Phase"):
            scaled_fraction(phase, BetSpec(0.6, 1.0))

    def test_rejects_a_schedule_keyed_by_strings(self):
        # The phases' string values once stood for the members as keys.
        schedule = {p.value: m for p, m in DEFAULT_MULTIPLIERS.items()}
        with pytest.raises(DomainError, match="^schedule must cover exactly the four phases$"):
            kelly_multiplier(Phase.LATE_COPYCAT, schedule)
        with pytest.raises(DomainError, match="^schedule must cover exactly the four phases$"):
            kelly_multiplier(Phase.EUREKA, {**DEFAULT_MULTIPLIERS, "crash": 0.0})

    @pytest.mark.parametrize("enum", [Phase, TransitionKind])
    def test_members_are_not_their_values(self, enum):
        for member in enum:
            assert member != member.value and member.value not in set(enum)

    def test_rejects_partial_coverage(self):
        with pytest.raises(DomainError):
            kelly_multiplier(Phase.EUREKA, {Phase.EUREKA: 1.0})

    def test_scaled_fraction_tracks_the_phase(self):
        bet = BetSpec(0.6, 1.0)
        full = kelly_fraction(bet)
        assert scaled_fraction(Phase.EUREKA, bet) == full
        assert scaled_fraction(Phase.LATE_COPYCAT, bet) == pytest.approx(full / 2)
        assert scaled_fraction(Phase.CRASH, bet) == 0.0
        for phase in Phase:
            assert scaled_fraction(phase, bet) <= full
