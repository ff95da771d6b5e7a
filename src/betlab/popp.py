"""Strategy-lifecycle state machine: phases, sign table, transitions, sizing.

A profitable trading strategy moves through four phases: discovery
(Eureka), early imitation (EarlyCopycat), crowded imitation
(LateCopycat), and Crash.  Each phase carries an expected qualitative
signature over nine state variables:

    ret    realized strategy returns
    vol    return volatility
    sr     Sharpe ratio
    spd    strategic plan capacity committed (dollars)
    pop    number of implementors
    lev    leverage in use
    sdiv   strategy diversity among participants
    slink  strategy linkage (contagion coupling)
    srob   strategy robustness

Levels are qualitative: '--', '-', '=', '+', '++', plus '?' (no stable
expectation) and 'NA' (variable undefined in that phase, e.g. everything
during a crash).

The lifecycle graph: Eureka advances to EarlyCopycat; EarlyCopycat
either bubbles into LateCopycat or fizzles out; LateCopycat advances
into Crash or fizzles out; Crash can restart the cycle at Eureka.
Fizzling leaves the cycle for good, modeled as an absorbing 'exit'
pseudo-state.

Bet-sizing coupling: position size should scale with confidence that the
strategy still works, largest in the first two phases, reduced when the
trade is crowded, zero in a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping

from .betmath import BetSpec, kelly_fraction
from .errors import DomainError, Ruled, instance, ruled, within

LEVELS = frozenset({"--", "-", "=", "+", "++", "?", "NA"})

# Absorbing pseudo-state for strategies that fizzle out of the cycle.
EXIT = "exit"


class Phase(Enum):
    EUREKA = "eureka"
    EARLY_COPYCAT = "early-copycat"
    LATE_COPYCAT = "late-copycat"
    CRASH = "crash"


class TransitionKind(Enum):
    ADVANCE = "advance"
    BUBBLE = "bubble"
    FIZZLE = "fizzle"
    RESTART = "restart"


def _level(value: object, what: str) -> str:
    if not (isinstance(value, str) and value in LEVELS):
        raise DomainError(f"{what} must be one of {sorted(LEVELS)}, got {value!r}")
    return value


@dataclass(frozen=True)
class StateVars(Ruled):
    """Qualitative levels of the nine lifecycle state variables."""

    ret: str = ruled(_level)
    vol: str = ruled(_level)
    sr: str = ruled(_level)
    spd: str = ruled(_level)
    pop: str = ruled(_level)
    lev: str = ruled(_level)
    sdiv: str = ruled(_level)
    slink: str = ruled(_level)
    srob: str = ruled(_level)

    @classmethod
    def from_tokens(cls, text: str) -> "StateVars":
        """Parse a comma-separated nine-level vector, field order as declared."""
        tokens = [t.strip() for t in instance(text, "text", str).split(",")]
        names = [f.name for f in fields(cls)]
        if len(tokens) != len(names):
            raise DomainError(
                f"expected {len(names)} comma-separated levels ({','.join(names)}), "
                f"got {len(tokens)}"
            )
        return cls(**dict(zip(names, tokens)))

    def as_tuple(self) -> tuple[str, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Transition:
    frm: Phase
    to: Phase | str  # a Phase, or EXIT for fizzling out
    kind: TransitionKind


PHASE_TABLE: Mapping[Phase, StateVars] = {
    Phase.EUREKA: StateVars(
        ret="++", vol="+", sr="+", spd="-", pop="-", lev="-",
        sdiv="+", slink="?", srob="+",
    ),
    Phase.EARLY_COPYCAT: StateVars(
        ret="+", vol="=", sr="+", spd="=", pop="=", lev="=",
        sdiv="+", slink="?", srob="+",
    ),
    Phase.LATE_COPYCAT: StateVars(
        ret="-", vol="-", sr="-", spd="++", pop="++", lev="++",
        sdiv="-", slink="?", srob="-",
    ),
    Phase.CRASH: StateVars(
        ret="NA", vol="NA", sr="NA", spd="NA", pop="NA", lev="NA",
        sdiv="NA", slink="NA", srob="NA",
    ),
}

_TRANSITIONS: tuple[Transition, ...] = (
    Transition(Phase.EUREKA, Phase.EARLY_COPYCAT, TransitionKind.ADVANCE),
    Transition(Phase.EARLY_COPYCAT, Phase.LATE_COPYCAT, TransitionKind.BUBBLE),
    Transition(Phase.EARLY_COPYCAT, EXIT, TransitionKind.FIZZLE),
    Transition(Phase.LATE_COPYCAT, Phase.CRASH, TransitionKind.ADVANCE),
    Transition(Phase.LATE_COPYCAT, EXIT, TransitionKind.FIZZLE),
    Transition(Phase.CRASH, Phase.EUREKA, TransitionKind.RESTART),
)

DEFAULT_MULTIPLIERS: Mapping[Phase, float] = {
    Phase.EUREKA: 1.0,
    Phase.EARLY_COPYCAT: 1.0,
    Phase.LATE_COPYCAT: 0.5,
    Phase.CRASH: 0.0,
}


def phase_table() -> dict[Phase, StateVars]:
    """The expected sign table, one immutable signature per phase."""
    return dict(PHASE_TABLE)


def legal_transitions(frm: Phase) -> frozenset[Transition]:
    """Outgoing arcs of the lifecycle graph from one phase."""
    instance(frm, "frm", Phase)
    return frozenset(t for t in _TRANSITIONS if t.frm is frm)


def all_transitions() -> frozenset[Transition]:
    return frozenset(_TRANSITIONS)


def _match_score(observed: StateVars, expected: StateVars) -> int:
    score = 0
    for obs, exp in zip(observed.as_tuple(), expected.as_tuple()):
        if exp == "?":
            score += 1  # table has no stable expectation: anything matches
        elif exp == obs:
            score += 1  # includes NA, which matches only a literal NA
    return score


def classify_phase(observed: StateVars) -> list[tuple[Phase, int]]:
    """Rank phases by how many of the nine fields match the sign table.

    A table '?' matches any observed level; a table 'NA' matches only an
    observed 'NA'.  Ties keep lifecycle order, so equal scores appear as
    adjacent entries with the same score.
    """
    instance(observed, "observed", StateVars)
    scored = [(phase, _match_score(observed, PHASE_TABLE[phase])) for phase in Phase]
    return sorted(scored, key=lambda item: -item[1])


def kelly_multiplier(
    phase: Phase, schedule: Mapping[Phase, float] | None = None
) -> float:
    """Sizing scale for a phase: full size early, reduced when crowded.

    A custom schedule must keep the shape of the default one:
    Eureka = EarlyCopycat > LateCopycat > Crash, all within [0, 1].
    """
    instance(phase, "phase", Phase)
    table = DEFAULT_MULTIPLIERS if schedule is None else instance(schedule, "schedule", Mapping)
    if set(table) != set(Phase):
        raise DomainError("schedule must cover exactly the four phases")
    table = {p: within(table[p], f"{p.value} multiplier", 0, 1) for p in Phase}
    if not (
        table[Phase.EUREKA] == table[Phase.EARLY_COPYCAT]
        > table[Phase.LATE_COPYCAT]
        > table[Phase.CRASH]
    ):
        raise DomainError(
            "schedule must satisfy eureka = early-copycat > late-copycat > crash"
        )
    return table[phase]


def scaled_fraction(
    phase: Phase, bet: BetSpec, schedule: Mapping[Phase, float] | None = None
) -> float:
    """Phase-adjusted betting fraction: multiplier times the Kelly fraction."""
    return kelly_multiplier(phase, schedule) * kelly_fraction(bet)
