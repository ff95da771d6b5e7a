"""Matching-pennies arena: strategies, exploitation, and disclosure scenarios.

Both players simultaneously pick H or T.  Player 1 wins the stake on a
match, player 2 wins on a mismatch; the game is zero-sum (an optional
per-round rake, split evenly, makes it negative-sum).  The coin-flip
strategy is the minimax choice: it guarantees expectation zero against
any opponent.  Everything exploitable here comes from an opponent
deviating from the 50/50 mix, either statically (a biased or fixed
chooser) or through patterns a context model can learn.

Every strategy begins a seat with ``begin(rng, player, n_rounds)``: a
history-blind one (biased, fixed, alternating, best response) returns the
match's whole choice column, and the order-k exploiter a seat.  Against a
history-blind seat the exploiter's seat computes its whole column at once;
only two exploiters, or an exploiter against the spy, play round by round.

Determinism: a match draws from per-player streams derived from
``(root_seed, player)``, so transcripts are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from . import render
from .errors import (MAX_LENGTH, DomainError, Ruled, SizeOf, column, count, instance, integer,
                     probability, ruled, shown, within)
from .seeding import stream

H = "H"
T = "T"

# Rounds per batch when writing a transcript: whole columns at once would
# hold the text of every row in memory.
_CSV_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class GameTranscript(Ruled):
    """A match's two choice columns (H or T, one entry per round) and terms.
    The gains follow by the payoff rule: player 1 wins the stake on a match,
    player 2 on a mismatch, and each pays half the rake every round.  The
    four columns are read-only."""

    choices1: np.ndarray = ruled(column)
    choices2: np.ndarray = ruled(column, None, SizeOf("choices1"))
    stake: float = ruled(within, 0, math.inf, "()")
    rake: float = ruled(within, 0, math.inf, "[)", default=0.0)
    gains1: np.ndarray = field(init=False)
    gains2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_match(self.n_rounds, self.stake, self.rake)  # their total must not overflow
        for name, choices in (("choices1", self.choices1), ("choices2", self.choices2)):
            bad = choices[(choices != H) & (choices != T)]
            if bad.size:
                _choice(str(bad[0]), name)  # refuses it
        match, half_rake = self.choices1 == self.choices2, self.rake / 2.0
        for name, win in (("gains1", match), ("gains2", ~match)):
            gains = np.where(win, self.stake, -self.stake) - half_rake
            object.__setattr__(self, name, column(gains, name, float))

    @property
    def n_rounds(self) -> int:
        return len(self.choices1)

    @property
    def total_gain1(self) -> float:
        return float(np.sum(self.gains1))

    @property
    def total_gain2(self) -> float:
        return float(np.sum(self.gains2))


_OTHER = {H: T, T: H}


class Strategy:
    """A matching-pennies player.

    ``begin(rng, player, n_rounds)`` checks the round count, the seat (1 or
    2) and its stream for every strategy, then starts the seat with the
    strategy's ``_start`` and the seat's best replies (player 1 wins on a
    match, player 2 on a mismatch).  A history-blind strategy returns the
    match's whole choice array (dtype ``U1``) at once.  The one adaptive
    strategy, :class:`FrequencyExploiter`, returns a new exploiter for one
    match instead.  Against a history-blind seat, its ``against`` gives its
    whole column at once; against a second exploiter, or in ``spy_match``,
    its ``choose``/``observe`` play round by round.
    """

    def begin(self, rng: np.random.Generator, player: int,
              n_rounds: int) -> np.ndarray | FrequencyExploiter:
        n_rounds = integer(n_rounds, "n_rounds", 1, MAX_LENGTH)
        reply = {H: H, T: T} if integer(player, "player", 1, 2) == 1 else _OTHER
        return self._start(instance(rng, "rng", np.random.Generator), reply, n_rounds)


def _choice(value: str, what: str) -> str:
    if instance(value, what, str) not in (H, T):
        raise DomainError(f"{what} must be H or T, got {value!r}")
    return value


class Biased(Strategy):
    """I.i.d. H with probability p_h, history-blind."""

    def __init__(self, p_h: float) -> None:
        self.p_h = probability(p_h, "p_h")

    def _start(self, rng: np.random.Generator, reply: dict, n_rounds: int) -> np.ndarray:
        return np.where(rng.random(n_rounds) < self.p_h, H, T)


class CoinFlip(Biased):
    """Fair 50/50 mixing: the minimax strategy."""

    def __init__(self) -> None:
        super().__init__(0.5)


class Fixed(Strategy):
    """Always the same choice."""

    def __init__(self, choice: str) -> None:
        self.choice = _choice(choice, "choice")

    def _start(self, rng: np.random.Generator, reply: dict, n_rounds: int) -> np.ndarray:
        return np.full(n_rounds, self.choice, dtype="U1")


class Alternator(Strategy):
    """Strict alternation from a starting choice."""

    def __init__(self, start: str = H) -> None:
        self.start = _choice(start, "start")

    def _start(self, rng: np.random.Generator, reply: dict, n_rounds: int) -> np.ndarray:
        return np.resize(np.array([self.start, _OTHER[self.start]]), n_rounds)


class FrequencyExploiter(Strategy):
    """Order-k context model over the opponent's choices (default k=2).

    Keeps the lead of H over T in the opponent's choice after each context
    of their last k choices, and best-responds to the leading choice.
    Unseen contexts and ties fall back to a uniform coin from the
    strategy's seeded stream, so the exploiter is never worse than
    random in expectation.
    """

    def __init__(self, k: int = 2) -> None:
        self.k = integer(k, "context order", 1, 8)

    def _start(self, rng: np.random.Generator, reply: dict, n_rounds: int) -> FrequencyExploiter:
        """A new exploiter that plays one match with ``reply``: it, not this
        strategy, holds the match's context and leads (any length, so
        ``n_rounds`` is unused)."""
        seat = FrequencyExploiter(self.k)
        seat._reply, seat._rng, seat._context, seat._leads = reply, rng, (), {}
        return seat

    def choose(self) -> str:
        if lead := self._leads.get(self._context, 0):
            return self._reply[H if lead > 0 else T]
        return H if self._rng.random() < 0.5 else T

    def observe(self, opp: str) -> None:
        if len(self._context) == self.k:
            lead = self._leads.get(self._context, 0)
            self._leads[self._context] = lead + 1 if opp == H else lead - 1
        self._context = (*self._context, opp)[-self.k:]

    def against(self, opponent: np.ndarray) -> np.ndarray:
        """This seat's whole choice column against a history-blind opponent's
        column, the same as ``choose``/``observe`` give round by round.

        Round r >= k is coded by its context, the opponent's k previous
        choices.  A stable sort by context puts each context's rounds
        together in round order, so a round's lead of H over T in its
        context is an exclusive cumulative sum within its group.  A round
        without a lead (every round r < k, and every unseen or tied context)
        takes a coin; the coins are one draw, in round order.
        """
        k, heads = self.k, opponent == H
        context = np.zeros(max(heads.size - k, 0), dtype=np.uint8)  # k <= 8 bits
        for j in range(k):
            context = (context << 1) | heads[j:j + context.size]
        order = np.argsort(context, kind="stable")
        step = np.where(heads[k:][order], 1, -1)
        lead = np.cumsum(step) - step  # over the rounds before, in sorted order
        ordered = context[order]
        lead -= lead[np.searchsorted(ordered, ordered)]  # less the lead before the group
        leads = np.zeros(heads.size, dtype=lead.dtype)
        leads[k:][order] = lead
        choices = np.where(leads > 0, self._reply[H], self._reply[T])
        coin = leads == 0
        choices[coin] = np.where(self._rng.random(np.count_nonzero(coin)) < 0.5, H, T)
        return choices


class BestResponder(Strategy):
    """Best response to a disclosed i.i.d. H-probability.

    Models the announced-mix scenario: knowing the opponent plays H with
    probability p, the deterministic best response is optimal whenever
    p != 0.5; at exactly 0.5 nothing beats a coin flip.
    """

    def __init__(self, announced_p_h: float) -> None:
        self.announced_p_h = probability(announced_p_h, "announced p_h")

    def _start(self, rng: np.random.Generator, reply: dict, n_rounds: int) -> np.ndarray:
        if self.announced_p_h == 0.5:
            return CoinFlip()._start(rng, reply, n_rounds)
        return Fixed(reply[H if self.announced_p_h > 0.5 else T])._start(rng, reply, n_rounds)


def _check_match(n_rounds: int, stake: float, rake: float) -> tuple[int, float, float]:
    n_rounds = integer(n_rounds, "n_rounds", 1, MAX_LENGTH)
    stake = within(stake, "stake", 0, math.inf, "()")
    rake = within(rake, "rake", 0, math.inf, "[)")
    if not math.isfinite(n_rounds * (stake + rake)):
        raise DomainError(f"stake {stake} and rake {rake} over {shown(n_rounds)} rounds overflow")
    return n_rounds, stake, rake


def play_match(
    strategy1: Strategy,
    strategy2: Strategy,
    n_rounds: int,
    root_seed: int,
    stake: float = 1.0,
    rake: float = 0.0,
) -> GameTranscript:
    """Run a match; player i draws from the stream keyed (root_seed, i).

    Each history-blind seat draws its whole column first.  One exploiter
    seat then computes its whole column against it; only two exploiters
    play round by round.  Every seat draws from its own stream, and
    ``rng.random(n)`` gives the same doubles as n scalar draws, so the order
    of drawing changes no transcript.
    """
    n_rounds, stake, rake = _check_match(n_rounds, stake, rake)
    players = [instance(s, f"strategy{i}", Strategy) for i, s in ((1, strategy1), (2, strategy2))]
    seats = [s.begin(stream(root_seed, i), i, n_rounds) for i, s in enumerate(players, 1)]
    adaptive = [isinstance(seat, FrequencyExploiter) for seat in seats]
    if all(adaptive):  # each seat's context holds the other's choices
        played = [[], []]
        for r in range(n_rounds):
            for seat, mine in zip(seats, played):
                mine.append(seat.choose())
            for seat, theirs in zip(seats, played[::-1]):
                seat.observe(theirs[r])
        seats = [np.array(choices, dtype="U1") for choices in played]
    elif any(adaptive):
        i = adaptive.index(True)
        seats[i] = seats[i].against(seats[1 - i])
    return GameTranscript(seats[0], seats[1], stake, rake)


def spy_match(
    strategy1: Strategy, n_rounds: int, root_seed: int, stake: float = 1.0
) -> GameTranscript:
    """Full disclosure: player 2 sees player 1's current choice first.

    Player 2 simply mismatches, so gain2 = +stake every round with zero
    variance, whatever strategy 1 does.
    """
    n_rounds, stake, _ = _check_match(n_rounds, stake, 0.0)
    c1 = instance(strategy1, "strategy1", Strategy).begin(stream(root_seed, 1), 1, n_rounds)
    if isinstance(c1, FrequencyExploiter):
        played = []
        for _ in range(n_rounds):
            played.append(c1.choose())
            c1.observe(_OTHER[played[-1]])
        c1 = np.array(played, dtype="U1")
    return GameTranscript(c1, np.where(c1 == H, T, H), stake)


def responder_expected_gain(
    p_h: float, x: float, n_rounds: int, stake_total: float
) -> float:
    """Expected total gain of player 2 mixing T with probability x.

    Against i.i.d. H with probability p_h, splitting stake_total evenly
    over the rounds: gain = (2*p_h - 1) * (2*x - 1) * stake_total.
    Bilinear in the two biases; zero whenever either side is unbiased.
    """
    p_h = probability(p_h, "p_h")
    x = probability(x, "x")
    count(n_rounds, "n_rounds")
    stake_total = within(stake_total, "stake_total", 0, math.inf, "[)")
    return (2.0 * p_h - 1.0) * (2.0 * x - 1.0) * stake_total


def frequency_exploiter(
    history: list[str] | tuple[str, ...],
    k: int = 2,
    player: int = 2,
) -> str:
    """Stateless form of the exploiter: next choice given opponent history."""
    seat = FrequencyExploiter(k=k).begin(stream(0), player, 1)
    for choice in instance(history, "history", Iterable):
        seat.observe(_choice(choice, "history entries"))
    return seat.choose()


# Each strategy's CLI rule, class and value conversion (None: it takes no
# value); [...] marks an optional value.
_SPECS = {
    "coinflip": ("coinflip", CoinFlip, None),
    "biased": ("biased:<p>", Biased, float),
    "fixed": ("fixed:<H|T>", Fixed, str.upper),
    "alternator": ("alternator[:<H|T>]", Alternator, str.upper),
    "exploiter": ("exploiter[:k=<1..8>]", FrequencyExploiter, int),
    "bestresponse": ("bestresponse:<p>", BestResponder, float),
}


def parse_strategy(text: str) -> Strategy:
    """Build a strategy from a CLI spec like 'biased:0.6' or 'exploiter:k=2'.
    A value after ':' is never empty, a strategy without a conversion takes
    none, and a spec whose value is not in [...] needs one.  A missing value,
    or one that is not a number where one is expected, prints the spec's
    rule."""
    name, colon, arg = instance(text, "text", str).strip().partition(":")
    name, arg = name.lower(), arg.strip()
    if name not in _SPECS:
        *first, last = (rule for rule, _, _ in _SPECS.values())
        raise DomainError(f"unknown strategy {name!r}; expected {', '.join(first)}, or {last}")
    rule, cls, convert = _SPECS[name]
    if ":k=" in rule and arg[:2].lower() == "k=":
        arg = arg[2:].strip()
    expected = f"bad strategy spec {text!r}: expected {rule}"
    if (not arg and (colon or rule.startswith(f"{name}:"))) or (arg and convert is None):
        raise DomainError(expected)
    try:
        values = [convert(arg)] if arg else []
    except ValueError:
        raise DomainError(expected) from None
    try:
        return cls(*values)
    except ValueError as exc:
        raise DomainError(f"bad strategy spec {text!r}: {exc}") from exc


def write_transcript_csv(transcript: GameTranscript, fh: IO[str]) -> None:
    """Emit rounds as CSV (round, choice1, choice2, gain1, gain2).

    A round's row is its number and the tail of its pair of choices.  The
    gains of the (at most four) tails are read from the transcript, where
    the payoff rule made them, at the first round of each pair.
    """
    t = instance(transcript, "transcript", GameTranscript)
    render.write_rows(fh, [["round", "choice1", "choice2", "gain1", "gain2"]])
    pair = 2 * (t.choices1 == T) + (t.choices2 == T)  # HH, HT, TH, TT as 0..3
    tails = np.empty(4, dtype=object)
    for code, i in zip(*np.unique(pair, return_index=True)):
        cells = (t.choices1[i], t.choices2[i], t.gains1[i], t.gains2[i])
        tails[code] = ",".join(map(render.cell, cells)) + "\n"
    rows = tails[pair].tolist()
    for start in range(0, t.n_rounds, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, t.n_rounds)
        fh.write("".join(map("{},{}".format, range(start + 1, stop + 1), rows[start:stop])))
