"""Matching-pennies arena: strategies, exploitation, and disclosure scenarios.

Both players simultaneously pick H or T.  Player 1 wins the stake on a
match, player 2 wins on a mismatch; the game is zero-sum (an optional
per-round rake, split evenly, makes it negative-sum).  The coin-flip
strategy is the minimax choice: it guarantees expectation zero against
any opponent.  Everything exploitable here comes from an opponent
deviating from the 50/50 mix, either statically (a biased or fixed
chooser) or through patterns a context model can learn.

The history-blind strategies (biased, fixed, alternating, best response
to an announced mix) draw a match's whole choice column at once; only the
order-k exploiter plays round by round.

Determinism: a match draws from per-player streams derived from
``(root_seed, player)``, so transcripts are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import render
from .errors import MAX_LENGTH, DomainError, column, count, integer, probability, shown, within
from .seeding import stream

H = "H"
T = "T"

# Rounds per batch when writing a transcript: whole columns at once would
# hold the text of every row in memory.
_CSV_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class GameTranscript:
    """A match's two choice columns (H or T, one entry per round) and terms.
    The gains follow by the payoff rule: player 1 wins the stake on a match,
    player 2 on a mismatch, and each pays half the rake every round.  The
    four columns are read-only."""

    choices1: np.ndarray
    choices2: np.ndarray
    stake: float
    rake: float = 0.0
    gains1: np.ndarray = field(init=False)
    gains2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        c1 = column(self.choices1, "choices1")
        c2 = column(self.choices2, "choices2", size=c1.size)
        _check_match(c1.size, self.stake, self.rake)
        for name, choices in (("choices1", c1), ("choices2", c2)):
            bad = choices[(choices != H) & (choices != T)]
            if bad.size:
                _choice(str(bad[0]), name)  # refuses it
            object.__setattr__(self, name, choices)
        match, stake, half_rake = c1 == c2, self.stake, self.rake / 2.0
        for name, win in (("gains1", match), ("gains2", ~match)):
            gains = np.where(win, stake, -stake) - half_rake
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


class Strategy:
    """A matching-pennies player.

    A history-blind strategy implements ``column(rng, player, n_rounds)``
    and returns the match's whole choice array (dtype ``U1``) at once.  The
    one adaptive strategy, :class:`FrequencyExploiter`, plays round by
    round instead: its ``begin`` returns a new exploiter for one match,
    whose ``choose``/``observe`` play it.
    """


_OTHER = {H: T, T: H}


def _replies(player: int) -> dict[str, str]:
    """A seat's best reply to each predicted opponent choice: player 1
    wins on a match, player 2 on a mismatch."""
    return {H: H, T: T} if integer(player, "player", 1, 2) == 1 else _OTHER


def _choice(value: str, what: str) -> str:
    if value not in (H, T):
        raise DomainError(f"{what} must be H or T, got {value!r}")
    return value


class Biased(Strategy):
    """I.i.d. H with probability p_h, history-blind."""

    def __init__(self, p_h: float) -> None:
        self.p_h = probability(p_h, "p_h")

    def column(self, rng: np.random.Generator, player: int, n_rounds: int) -> np.ndarray:
        return np.where(rng.random(n_rounds) < self.p_h, H, T)


class CoinFlip(Biased):
    """Fair 50/50 mixing: the minimax strategy."""

    def __init__(self) -> None:
        super().__init__(0.5)


class Fixed(Strategy):
    """Always the same choice."""

    def __init__(self, choice: str) -> None:
        self.choice = _choice(choice, "choice")

    def column(self, rng: np.random.Generator, player: int, n_rounds: int) -> np.ndarray:
        return np.full(n_rounds, self.choice, dtype="U1")


class Alternator(Strategy):
    """Strict alternation from a starting choice."""

    def __init__(self, start: str = H) -> None:
        self.start = _choice(start, "start")

    def column(self, rng: np.random.Generator, player: int, n_rounds: int) -> np.ndarray:
        return np.resize(np.array([self.start, _OTHER[self.start]]), n_rounds)


class FrequencyExploiter(Strategy):
    """Order-k context model over the opponent's choices (default k=2).

    Tabulates the opponent's next choice conditional on their last k
    choices and best-responds to the maximum-likelihood prediction.
    Unseen contexts and ties fall back to a uniform coin from the
    strategy's seeded stream, so the exploiter is never worse than
    random in expectation.
    """

    def __init__(self, k: int = 2) -> None:
        self.k = integer(k, "context order", 1, 8)

    def begin(self, rng: np.random.Generator, player: int) -> FrequencyExploiter:
        """A new exploiter that plays one match from seat ``player``: it, not
        this strategy, holds the match's history and table."""
        seat = FrequencyExploiter(self.k)
        seat._reply, seat._rng, seat._opp, seat._table = _replies(player), rng, [], {}
        return seat

    def choose(self) -> str:
        if len(self._opp) >= self.k:
            counts = self._table.get(tuple(self._opp[-self.k:]))
            if counts is not None and counts[0] != counts[1]:
                return self._reply[H if counts[0] > counts[1] else T]
        return H if self._rng.random() < 0.5 else T

    def observe(self, opp: str) -> None:
        if len(self._opp) >= self.k:
            counts = self._table.setdefault(tuple(self._opp[-self.k:]), [0, 0])
            counts[0 if opp == H else 1] += 1
        self._opp.append(opp)


class BestResponder(Strategy):
    """Best response to a disclosed i.i.d. H-probability.

    Models the announced-mix scenario: knowing the opponent plays H with
    probability p, the deterministic best response is optimal whenever
    p != 0.5; at exactly 0.5 nothing beats a coin flip.
    """

    def __init__(self, announced_p_h: float) -> None:
        self.announced_p_h = probability(announced_p_h, "announced p_h")

    def column(self, rng: np.random.Generator, player: int, n_rounds: int) -> np.ndarray:
        reply = _replies(player)
        if self.announced_p_h == 0.5:
            return CoinFlip().column(rng, player, n_rounds)
        return Fixed(reply[H if self.announced_p_h > 0.5 else T]).column(rng, player, n_rounds)


def _check_match(n_rounds: int, stake: float, rake: float) -> None:
    integer(n_rounds, "n_rounds", 1, MAX_LENGTH)
    within(stake, "stake", 0, math.inf, "()")
    within(rake, "rake", 0, math.inf, "[)")
    if not math.isfinite(n_rounds * (stake + rake)):
        raise DomainError(f"stake {stake} and rake {rake} over {shown(n_rounds)} rounds overflow")


def _column(
    strategy: Strategy, root_seed: int, player: int, n_rounds: int
) -> np.ndarray | FrequencyExploiter:
    """A blind seat's choices from its stream (root_seed, player); for the
    exploiter, a new one begun on that stream."""
    rng = stream(root_seed, player)
    if isinstance(strategy, FrequencyExploiter):
        return strategy.begin(rng, player)
    return strategy.column(rng, player, n_rounds)


def play_match(
    strategy1: Strategy,
    strategy2: Strategy,
    n_rounds: int,
    root_seed: int,
    stake: float = 1.0,
    rake: float = 0.0,
) -> GameTranscript:
    """Run a match; player i draws from the stream keyed (root_seed, i).

    Each history-blind seat draws its whole column first; only exploiter
    seats then play round by round.  Every seat draws from its own stream,
    and ``rng.random(n)`` gives the same doubles as n scalar draws, so the
    order of drawing changes no transcript.
    """
    _check_match(n_rounds, stake, rake)
    seats = [_column(s, root_seed, i + 1, n_rounds) for i, s in enumerate((strategy1, strategy2))]
    adaptive = [i for i, seat in enumerate(seats) if isinstance(seat, FrequencyExploiter)]
    if adaptive:
        played = [[] if i in adaptive else seat.tolist() for i, seat in enumerate(seats)]
        for r in range(n_rounds):
            for i in adaptive:
                played[i].append(seats[i].choose())
            for i in adaptive:
                seats[i].observe(played[1 - i][r])
        for i in adaptive:
            seats[i] = np.array(played[i], dtype="U1")
    return GameTranscript(seats[0], seats[1], stake, rake)


def spy_match(
    strategy1: Strategy, n_rounds: int, root_seed: int, stake: float = 1.0
) -> GameTranscript:
    """Full disclosure: player 2 sees player 1's current choice first.

    Player 2 simply mismatches, so gain2 = +stake every round with zero
    variance, whatever strategy 1 does.
    """
    _check_match(n_rounds, stake, 0.0)
    c1 = _column(strategy1, root_seed, 1, n_rounds)
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
    probability(p_h, "p_h")
    probability(x, "x")
    count(n_rounds, "n_rounds")
    within(stake_total, "stake_total", 0, math.inf, "[)")
    return (2.0 * p_h - 1.0) * (2.0 * x - 1.0) * stake_total


def frequency_exploiter(
    history: list[str] | tuple[str, ...],
    k: int = 2,
    player: int = 2,
) -> str:
    """Stateless form of the exploiter: next choice given opponent history."""
    seat = FrequencyExploiter(k=k).begin(stream(0), player=player)
    for choice in history:
        seat.observe(_choice(choice, "history entries"))
    return seat.choose()


# Each strategy's CLI spec; [...] marks an optional value.
_SPECS = {
    "coinflip": "coinflip",
    "biased": "biased:<p>",
    "fixed": "fixed:<H|T>",
    "alternator": "alternator[:<H|T>]",
    "exploiter": "exploiter[:k=<1..8>]",
    "bestresponse": "bestresponse:<p>",
}


def parse_strategy(text: str) -> Strategy:
    """Build a strategy from a CLI spec like 'biased:0.6' or 'exploiter:k=2'.
    A value after ':' is never empty, and coinflip takes none."""
    name, colon, arg = text.strip().partition(":")
    name, arg = name.lower(), arg.strip()
    if name not in _SPECS:
        *first, last = _SPECS.values()
        raise DomainError(f"unknown strategy {name!r}; expected {', '.join(first)}, or {last}")
    if name == "exploiter":
        arg = arg.removeprefix("k=").strip()
    if colon and (not arg or name == "coinflip"):
        raise DomainError(f"bad strategy spec {text!r}: expected {_SPECS[name]}")
    try:
        if name == "coinflip":
            return CoinFlip()
        if name == "biased":
            return Biased(p_h=float(arg))
        if name == "fixed":
            return Fixed(choice=arg.upper())
        if name == "alternator":
            return Alternator(start=arg.upper() or H)
        if name == "exploiter":
            return FrequencyExploiter(k=int(arg)) if arg else FrequencyExploiter()
        return BestResponder(announced_p_h=float(arg))
    except ValueError as exc:
        raise DomainError(f"bad strategy spec {text!r}: {exc}") from exc


def write_transcript_csv(transcript: GameTranscript, fh: IO[str]) -> None:
    """Emit rounds as CSV (round, choice1, choice2, gain1, gain2).

    A round's row is its number and the tail of its pair of choices.  The
    gains of the (at most four) tails are read from the transcript, where
    the payoff rule made them, at the first round of each pair.
    """
    t = transcript
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
