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
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import render
from .errors import DomainError, count, integer, probability, real
from .seeding import stream

H = "H"
T = "T"

# Rounds per batch when writing a transcript: whole columns at once would
# hold the text of every row in memory.
_CSV_BLOCK = 4096
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GameTranscript:
    """Array-backed match record; one entry per round."""

    choices1: np.ndarray
    choices2: np.ndarray
    gains1: np.ndarray
    gains2: np.ndarray
    stake: float
    rake: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.choices1)
        if not (len(self.choices2) == len(self.gains1) == len(self.gains2) == n):
            raise DomainError("transcript arrays must have equal length")
        totals = np.asarray(self.gains1) + np.asarray(self.gains2)
        if self.rake == 0.0:
            if np.any(totals != 0.0):
                raise DomainError("zero-sum violated")
        elif not np.all(abs(totals + self.rake) <= 4 * _EPS * (self.stake + self.rake)):
            # Each gain rounds once, by at most eps/2 of stake + rake/2.
            raise DomainError("per-round gains must sum to -rake")

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
    round through ``begin``/``choose``/``observe`` instead.
    """


_OTHER = {H: T, T: H}


def _replies(player: int) -> dict[str, str]:
    """A seat's best reply to each predicted opponent choice: player 1
    wins on a match, player 2 on a mismatch."""
    if integer(player, "player") not in (1, 2):
        raise DomainError(f"player must be 1 or 2, got {player!r}")
    return {H: H, T: T} if player == 1 else _OTHER


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
        if choice not in (H, T):
            raise DomainError(f"choice must be H or T, got {choice!r}")
        self.choice = choice

    def column(self, rng: np.random.Generator, player: int, n_rounds: int) -> np.ndarray:
        return np.full(n_rounds, self.choice, dtype="U1")


class Alternator(Strategy):
    """Strict alternation from a starting choice."""

    def __init__(self, start: str = H) -> None:
        if start not in (H, T):
            raise DomainError(f"start must be H or T, got {start!r}")
        self.start = start

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
        if not 1 <= integer(k, "context order") <= 8:
            raise DomainError(f"context order must lie in 1..8, got {k}")
        self.k = k

    def begin(self, rng: np.random.Generator, player: int) -> None:
        self._reply = _replies(player)
        self._rng = rng
        self._opp: list[str] = []
        self._table: dict[tuple[str, ...], list[int]] = {}

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


def _transcript(c1: np.ndarray, c2: np.ndarray, stake: float, rake: float) -> GameTranscript:
    """The payoff rule: player 1 wins the stake on a match, player 2 on a
    mismatch, and each pays half the rake every round."""
    match = c1 == c2
    return GameTranscript(
        choices1=c1,
        choices2=c2,
        gains1=np.where(match, stake, -stake) - rake / 2.0,
        gains2=np.where(match, -stake, stake) - rake / 2.0,
        stake=stake,
        rake=rake,
    )


def _check_match(n_rounds: int, stake: float, rake: float) -> None:
    if not 1 <= integer(n_rounds, "n_rounds") <= np.iinfo(np.intp).max:
        raise DomainError(f"n_rounds must lie in [1, {np.iinfo(np.intp).max}], got {n_rounds}")
    if not (math.isfinite(real(stake, "stake")) and stake > 0.0):
        raise DomainError(f"stake must be positive and finite, got {stake}")
    if not (math.isfinite(real(rake, "rake")) and rake >= 0.0):
        raise DomainError(f"rake must be nonnegative and finite, got {rake}")
    if not math.isfinite(n_rounds * (stake + rake)):
        raise DomainError(f"stake {stake} and rake {rake} over {n_rounds} rounds overflow")


def _column(strategy: Strategy, root_seed: int, player: int, n_rounds: int) -> np.ndarray | None:
    """A blind seat's choices from its stream (root_seed, player); for the
    exploiter, None once it has begun on that stream."""
    rng = stream(root_seed, player)
    if isinstance(strategy, FrequencyExploiter):
        strategy.begin(rng, player)
        return None
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
    seats = (strategy1, strategy2)
    columns = [_column(s, root_seed, i + 1, n_rounds) for i, s in enumerate(seats)]
    adaptive = [i for i, c in enumerate(columns) if c is None]
    if adaptive:
        played = [[] if c is None else c.tolist() for c in columns]
        for r in range(n_rounds):
            for i in adaptive:
                played[i].append(seats[i].choose())
            for i in adaptive:
                seats[i].observe(played[1 - i][r])
        for i in adaptive:
            columns[i] = np.array(played[i], dtype="U1")
    return _transcript(columns[0], columns[1], stake, rake)


def spy_match(
    strategy1: Strategy, n_rounds: int, root_seed: int, stake: float = 1.0
) -> GameTranscript:
    """Full disclosure: player 2 sees player 1's current choice first.

    Player 2 simply mismatches, so gain2 = +stake every round with zero
    variance, whatever strategy 1 does.
    """
    _check_match(n_rounds, stake, 0.0)
    c1 = _column(strategy1, root_seed, 1, n_rounds)
    if c1 is None:
        played = []
        for _ in range(n_rounds):
            played.append(strategy1.choose())
            strategy1.observe(_OTHER[played[-1]])
        c1 = np.array(played, dtype="U1")
    return _transcript(c1, np.where(c1 == H, T, H), stake, 0.0)


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
    if not real(stake_total, "stake_total") >= 0.0:
        raise DomainError(f"stake_total must be nonnegative, got {stake_total}")
    if math.isinf(stake_total):
        raise DomainError(f"stake_total must be finite, got {stake_total}")
    return (2.0 * p_h - 1.0) * (2.0 * x - 1.0) * stake_total


def frequency_exploiter(
    history: list[str] | tuple[str, ...],
    k: int = 2,
    player: int = 2,
) -> str:
    """Stateless form of the exploiter: next choice given opponent history."""
    exploiter = FrequencyExploiter(k=k)
    exploiter.begin(stream(0), player=player)
    for choice in history:
        if choice not in (H, T):
            raise DomainError(f"history entries must be H or T, got {choice!r}")
        exploiter.observe(choice)
    return exploiter.choose()


def parse_strategy(text: str) -> Strategy:
    """Build a strategy from a CLI spec like 'biased:0.6' or 'exploiter:k=2'."""
    name, _, arg = text.strip().partition(":")
    name = name.lower()
    try:
        if name == "coinflip":
            return CoinFlip()
        if name == "biased":
            return Biased(p_h=float(arg))
        if name == "fixed":
            return Fixed(choice=arg.strip().upper())
        if name == "alternator":
            return Alternator(start=arg.strip().upper() or H)
        if name == "exploiter":
            arg = arg.strip()
            if arg.startswith("k="):
                arg = arg[2:]
            return FrequencyExploiter(k=int(arg)) if arg else FrequencyExploiter()
        if name == "bestresponse":
            return BestResponder(announced_p_h=float(arg))
    except ValueError as exc:
        raise DomainError(f"bad strategy spec {text!r}: {exc}") from exc
    raise DomainError(
        f"unknown strategy {name!r}; expected coinflip, biased:<p>, fixed:<H|T>, "
        "alternator[:<H|T>], exploiter[:k=<1..8>], or bestresponse:<p>"
    )


def write_transcript_csv(transcript: GameTranscript, fh: IO[str]) -> None:
    """Emit rounds as CSV (round, choice1, choice2, gain1, gain2)."""
    t = transcript
    render.write_rows(fh, [["round", "choice1", "choice2", "gain1", "gain2"]])
    for start in range(0, t.n_rounds, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, t.n_rounds)
        block = slice(start, stop)
        render.write_columns(fh, [
            map(str, range(start + 1, stop + 1)),
            t.choices1[block].tolist(),
            t.choices2[block].tolist(),
            render.floats(t.gains1[block].tolist()),
            render.floats(t.gains2[block].tolist()),
        ])
