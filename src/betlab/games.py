"""Matching-pennies arena: strategies, exploitation, and disclosure scenarios.

Both players simultaneously pick H or T.  Player 1 wins the stake on a
match, player 2 wins on a mismatch; the game is zero-sum (an optional
per-round rake, split evenly, makes it negative-sum).  The coin-flip
strategy is the minimax choice: it guarantees expectation zero against
any opponent.  Everything exploitable here comes from an opponent
deviating from the 50/50 mix, either statically (a biased or fixed
chooser) or through patterns a context model can learn.

Determinism: a match draws from per-player streams derived from
``(root_seed, player)``, so transcripts are bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import DomainError
from .seeding import stream

H = "H"
T = "T"

# (player1 gain, player2 gain) per unit stake, keyed by (choice1, choice2).
MATCHING_PENNIES: dict[tuple[str, str], tuple[int, int]] = {
    (H, H): (1, -1),
    (H, T): (-1, 1),
    (T, H): (-1, 1),
    (T, T): (1, -1),
}


@dataclass(frozen=True)
class PayoffMatrix:
    """2x2 bimatrix keyed by (choice1, choice2); must be zero-sum cell-wise."""

    cells: dict[tuple[str, str], tuple[float, float]]

    def __post_init__(self) -> None:
        if set(self.cells) != {(H, H), (H, T), (T, H), (T, T)}:
            raise DomainError("payoff matrix needs exactly the four H/T cells")
        for key, (g1, g2) in self.cells.items():
            if g1 + g2 != 0:
                raise DomainError(f"cell {key} is not zero-sum: {(g1, g2)}")


PENNIES_MATRIX = PayoffMatrix(cells={k: v for k, v in MATCHING_PENNIES.items()})


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
        elif not np.allclose(totals, -self.rake, atol=1e-12):
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
    """Stateful chooser; sees the full history via per-round observe calls."""

    name = "strategy"
    # i.i.d. H-probability when the strategy ignores history (enables the
    # vectorized match path); None for adaptive strategies.
    iid_p_h: float | None = None

    def begin(self, rng: np.random.Generator, player: int) -> None:
        self.rng = rng
        self.player = player

    def choose(self) -> str:
        raise NotImplementedError

    def observe(self, own: str, opp: str) -> None:
        pass

    def _respond_to(self, predicted_opp: str) -> str:
        # Player 1 wins on a match, player 2 on a mismatch.
        if self.player == 1:
            return predicted_opp
        return T if predicted_opp == H else H

    def _flip(self, p_h: float) -> str:
        return H if self.rng.random() < p_h else T


class CoinFlip(Strategy):
    """Fair 50/50 mixing: the minimax strategy."""

    name = "coinflip"
    iid_p_h = 0.5

    def choose(self) -> str:
        return self._flip(0.5)


class Biased(Strategy):
    """I.i.d. H with probability p_h, history-blind."""

    name = "biased"

    def __init__(self, p_h: float) -> None:
        if not 0.0 <= p_h <= 1.0:
            raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
        self.p_h = p_h
        self.iid_p_h = p_h

    def choose(self) -> str:
        return self._flip(self.p_h)


class Fixed(Strategy):
    """Always the same choice."""

    name = "fixed"

    def __init__(self, choice: str) -> None:
        if choice not in (H, T):
            raise DomainError(f"choice must be H or T, got {choice!r}")
        self.choice = choice
        self.iid_p_h = 1.0 if choice == H else 0.0

    def choose(self) -> str:
        return self.choice


class Alternator(Strategy):
    """Strict alternation from a starting choice."""

    name = "alternator"

    def __init__(self, start: str = H) -> None:
        if start not in (H, T):
            raise DomainError(f"start must be H or T, got {start!r}")
        self.start = start

    def begin(self, rng: np.random.Generator, player: int) -> None:
        super().begin(rng, player)
        self._count = 0

    def choose(self) -> str:
        flip = self._count % 2 == 1
        self._count += 1
        if flip:
            return T if self.start == H else H
        return self.start


class FrequencyExploiter(Strategy):
    """Order-k context model over the opponent's choices (default k=2).

    Tabulates the opponent's next choice conditional on their last k
    choices and best-responds to the maximum-likelihood prediction.
    Unseen contexts and ties fall back to a uniform coin from the
    strategy's seeded stream, so the exploiter is never worse than
    random in expectation.
    """

    name = "exploiter"

    def __init__(self, k: int = 2) -> None:
        if not 1 <= k <= 8:
            raise DomainError(f"context order must lie in 1..8, got {k}")
        self.k = k

    def begin(self, rng: np.random.Generator, player: int) -> None:
        super().begin(rng, player)
        self._opp: list[str] = []
        self._table: dict[tuple[str, ...], list[int]] = {}

    def choose(self) -> str:
        if len(self._opp) >= self.k:
            counts = self._table.get(tuple(self._opp[-self.k:]))
            if counts is not None and counts[0] != counts[1]:
                return self._respond_to(H if counts[0] > counts[1] else T)
        return self._flip(0.5)

    def observe(self, own: str, opp: str) -> None:
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

    name = "bestresponse"

    def __init__(self, announced_p_h: float) -> None:
        if not 0.0 <= announced_p_h <= 1.0:
            raise DomainError(f"announced p_h must lie in [0, 1], got {announced_p_h}")
        self.announced_p_h = announced_p_h

    def choose(self) -> str:
        if self.announced_p_h > 0.5:
            return self._respond_to(H)
        if self.announced_p_h < 0.5:
            return self._respond_to(T)
        return self._flip(0.5)


def _iid_choices(strategy: Strategy, n_rounds: int) -> np.ndarray:
    p = strategy.iid_p_h
    if p >= 1.0:
        return np.full(n_rounds, H, dtype="U1")
    if p <= 0.0:
        return np.full(n_rounds, T, dtype="U1")
    return np.where(strategy.rng.random(n_rounds) < p, H, T).astype("U1")


def _check_match(n_rounds: int, stake: float, rake: float) -> None:
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    if not (math.isfinite(stake) and stake > 0.0):
        raise DomainError(f"stake must be positive and finite, got {stake}")
    if not (math.isfinite(rake) and rake >= 0.0):
        raise DomainError(f"rake must be nonnegative and finite, got {rake}")
    if not math.isfinite(n_rounds * (stake + rake)):
        raise DomainError(f"stake {stake} and rake {rake} over {n_rounds} rounds overflow")


def play_match(
    strategy1: Strategy,
    strategy2: Strategy,
    n_rounds: int,
    root_seed: int,
    stake: float = 1.0,
    rake: float = 0.0,
) -> GameTranscript:
    """Run a match; player i draws from the stream keyed (root_seed, i).

    When both strategies are history-blind (i.i.d.), choices are drawn in
    one vectorized pass; this consumes the same underlying uniforms in
    the same order as the round loop, so the transcript is identical.
    """
    _check_match(n_rounds, stake, rake)
    strategy1.begin(stream(root_seed, 1), player=1)
    strategy2.begin(stream(root_seed, 2), player=2)

    if strategy1.iid_p_h is not None and strategy2.iid_p_h is not None:
        c1 = _iid_choices(strategy1, n_rounds)
        c2 = _iid_choices(strategy2, n_rounds)
    else:
        c1 = np.empty(n_rounds, dtype="U1")
        c2 = np.empty(n_rounds, dtype="U1")
        for i in range(n_rounds):
            a = strategy1.choose()
            b = strategy2.choose()
            c1[i] = a
            c2[i] = b
            strategy1.observe(a, b)
            strategy2.observe(b, a)
    gains1 = np.where(c1 == c2, stake, -stake) - rake / 2.0
    gains2 = np.where(c1 == c2, -stake, stake) - rake / 2.0
    return GameTranscript(
        choices1=c1, choices2=c2, gains1=gains1, gains2=gains2, stake=stake, rake=rake
    )


def spy_match(
    strategy1: Strategy, n_rounds: int, root_seed: int, stake: float = 1.0
) -> GameTranscript:
    """Full disclosure: player 2 sees player 1's current choice first.

    Player 2 simply mismatches, so gain2 = +stake every round with zero
    variance, whatever strategy 1 does.
    """
    _check_match(n_rounds, stake, 0.0)
    strategy1.begin(stream(root_seed, 1), player=1)
    c1 = np.empty(n_rounds, dtype="U1")
    for i in range(n_rounds):
        a = strategy1.choose()
        c1[i] = a
        strategy1.observe(a, T if a == H else H)
    c2 = np.where(c1 == H, T, H).astype("U1")
    gains2 = np.full(n_rounds, stake)
    return GameTranscript(
        choices1=c1, choices2=c2, gains1=-gains2, gains2=gains2, stake=stake
    )


def responder_expected_gain(
    p_h: float, x: float, n_rounds: int, stake_total: float
) -> float:
    """Expected total gain of player 2 mixing T with probability x.

    Against i.i.d. H with probability p_h, splitting stake_total evenly
    over the rounds: gain = (2*p_h - 1) * (2*x - 1) * stake_total.
    Bilinear in the two biases; zero whenever either side is unbiased.
    """
    if not 0.0 <= p_h <= 1.0:
        raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    if not stake_total >= 0.0:
        raise DomainError(f"stake_total must be nonnegative, got {stake_total}")
    return (2.0 * p_h - 1.0) * (2.0 * x - 1.0) * stake_total


def frequency_exploiter(
    history: list[str] | tuple[str, ...],
    k: int = 2,
    rng: np.random.Generator | None = None,
    player: int = 2,
) -> str:
    """Stateless form of the exploiter: next choice given opponent history."""
    exploiter = FrequencyExploiter(k=k)
    exploiter.begin(rng if rng is not None else stream(0), player=player)
    for choice in history:
        if choice not in (H, T):
            raise DomainError(f"history entries must be H or T, got {choice!r}")
        exploiter.observe(own=H, opp=choice)  # own choice is irrelevant to the model
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
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["round", "choice1", "choice2", "gain1", "gain2"])
    for i in range(transcript.n_rounds):
        writer.writerow(
            [
                i + 1,
                transcript.choices1[i],
                transcript.choices2[i],
                format(transcript.gains1[i], ".12g"),
                format(transcript.gains2[i], ".12g"),
            ]
        )
