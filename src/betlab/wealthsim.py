"""Deterministic-seeded simulation of fixed-fraction betting wealth processes.

A wealth path starts at ``w0`` and multiplies by ``1 + d*f`` on a win or
``1 - f`` on a loss each step; everything here works in log space, where
those factors become additive increments.  Two loss functionals summarize
a path:

* worst loss: ``log(W_0) - min_s log(W_s)``, the greatest relative loss
  measured from the starting capital;
* drawdown: ``max_s (max_{u<=s} log(W_u) - log(W_s))``, the greatest
  relative loss from a previous high.

Both are in nats and nonnegative (the index range includes ``s = 0``, so
the starting point itself bounds them below by zero), and drawdown
dominates worst loss because the running peak is at least ``W_0``.
``path_losses`` computes either one over the last axis of an array, so
one kernel serves a single path, a block of paths and a P&L curve.

Seeding contract: path ``k`` is a pure function of ``(root_seed, k)``
via a per-path spawned stream, so reruns and parallel runs produce
identical paths regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from . import render
from .betmath import BetSpec
from .errors import (MAX_LENGTH, DomainError, Ruled, SizeOf, column, count, fraction, instance,
                     integer, root_seed, ruled, shown, within)
from .seeding import stream

# A path is flagged ruined once wealth falls below this multiple of the
# starting capital; the discrete model never reaches exactly zero for f < 1.
DEFAULT_RUIN_FLOOR = 1e-9

# CSV cells of a loss and a win.
_OUTCOME_CELLS = ("0", "1")

# Cap on adaptive betting fractions, keeping log(1-f) finite when the
# running win-rate estimate hits 1 (e.g. an all-win prefix).
ADAPTIVE_F_MAX = 0.999


class LossKind(Enum):
    WORST_LOSS = "worstloss"
    DRAWDOWN = "drawdown"


@dataclass(frozen=True)
class SimConfig(Ruled):
    """Fixed-fraction simulation instance."""

    bet: BetSpec = ruled(instance, BetSpec)
    f: float = ruled(fraction, what="betting fraction")
    n_steps: int = ruled(count)
    n_paths: int = ruled(count)
    root_seed: int = ruled(root_seed)
    w0: float = ruled(within, 0, math.inf, "()", what="initial wealth", default=1.0)


@dataclass(frozen=True, eq=False)
class WealthPath(Ruled):
    """One simulated path: ``n+1`` log-wealth values and ``n`` win flags, read-only."""

    log_wealth: np.ndarray = ruled(column, float)
    outcomes: np.ndarray = ruled(column, bool, SizeOf("log_wealth", 1))

    @property
    def n_steps(self) -> int:
        return self.log_wealth.size - 1


@dataclass(frozen=True)
class PathStats:
    """Per-path summary: realized growth rate, loss functionals, ruin flag."""

    growth_rate: float
    worst_loss: float
    drawdown: float
    ruined: bool


def outcome_size(n_steps: int, n_paths: int) -> tuple[int, int]:
    """``n_steps`` and ``n_paths`` as counts whose product numpy can index:
    the rule for the shape of an outcome matrix, drawn whole or in blocks."""
    n_steps, n_paths = count(n_steps, "n_steps"), count(n_paths, "n_paths")
    if n_paths * n_steps > MAX_LENGTH:
        raise DomainError(
            f"{shown(n_paths)} paths of {shown(n_steps)} steps exceed what numpy can index"
        )
    return n_steps, n_paths


def outcome_matrix(
    bet: BetSpec, n_steps: int, n_paths: int, root_seed: int, first: int = 0
) -> np.ndarray:
    """Win/loss indicators, shape ``(n_paths, n_steps)``, dtype bool.

    Row ``i`` is path ``first + i`` and depends only on ``(root_seed, first
    + i)``, so a matrix drawn in blocks of rows (``first`` = 0, m, 2m, ...)
    has the bits of the whole one, and a caller that reads it block by
    block needs the memory of one block.  Outcomes do not depend on the
    betting fraction, so one matrix can be reused across fractions (the
    common-random-numbers contract used by the grational solver).
    """
    instance(bet, "bet", BetSpec)
    n_steps, n_paths = outcome_size(n_steps, n_paths)
    first = integer(first, "first path", 0)
    wins = np.empty((n_paths, n_steps), dtype=bool)
    for i in range(n_paths):
        wins[i] = stream(root_seed, first + i).random(n_steps) < bet.p
    return wins


def simulate_paths(config: SimConfig) -> list[WealthPath]:
    """Simulate ``n_paths`` independent paths, ordered by path index.

    Deterministic: identical configs give bit-identical paths, and path
    ``k`` never changes when ``n_paths`` grows.
    """
    instance(config, "config", SimConfig)
    wins = outcome_matrix(config.bet, config.n_steps, config.n_paths, config.root_seed)
    inc = np.where(wins, math.log1p(config.bet.d * config.f), math.log1p(-config.f))
    lw0 = math.log(config.w0)
    lw = np.empty((config.n_paths, config.n_steps + 1), dtype=float)
    lw[:, 0] = lw0
    np.cumsum(inc, axis=1, out=lw[:, 1:])
    lw[:, 1:] += lw0
    return [WealthPath(log_wealth=lw[k], outcomes=wins[k]) for k in range(config.n_paths)]


def path_losses(
    lw: np.ndarray, kind: LossKind, out: np.ndarray | None = None
) -> np.ndarray:
    """Worst loss or drawdown of log wealth over its last axis.

    ``lw[..., 0]`` is the start.  Drawdown writes the running peak into
    ``out``, a scratch buffer of ``lw``'s shape, or into a new array.
    """
    if kind is LossKind.WORST_LOSS:
        return lw[..., 0] - lw.min(axis=-1)
    instance(kind, "loss_kind", LossKind)  # the one other member is DRAWDOWN
    peak = np.maximum.accumulate(lw, axis=-1, out=out)
    peak -= lw
    return peak.max(axis=-1)


def worst_loss(path: WealthPath) -> float:
    """Greatest relative loss from the start: ``log(W_0) - min_s log(W_s)``.

    Nonnegative because ``s = 0`` is included in the minimum.
    """
    instance(path, "path", WealthPath)
    return float(path_losses(path.log_wealth, LossKind.WORST_LOSS))


def drawdown(path: WealthPath) -> float:
    """Greatest relative loss from a running peak, in one forward pass."""
    instance(path, "path", WealthPath)
    return float(path_losses(path.log_wealth, LossKind.DRAWDOWN))


def path_stats(path: WealthPath) -> PathStats:
    """Summarize one path; ``ruined`` means wealth fell below ``DEFAULT_RUIN_FLOOR * W_0``."""
    instance(path, "path", WealthPath)
    if path.n_steps < 1:
        raise DomainError("growth rate needs at least one step")
    lw = path.log_wealth
    wl = worst_loss(path)
    return PathStats(
        growth_rate=float((lw[-1] - lw[0]) / path.n_steps),
        worst_loss=wl,
        drawdown=drawdown(path),
        ruined=bool(wl > -math.log(DEFAULT_RUIN_FLOOR)),
    )


def ruin_probability_all_in(bet: BetSpec, n: int) -> float:
    """Probability of ruin within ``n`` all-in bets: ``1 - p^n``.

    Betting everything each turn, a single loss is ruin, so only the
    all-win sequence survives.  Monotone to 1 as ``n`` grows for p < 1.
    """
    instance(bet, "bet", BetSpec)
    # p**n is exactly 0 (p < 1) or 1 (p = 1) long before n leaves double range.
    return 1.0 - bet.p ** min(count(n, "n"), 2**1023)


def adaptive_policy_growth(bet: BetSpec, n_steps: int, root_seed: int) -> float:
    """Realized growth rate of the plug-in policy with unknown ``p``.

    At step ``k+1`` the bettor bets the estimate built from the first
    ``k`` outcomes: ``f_k = clip(xbar_k - (1 - xbar_k)/d, 0, 0.999)``,
    with ``f_0 = 0`` (no bet before any data).  The cap keeps the loss
    increment finite when an all-win prefix drives ``xbar_k`` to 1.
    Vectorizable because outcomes never depend on the bet size.
    """
    instance(bet, "bet", BetSpec)
    n_steps = integer(n_steps, "n_steps", 1, MAX_LENGTH)
    x = stream(root_seed).random(n_steps) < bet.p
    seen = np.arange(n_steps, dtype=float)  # outcomes observed before each step
    wins_before = np.concatenate(([0.0], np.cumsum(x)[:-1].astype(float)))
    xbar = wins_before / np.maximum(seen, 1.0)  # step 0: no data, xbar 0 -> f 0
    f = np.clip(xbar - (1.0 - xbar) / bet.d, 0.0, ADAPTIVE_F_MAX)
    inc = np.where(x, np.log1p(bet.d * f), np.log1p(-f))
    return float(inc.sum() / n_steps)


def write_paths_csv(paths: Sequence[WealthPath], fh: IO[str]) -> None:
    """Emit paths as CSV rows (path_id, step, log_wealth, outcome).

    Step 0 has no outcome; its cell is left empty.  Outcomes are 1/0.
    Each path's rows are one ``%`` template, its steps and outcomes written
    in and its log wealths filled by ``render.FLOAT``, written at once, so
    memory holds the text of one path, not of the table.
    """
    render.write_rows(fh, [["path_id", "step", "log_wealth", "outcome"]])
    # Per path length: step 0's line, and each later step's line after a loss
    # and after a win, all without the path id, which the join puts before each.
    lines = {}
    for k, path in enumerate(instance(paths, "paths", Iterable)):
        size = instance(path, "path", WealthPath).log_wealth.size
        if size not in lines:
            lines[size] = f",0,{render.FLOAT},\n", [
                np.array([f",{s},{render.FLOAT},{o}\n" for s in range(1, size)], dtype=object)
                for o in _OUTCOME_CELLS
            ]
        first, (loss, win) = lines[size]
        template = str(k).join(["", first, *np.where(path.outcomes, win, loss).tolist()])
        fh.write(template % tuple(path.log_wealth.tolist()))
