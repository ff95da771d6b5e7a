"""Growth maximization under a probability cap on a loss functional.

The problem: choose a betting fraction ``f`` maximizing the expected
realized growth rate over an ``n_steps`` horizon, subject to

    P[loss(W(f); n_steps) >= loss_threshold] <= max_prob

where ``loss`` is either the worst-loss or the drawdown functional (both
in nats, see :mod:`betlab.wealthsim`).  The threshold is a loss size, not
odds; it is named ``loss_threshold`` to keep it apart from the odds field
of the bet.

Solver: grid search with common random numbers.  The objective is
one-dimensional and concave and the estimates are noisy, so reusing one
outcome matrix for every grid fraction makes the estimated growth curve
exactly concave and the monotonicity properties (in ``max_prob`` and in
``loss_threshold``) hold exactly rather than up to Monte Carlo noise.
Outcomes never depend on the bet size, which is what makes the reuse
legitimate.

The violation estimate does not score every grid fraction.  A path's
loss is a maximum over windows of ``losses*(-log(1-f)) - wins*log(1+d*f)``
(Busseti, Ryu & Boyd, "Risk-constrained Kelly gambling", 2016): each term
is convex in f and zero at f = 0, so the loss is nondecreasing in f, and
once it reaches the threshold T its slope is at least T/f >= T.
Neighbouring grid values of a violating path therefore differ by at
least ``T*grid_step``, far above rounding error, and each path's hits on
the grid are a suffix.  The solver bisects grid indices for every path's
first violating fraction at once, in ``ceil(log2(G + 1))`` evaluations of
the log-wealth matrix instead of G, and ``p_violation`` over the grid is
the empirical CDF of those first indices.  Growth needs only the final
win counts.  The result is bit-identical to scoring every fraction.

The outcome matrix is never held whole.  Path k depends only on
``(root_seed, k)``, so the solver draws it in blocks of
``_BLOCK_CELLS // (n_steps + 1)`` rows (at least one) just before the
kernel reads each block, with the same bits.  Memory is one block's
working set (about 1.2 MB of scratch) plus the first violating index and
final win count of every path: it grows with ``n_paths``, not with
``n_paths * n_steps``.

Feasibility is judged on the point estimate (estimate <= max_prob); the
±2 s.e. band is reported alongside for the caller to interpret.  Finite
``n_steps`` stands in for the asymptotic variant: pass a large horizon
(10^4 is a reasonable default) when the long-run answer is wanted.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .betmath import BetSpec
from .errors import (BudgetError, InfeasibleThreshold, Ruled, SizeOf, column, count, fraction,
                     instance, probability, root_seed, ruled, within)
from .wealthsim import LossKind, outcome_matrix, outcome_size, path_losses

_MIN_PATHS = 1000
_F_CAP = 0.999
# At most a million grid points: a finer step asks for a grid too large to
# allocate, or (near 5e-324) one whose size overflows.
_MIN_GRID_STEP = 1e-6
# Log-wealth cells per block of paths (512 KB of float64): the outcome rows
# drawn at a time and the working set of the violation search.
_BLOCK_CELLS = 1 << 16


def _threshold(value: object, what: str) -> float:
    """A loss threshold: NaN fails the range rule, and a real one <= 0 is infeasible."""
    threshold = within(value, what, -math.inf, math.inf)
    if not threshold > 0.0:
        raise InfeasibleThreshold(
            f"{what} must be positive, got {value}; "
            "a nonpositive threshold is violated even by f = 0"
        )
    return threshold


@dataclass(frozen=True)
class GrationalProblem(Ruled):
    """One constrained-growth instance."""

    bet: BetSpec = ruled(instance, BetSpec)
    n_steps: int = ruled(count)
    loss_kind: LossKind = ruled(instance, LossKind)
    loss_threshold: float = ruled(_threshold, what="loss threshold")
    max_prob: float = ruled(probability)


@dataclass(frozen=True)
class McBudget(Ruled):
    """Monte Carlo budget: number of paths and the root seed."""

    n_paths: int = ruled(count)
    root_seed: int = ruled(root_seed)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    se: float


@dataclass(frozen=True, eq=False)
class GrationalGrid(Ruled):
    """Per-fraction estimates across the search grid (ascending f): five
    finite float columns and the bool ``feasible``, all read-only and of
    one length."""

    f: np.ndarray = ruled(column, float)
    e_growth: np.ndarray = ruled(column, float, SizeOf("f"))
    se_growth: np.ndarray = ruled(column, float, SizeOf("f"))
    p_violation: np.ndarray = ruled(column, float, SizeOf("f"))
    se_violation: np.ndarray = ruled(column, float, SizeOf("f"))
    feasible: np.ndarray = ruled(column, bool, SizeOf("f"))


@dataclass(frozen=True)
class GrationalSolution:
    f_star: float
    expected_growth: McEstimate
    violation_prob: McEstimate
    feasible: bool
    grid: GrationalGrid


def _win_blocks(bet: BetSpec, n_steps: int, budget: McBudget) -> Iterator[np.ndarray]:
    """The budget's outcome matrix in blocks of rows, each drawn as it is read.

    A block has at most ``_BLOCK_CELLS`` log-wealth cells (and at least one
    path), so the whole matrix never exists.  Its shape is checked here,
    before any drawing.
    """
    n_steps, n_paths = outcome_size(n_steps, budget.n_paths)
    rows = max(1, _BLOCK_CELLS // (n_steps + 1))
    return (
        outcome_matrix(bet, n_steps, min(rows, n_paths - first), budget.root_seed, first)
        for first in range(0, n_paths, rows)
    )


def _first_hits(
    problem: GrationalProblem, blocks: Iterable[np.ndarray], ab: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per path, the first grid index whose loss reaches the threshold, and
    the final win count.

    A path that never reaches the threshold gets ``b.size``.  Log wealth at
    (path, s) is ``counts * ab + s * b`` with ``counts`` the prefix win
    count.  Each path's loss is nondecreasing in f, so its hits on the grid
    are a suffix: bisect for the first one, in (lo, hi], on all paths of a
    block at once.  The blocks are the outcome matrix's rows in order; a
    block's working set stays in cache, and the scratch arrays are sized by
    the largest block.
    """
    first, last = [], []
    counts = np.empty((0, 0), dtype=np.int32)
    for block in blocks:
        m, n_steps = block.shape
        if counts.shape[0] < m:
            counts = np.zeros((m, n_steps + 1), dtype=np.int32)
            lw, scratch = np.empty(counts.shape), np.empty(counts.shape)
            steps = np.arange(n_steps + 1, dtype=float)
        c, w, s = counts[:m], lw[:m], scratch[:m]
        np.cumsum(block, axis=1, out=c[:, 1:])
        lo = np.full(m, -1)
        hi = np.full(m, b.size)
        while (open_ := hi - lo > 1).any():
            mid = np.where(open_, (lo + hi) // 2, 0)
            np.multiply(c, ab[mid][:, None], out=w)
            w += np.multiply.outer(b[mid], steps, out=s)
            hits = path_losses(w, problem.loss_kind, s) >= problem.loss_threshold
            hi = np.where(open_ & hits, mid, hi)
            lo = np.where(open_ & ~hits, mid, lo)
        first.append(hi)
        last.append(c[:, -1].copy())
    return np.concatenate(first), np.concatenate(last)


def _grid_stats(
    problem: GrationalProblem, blocks: Iterable[np.ndarray], fractions: np.ndarray
) -> GrationalGrid:
    n_steps = problem.n_steps
    d = problem.bet.d
    b = np.array([math.log1p(-f) for f in fractions])
    ab = np.array([math.log1p(d * f) for f in fractions]) - b
    first, last = _first_hits(problem, blocks, ab, b)
    n_paths = first.size
    p_violation = np.cumsum(np.bincount(first, minlength=fractions.size + 1))[:-1] / n_paths
    se_violation = np.sqrt(p_violation * (1.0 - p_violation) / n_paths)

    # Final log wealth needs only the last prefix count.
    e_growth = np.empty(fractions.size)
    se_growth = np.empty(fractions.size)
    for i in range(fractions.size):
        growth = (last * ab[i] + n_steps * b[i]) / n_steps
        e_growth[i] = growth.mean()
        se_growth[i] = growth.std(ddof=1) / math.sqrt(n_paths) if n_paths > 1 else 0.0
    return GrationalGrid(
        f=fractions,
        e_growth=e_growth,
        se_growth=se_growth,
        p_violation=p_violation,
        se_violation=se_violation,
        feasible=p_violation <= problem.max_prob,
    )


def solve(
    problem: GrationalProblem,
    budget: McBudget,
    grid_step: float = 0.01,
    f_max: float = _F_CAP,
) -> GrationalSolution:
    """Grid-search the constrained problem with common random numbers.

    The grid is {0, grid_step, 2*grid_step, ...} up to min(f_max, 0.999);
    every fraction is scored on the same outcome matrix.  Returns the
    feasible fraction with the largest estimated expected growth.  f = 0
    incurs zero loss, so with a positive threshold the feasible set is
    never empty.
    """
    instance(problem, "problem", GrationalProblem)
    instance(budget, "budget", McBudget)
    grid_step = within(grid_step, "grid_step", _MIN_GRID_STEP, 0.1)
    f_max = fraction(f_max, "f_max")
    if budget.n_paths < _MIN_PATHS:
        raise BudgetError(
            f"need at least {_MIN_PATHS} paths for usable violation estimates, "
            f"got {budget.n_paths}"
        )
    cap = min(f_max, _F_CAP)
    fractions = np.arange(math.floor(cap / grid_step) + 1) * grid_step
    blocks = _win_blocks(problem.bet, problem.n_steps, budget)
    return best_feasible(_grid_stats(problem, blocks, fractions), problem.max_prob)


def best_feasible(grid: GrationalGrid, max_prob: float) -> GrationalSolution:
    """The feasible grid fraction with the largest estimated growth.

    Feasible means ``p_violation <= max_prob``; the returned grid carries
    that mask.  The grid does not depend on the cap, so a sweep over caps
    scores one grid and calls this once per cap.
    """
    instance(grid, "grid", GrationalGrid)
    grid = replace(grid, feasible=grid.p_violation <= probability(max_prob, "max_prob"))
    feasible_idx = np.flatnonzero(grid.feasible)
    if feasible_idx.size == 0:
        return GrationalSolution(
            f_star=0.0,
            expected_growth=McEstimate(0.0, 0.0),
            violation_prob=McEstimate(0.0, 0.0),
            feasible=False,
            grid=grid,
        )
    best = feasible_idx[np.argmax(grid.e_growth[feasible_idx])]
    return GrationalSolution(
        f_star=float(grid.f[best]),
        expected_growth=McEstimate(float(grid.e_growth[best]), float(grid.se_growth[best])),
        violation_prob=McEstimate(
            float(grid.p_violation[best]), float(grid.se_violation[best])
        ),
        feasible=True,
        grid=grid,
    )


def violation_probability(
    bet: BetSpec,
    f: float,
    n_steps: int,
    loss_kind: LossKind,
    loss_threshold: float,
    budget: McBudget,
) -> McEstimate:
    """Monte Carlo estimate of P[loss >= loss_threshold] at one fraction.

    Deterministic given the budget's seed; binomial standard error.
    f = 0 returns exactly zero.
    """
    problem = GrationalProblem(
        bet=bet,
        n_steps=n_steps,
        loss_kind=loss_kind,
        loss_threshold=loss_threshold,
        max_prob=1.0,
    )
    fraction(f)
    instance(budget, "budget", McBudget)
    blocks = _win_blocks(bet, n_steps, budget)
    grid = _grid_stats(problem, blocks, np.asarray([f], dtype=float))
    return McEstimate(float(grid.p_violation[0]), float(grid.se_violation[0]))
