#!/usr/bin/env python3
"""Sweep the loss-probability cap and trace the constrained growth frontier.

For a fixed bet and horizon, score the capped-loss grid once, pick the
best feasible fraction on it at each cap value u, and record the chosen
fraction, its estimated growth, and the estimated violation probability.
The common-random-numbers design makes the whole frontier a
deterministic function of the seed.

Output CSV columns: u, f_star, e_growth, se_growth, p_violation, feasible.
"""

from betlab import cli
from betlab.betmath import BetSpec
from betlab.grational import (GrationalProblem, LossKind, McBudget, best_feasible,
                              solve)


def frontier(args):
    problems = [
        GrationalProblem(
            bet=BetSpec(p=args.p, d=args.d),
            n_steps=args.steps,
            loss_kind=LossKind(args.loss),
            loss_threshold=args.threshold,
            max_prob=u,
        )
        for u in args.caps
    ]
    # The grid does not depend on the cap: score it once, then pick f_star
    # per cap from it.
    budget = McBudget(n_paths=args.paths, root_seed=args.seed)
    grid = solve(problems[0], budget, grid_step=args.grid_step).grid
    yield ["u", "f_star", "e_growth", "se_growth", "p_violation", "feasible"]
    for problem in problems:
        sol = best_feasible(grid, problem.max_prob)
        yield [problem.max_prob, sol.f_star, sol.expected_growth.value,
               sol.expected_growth.se, sol.violation_prob.value, int(sol.feasible)]


def build_parser():
    ap = cli.script_parser(__doc__, frontier)
    ap.add_argument("--p", type=float, default=0.6)
    ap.add_argument("--d", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--loss", choices=[k.value for k in LossKind],
                    default="drawdown")
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--grid-step", type=float, default=0.01)
    ap.add_argument("--caps", type=cli._float_list,
                    default="0.01,0.02,0.05,0.1,0.2,0.5,1.0",
                    help="comma-separated cap values u")
    return ap


if __name__ == "__main__":
    cli.main(build_parser())
