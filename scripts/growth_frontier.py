#!/usr/bin/env python3
"""Sweep the loss-probability cap and trace the constrained growth frontier.

For a fixed bet and horizon, score the capped-loss grid once, pick the
best feasible fraction on it at each cap value u, and record the chosen
fraction, its estimated growth, and the estimated violation probability.
The common-random-numbers design makes the whole frontier a
deterministic function of the seed.

Output CSV columns: u, f_star, e_growth, se_growth, p_violation, feasible.
"""

import argparse
import csv
import sys

from betlab.betmath import BetSpec
from betlab.grational import (GrationalProblem, LossKind, McBudget, best_feasible,
                              solve)
from betlab.seeding import DEFAULT_SEED


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=0.6)
    ap.add_argument("--d", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--loss", choices=[k.value for k in LossKind],
                    default="drawdown")
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--grid-step", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--caps", default="0.01,0.02,0.05,0.1,0.2,0.5,1.0",
                    help="comma-separated cap values u")
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    budget = McBudget(n_paths=args.paths, root_seed=args.seed)
    problems = [
        GrationalProblem(
            bet=BetSpec(p=args.p, d=args.d),
            n_steps=args.steps,
            loss_kind=LossKind(args.loss),
            loss_threshold=args.threshold,
            max_prob=float(tok),
        )
        for tok in args.caps.split(",")
    ]
    # The grid does not depend on the cap: score it once, then pick f_star
    # per cap from it.
    grid = solve(problems[0], budget, grid_step=args.grid_step).grid

    fh = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["u", "f_star", "e_growth", "se_growth", "p_violation",
                     "feasible"])
    for problem in problems:
        sol = best_feasible(grid, problem.max_prob)
        writer.writerow([
            format(problem.max_prob, ".12g"),
            format(sol.f_star, ".12g"),
            format(sol.expected_growth.value, ".12g"),
            format(sol.expected_growth.se, ".12g"),
            format(sol.violation_prob.value, ".12g"),
            int(sol.feasible),
        ])
    if args.output:
        fh.close()


if __name__ == "__main__":
    main()
