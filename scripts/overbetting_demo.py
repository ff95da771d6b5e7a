#!/usr/bin/env python3
"""Show the growth curve and what happens to bettors on each side of it.

Tabulates the asymptotic growth rate across betting fractions, then
simulates a handful of long wealth paths at the optimum, at twice the
optimum, and just past the zero-growth crossing, recording realized
growth and maximum drawdown per path.

Output CSV columns: kind, f, value1, value2.  Rows of kind 'curve' hold
(f, asymptotic growth, blank); rows of kind 'path' hold (f, realized
growth, drawdown).
"""

import numpy as np

from betlab import cli
from betlab.betmath import BetSpec, asymptotic_growth, critical_fraction, \
    kelly_fraction
from betlab.wealthsim import SimConfig, path_stats, simulate_paths


def overbetting(args):
    bet = BetSpec(p=args.p, d=args.d)
    f_star = kelly_fraction(bet)
    f_c = critical_fraction(bet)
    yield ["kind", "f", "value1", "value2"]
    for f in np.linspace(0.0, min(0.98, f_c + 0.1), 50):
        yield ["curve", f, asymptotic_growth(bet, float(f)), ""]
    for f in (f_star, min(2 * f_star, 0.99), min(f_c + 0.02, 0.99)):
        config = SimConfig(bet=bet, f=float(f), n_steps=args.steps,
                           n_paths=args.paths, root_seed=args.seed)
        for stats in map(path_stats, simulate_paths(config)):
            yield ["path", f, stats.growth_rate, stats.drawdown]


def build_parser():
    ap = cli.script_parser(__doc__, overbetting)
    ap.add_argument("--p", type=float, default=0.6)
    ap.add_argument("--d", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=10000)
    ap.add_argument("--paths", type=int, default=20)
    return ap


if __name__ == "__main__":
    cli.main(build_parser())
