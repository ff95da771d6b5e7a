#!/usr/bin/env python3
"""Round-robin matching-pennies tournament between the built-in strategies.

Every ordered pair plays one seeded match; the table reports player 1's
mean gain per round.  The coin flipper should sit at zero against
everything; the pattern-based strategies should beat the predictable
ones and lose nothing to the random ones.

Output CSV columns: player1, player2, rounds, mean_gain1.
"""

from betlab import cli
from betlab.games import parse_strategy, play_match

LINEUP = [
    "coinflip",
    "biased:0.6",
    "biased:0.8",
    "fixed:H",
    "alternator",
    "exploiter:k=1",
    "exploiter:k=2",
    "bestresponse:0.6",
]


def tournament(args):
    yield ["player1", "player2", "rounds", "mean_gain1"]
    for spec1 in LINEUP:
        for spec2 in LINEUP:
            transcript = play_match(
                parse_strategy(spec1), parse_strategy(spec2),
                args.rounds, root_seed=args.seed,
            )
            yield [spec1, spec2, args.rounds, transcript.total_gain1 / args.rounds]


def build_parser():
    ap = cli.script_parser(__doc__, tournament)
    ap.add_argument("--rounds", type=int, default=5000)
    return ap


if __name__ == "__main__":
    cli.main(build_parser())
