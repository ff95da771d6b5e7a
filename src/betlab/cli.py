"""Command-line entry point: one subcommand per module.

Conventions shared by every subcommand:

* ``--seed`` fixes all randomness; when absent, the ``GRATIONAL_SEED``
  environment variable is consulted, then a fixed default.  Identical
  invocations produce byte-identical output.
* ``--format text|json|csv`` (default text).  A handler returns one
  :class:`CommandOutput` and :func:`_emit` renders it: text is one line
  of space-separated cells per row of ``lines`` (by default ``key value``
  per payload entry), json is the payload, csv is the ``table`` rows.
  Text and csv floats have 12 significant digits, round-half-even; json
  carries full precision.  Undefined values print as NA, null in json.
* ``--output PATH`` writes that output to a file instead of stdout.
* Exit codes: 0 success, 1 domain error or failed allocation (on stderr), 2 usage.

Each subcommand's module, and numpy, is imported when that subcommand runs
(its handler, or the type function of one of its flags), not with this
module.  So ``import betlab.cli``, ``--help``, ``kelly`` and ``popp`` load
no numpy, and no command loads a module it does not use.  Handlers call
through the module (``grational.solve``), where a wrapper installed on
the module object sees every call.

The experiment scripts in ``scripts/`` run through :func:`run` as well,
with ``--seed`` and ``--output`` but no ``--format``: they print CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import IO, Callable, Iterable, Sequence

from . import render
from .errors import DEFAULT_SEED, DomainError, NoPositiveRoot, root_seed

SEED_ENV_VAR = "GRATIONAL_SEED"


@dataclass
class CommandOutput:
    payload: dict
    # CSV rows, header first; a long table is instead a function writing it.
    table: Sequence[Sequence[object]] | Callable[[IO[str]], None]
    lines: Iterable[Sequence[object]] | None = None  # None: payload.items()


def _argument(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` as an argparse type whose ``ValueError`` prints its message."""

    @functools.wraps(parse)
    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_argument
def _seed_type(text: str) -> int:
    return root_seed(int(text), "seed")


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return _seed_type(env)
    except argparse.ArgumentTypeError as exc:
        raise DomainError(f"bad {SEED_ENV_VAR} value {env!r}: {exc}") from exc


@_argument
def _float_list(text: str) -> list[float]:
    """At least one comma-separated number; else a usage error."""
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return values


# The lazy type functions keep the names of the functions they call, since
# argparse prints "invalid <name> value" for an error that is not a ValueError.
@_argument
def parse_strategy(text: str) -> object:
    from . import games

    return games.parse_strategy(text)


@_argument
def from_tokens(text: str) -> object:
    from . import popp

    return popp.StateVars.from_tokens(text)


def _cmd_kelly(args: argparse.Namespace) -> CommandOutput:
    from . import betmath

    bet = betmath.BetSpec(p=args.p, d=args.d)
    f = betmath.kelly_fraction(bet)
    try:
        f_c = betmath.critical_fraction(bet)
    except NoPositiveRoot:
        f_c = None
    growth = betmath.asymptotic_growth(bet, f) if f < 1.0 else math.log1p(bet.d)
    payload = {"f": f, "f_c": f_c, "growth": growth}
    return CommandOutput(payload, [list(payload), list(payload.values())])


def _cmd_simulate(args: argparse.Namespace) -> CommandOutput:
    import numpy as np

    from . import betmath, wealthsim

    config = wealthsim.SimConfig(
        bet=betmath.BetSpec(p=args.p, d=args.d),
        f=args.f,
        n_steps=args.steps,
        n_paths=args.paths,
        root_seed=_resolve_seed(args.seed),
        w0=args.w0,
    )
    paths = wealthsim.simulate_paths(config)
    stats = [wealthsim.path_stats(p) for p in paths]
    growth = np.asarray([s.growth_rate for s in stats])
    payload = {
        "n_paths": config.n_paths,
        "n_steps": config.n_steps,
        "f": config.f,
        "asymptotic_growth": betmath.asymptotic_growth(config.bet, config.f),
        "mean_growth": float(growth.mean()),
        "se_growth": float(growth.std(ddof=1) / math.sqrt(len(stats)))
        if len(stats) > 1
        else None,
        "mean_worst_loss": float(np.mean([s.worst_loss for s in stats])),
        "mean_drawdown": float(np.mean([s.drawdown for s in stats])),
        "ruin_fraction": float(np.mean([s.ruined for s in stats])),
    }
    return CommandOutput(payload, functools.partial(wealthsim.write_paths_csv, paths))


def _cmd_grational(args: argparse.Namespace) -> CommandOutput:
    import numpy as np

    from . import betmath, grational

    problem = grational.GrationalProblem(
        bet=betmath.BetSpec(p=args.p, d=args.d),
        n_steps=args.steps,
        loss_kind=grational.LossKind(args.loss),
        loss_threshold=args.threshold,
        max_prob=args.max_prob,
    )
    budget = grational.McBudget(n_paths=args.paths, root_seed=_resolve_seed(args.seed))
    solution = grational.solve(
        problem, budget, grid_step=args.grid_step, f_max=args.f_max
    )
    payload = {
        "f_star": solution.f_star,
        "expected_growth": solution.expected_growth.value,
        "se_growth": solution.expected_growth.se,
        "violation_prob": solution.violation_prob.value,
        "se_violation": solution.violation_prob.se,
        "feasible": solution.feasible,
    }
    # One row per grid fraction; the flag column reads 1.0/0.0, printed 1/0.
    names = [field.name for field in fields(grational.GrationalGrid)]
    columns = np.column_stack([getattr(solution.grid, name) for name in names])
    return CommandOutput(payload, [names, *columns.tolist()])


def _cmd_stats(args: argparse.Namespace) -> CommandOutput:
    from . import sysstats

    try:
        with open(args.input, newline="", encoding="utf-8") as fh:
            series = sysstats.read_trades_csv(fh)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{args.input} is not UTF-8 text: {exc.reason}") from None
    which = sysstats.Filter(args.filter)
    label = which.value.title()
    row = sysstats.summarize(series, which)
    values = sysstats.display_fields(row)
    extras: dict = {}
    if args.years is not None:
        extras["avg_gain_per_year"] = sysstats.average_gain_per_year(row, args.years)
    if args.ppgs_alpha is not None:
        extras["classification"] = sysstats.ppgs_classify(series, args.ppgs_alpha).value
    # The aligned table is one multi-line cell: render.line((text,)) == text.
    table_text = sysstats.format_summary_text([(label, row)])
    return CommandOutput(
        {label: values, **extras},
        [["filter", *sysstats.SUMMARY_COLUMNS], [label, *values.values()]],
        [(table_text,), *extras.items()],
    )


def _cmd_pennies(args: argparse.Namespace) -> CommandOutput:
    from . import games

    seed = _resolve_seed(args.seed)
    if args.spy:
        if args.p2 is not None or args.rake:
            raise DomainError("--p2 and --rake are not taken with --spy")
        transcript = games.spy_match(args.p1, args.rounds, seed, stake=args.stake)
    else:
        if args.p2 is None:
            raise DomainError("--p2 is required unless --spy is given")
        transcript = games.play_match(
            args.p1, args.p2, args.rounds, seed, stake=args.stake, rake=args.rake
        )
    payload = {
        "rounds": transcript.n_rounds,
        "stake": transcript.stake,
        "rake": transcript.rake,
        "total_gain1": transcript.total_gain1,
        "total_gain2": transcript.total_gain2,
        "mean_gain1": transcript.total_gain1 / transcript.n_rounds,
        "mean_gain2": transcript.total_gain2 / transcript.n_rounds,
    }
    return CommandOutput(payload, functools.partial(games.write_transcript_csv, transcript))


def _cmd_miller(args: argparse.Namespace) -> CommandOutput:
    from . import millerclear

    auction = millerclear.AuctionSpec(
        n_shares=args.shares, m_buyers=args.buyers, short_supply=args.short
    )
    level = auction.quantile_level()
    # Only the empirical mode draws, so only it reads the seed.
    seed = _resolve_seed(args.seed) if args.mode == "empirical" else None
    prices = []
    for sd in args.sds:
        if args.mode == "normal":
            dist: millerclear.OpinionDistribution = millerclear.NormalOpinions(
                mean=args.mean, sd=sd
            )
        else:
            dist = millerclear.sample_normal_opinions(args.mean, sd, args.buyers, seed)
        price = millerclear.clearing_price(dist, auction)
        if not math.isfinite(price):
            raise DomainError(
                f"the clearing price at sd {render.cell(sd)} is not finite ({price})"
            )
        prices.append(price)
    payload = {
        "mean": args.mean,
        "quantile_level": level,
        "mode": args.mode,
        "sds": args.sds,
        "prices": prices,
    }
    pairs = list(zip(args.sds, prices))
    return CommandOutput(payload, [("sd", "clearing_price"), *pairs], pairs)


def _cmd_popp(args: argparse.Namespace) -> CommandOutput:
    from . import popp

    body = [
        (phase.value, score, popp.kelly_multiplier(phase))
        for phase, score in popp.classify_phase(args.state)
    ]
    top = ("kelly_multiplier", body[0][2])  # the best-ranked phase's multiplier
    ranking = [{"phase": phase, "score": score} for phase, score, _ in body]
    return CommandOutput(
        {"ranking": ranking, "kelly_multiplier": top[1]},
        [("phase", "score", "kelly_multiplier"), *body],
        [row[:2] for row in body] + [top],
    )


def _add_common_options(parser: argparse.ArgumentParser, with_format: bool) -> None:
    parser.add_argument(
        "--seed",
        type=_seed_type,
        default=None,
        help=f"root seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})",
    )
    if with_format:
        parser.add_argument(
            "--format", choices=["text", "json", "csv"], default="text",
            help="output format (default text)",
        )
    parser.add_argument("--output", default=None, help="write output to this file")


def script_parser(
    doc: str, table: Callable[[argparse.Namespace], Iterable[Sequence[object]]]
) -> argparse.ArgumentParser:
    """Parser of an experiment script that prints ``table(args)`` as CSV.

    ``doc``'s first line is the description.  The script adds its own
    flags, then passes the parser to :func:`run` or :func:`main`.  By then
    ``args.seed`` holds the resolved seed.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    _add_common_options(parser, with_format=False)

    def handler(args: argparse.Namespace) -> CommandOutput:
        args.seed = _resolve_seed(args.seed)
        return CommandOutput({}, list(table(args)))

    parser.set_defaults(format="csv", handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betlab",
        description="Bet sizing, wealth simulation, constrained growth, "
        "trading statistics, guessing games, auction clearing, and "
        "strategy-lifecycle classification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, with_format=True)

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kelly", parents=[common], help="optimal fraction and growth")
    p.add_argument("--p", type=float, required=True, help="win probability")
    p.add_argument("--d", type=float, required=True, help="odds paid per unit on a win")
    p.set_defaults(handler=_cmd_kelly)

    p = sub.add_parser("simulate", parents=[common], help="fixed-fraction wealth paths")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--f", type=float, required=True, help="betting fraction")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--w0", type=float, default=1.0, help="starting wealth")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "grational", parents=[common], help="growth max under a loss-probability cap"
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="horizon length")
    p.add_argument("--loss", choices=("worstloss", "drawdown"), default="worstloss")
    p.add_argument("--threshold", type=float, required=True, help="loss size in nats")
    p.add_argument("--max-prob", type=float, required=True, help="violation cap u")
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--f-max", type=float, default=0.999)
    p.set_defaults(handler=_cmd_grational)

    p = sub.add_parser("stats", parents=[common], help="summary row from a trades CSV")
    p.add_argument("--input", required=True, help="CSV with header period_id,side,pnl")
    p.add_argument("--filter", choices=("long", "short", "all"), default="all")
    p.add_argument("--years", type=float, default=None, help="report average P&L per year")
    p.add_argument(
        "--ppgs-alpha", type=float, default=None,
        help="classify the per-period expectation sign at this significance level",
    )
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("pennies", parents=[common], help="matching-pennies matches")
    p.add_argument("--p1", type=parse_strategy, required=True)
    p.add_argument("--p2", type=parse_strategy, default=None)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--stake", type=float, default=1.0, help="stake per round")
    p.add_argument("--rake", type=float, default=0.0, help="per-round referee fee")
    p.add_argument(
        "--spy", action="store_true",
        help="player 2 sees player 1's current choice before choosing",
    )
    p.set_defaults(handler=_cmd_pennies)

    p = sub.add_parser("miller", parents=[common], help="auction clearing vs dispersion")
    p.add_argument("--mean", type=float, default=50.0)
    p.add_argument("--sds", type=_float_list, required=True, help="comma-separated sds")
    p.add_argument("--shares", type=int, required=True)
    p.add_argument("--buyers", type=int, required=True)
    p.add_argument("--short", type=int, default=0, help="short-sold extra supply")
    p.add_argument("--mode", choices=["normal", "empirical"], default="normal")
    p.set_defaults(handler=_cmd_miller)

    p = sub.add_parser("popp", parents=[common], help="classify a lifecycle sign vector")
    p.add_argument(
        "--state",
        type=from_tokens,
        required=True,
        help="nine comma-separated levels: ret,vol,sr,spd,pop,lev,sdiv,slink,srob",
    )
    p.set_defaults(handler=_cmd_popp)
    return parser


def _emit(args: argparse.Namespace, result: CommandOutput) -> None:
    def write(fh: IO[str]) -> None:
        if args.format == "text":
            lines = result.payload.items() if result.lines is None else result.lines
            fh.write("\n".join(map(render.line, lines)) + "\n")
        elif args.format == "json":
            fh.write(json.dumps(result.payload, indent=2, allow_nan=False) + "\n")
        elif callable(result.table):
            result.table(fh)
        else:
            render.write_rows(fh, result.table)

    if args.output is None:
        write(sys.stdout)
    else:
        with open(args.output, "w", newline="") as fh:
            write(fh)


def run(
    argv: Sequence[str] | None = None, parser: argparse.ArgumentParser | None = None
) -> int:
    """Parse ``argv`` with ``parser`` (the ``betlab`` parser by default),
    run the handler it selects and emit its output; return the exit code."""
    parser = parser or build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        for arg in argv:
            # Python 3.11's argparse stores [] for --flag=-- without calling
            # the flag's type; no flag here takes a lone "--" as its value.
            if arg.startswith("--") and arg.endswith("=--"):
                parser.error(f"argument {arg[:-3]}: expected one argument")
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        result = args.handler(args)
        _emit(args, result)
    except (DomainError, OSError, MemoryError) as exc:
        # A MemoryError: a length within MAX_LENGTH that cannot be allocated.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def main(parser: argparse.ArgumentParser | None = None) -> None:
    """Program entry point; exits with :func:`run`'s code unless it is 0,
    so a script run in-process (``runpy``) returns normally on success."""
    if code := run(parser=parser):
        sys.exit(code)


if __name__ == "__main__":
    main()
