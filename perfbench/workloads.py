"""The benchmark's workloads: the `betlab` commands each one runs, the
inputs they read, and the checks their outputs must pass.

Every command gets the workload seed as `--seed`.  The only generated input
is the trades CSV for `stats`, written from the seed before any timing, so
the CLI receives nothing but the file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The reference run: the workload at tiny size and this seed, whose stdout
# must hash to the digests recorded in digests.json.  It holds the CLI
# byte-identical and serves as the warm-up before timing.
REFERENCE_SEED = 20180106
REFERENCE_SCALE = "tiny"

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Input sizes.  "full" is what the benchmark measures; "tiny" serves the
# reference run and the self-test.  grational needs at least 1000 paths at any size.
SIZES = {
    "full": {
        "crn_steps": 50, "crn_paths": 20000,
        "horizon_steps": 10000, "horizon_paths": 1000,
        "sim_steps": 1000, "sim_paths": 500,
        "trades": 200_000, "rounds": 100_000,
    },
    "tiny": {
        "crn_steps": 10, "crn_paths": 1000,
        "horizon_steps": 200, "horizon_paths": 1000,
        "sim_steps": 20, "sim_paths": 10,
        "trades": 2_000, "rounds": 1_000,
    },
}

WORKLOADS = ("grational-crn", "grational-horizon", "records-io")

# grational's default grid: {0, 0.01, ..., 0.99}.
GRID_POINTS = math.floor(0.999 / 0.01) + 1


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One `betlab` invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[bytes], None]


def _csv_rows(out: bytes, header: str) -> list[list[str]]:
    lines = out.decode().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"csv header is {lines[:1]!r}, expected {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"json does not parse: {exc}") from exc


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_grid_csv(max_prob: float) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        rows = _csv_rows(out, "f,e_growth,se_growth,p_violation,se_violation,feasible")
        _expect(len(rows) == GRID_POINTS, f"grid has {len(rows)} rows, expected {GRID_POINTS}")
        for row in rows:
            _expect(
                row[5] == "0" or float(row[3]) <= max_prob,
                f"feasible f={row[0]} has p_violation {row[3]} > {max_prob}",
            )

    return check


def check_solution_json(max_prob: float) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        payload = _json(out)
        _expect(
            not payload["feasible"] or payload["violation_prob"] <= max_prob,
            f"feasible solution has violation_prob {payload['violation_prob']} > {max_prob}",
        )

    return check


def check_paths_csv(n_rows: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        rows = _csv_rows(out, "path_id,step,log_wealth,outcome")
        _expect(len(rows) == n_rows, f"{len(rows)} path rows, expected {n_rows}")

    return check


def check_summary_json(n_rows: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        np_all = _json(out)["All"]["np"]
        _expect(np_all == n_rows, f"np is {np_all}, expected {n_rows}")

    return check


def check_transcript_csv(n_rounds: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        rows = _csv_rows(out, "round,choice1,choice2,gain1,gain2")
        _expect(len(rows) == n_rounds, f"{len(rows)} rounds, expected {n_rounds}")
        for row in rows:
            _expect(float(row[3]) + float(row[4]) == 0.0, f"round {row[0]} is not zero-sum")

    return check


def write_trades_csv(path: Path, n_rows: int, seed: int) -> None:
    """Trades record for `stats`: 40% long, 40% short, 20% flat periods."""
    rng = random.Random(seed)
    with open(path, "w") as fh:
        fh.write("period_id,side,pnl\n")
        for period in range(1, n_rows + 1):
            u = rng.random()
            if u < 0.2:
                fh.write(f"{period},F,0\n")
            else:
                fh.write(f"{period},{'L' if u < 0.6 else 'S'},{rng.gauss(0.05, 1.0):.4f}\n")


def commands(workload: str, scale: str, seed: int, workdir: Path) -> list[Command]:
    """The workload's commands for this seed, after writing their inputs."""
    size = SIZES[scale]
    if workload == "grational-crn":
        cmds = [
            Command(
                ("grational", "--p", "0.6", "--d", "1", "--steps", str(size["crn_steps"]),
                 "--loss", "drawdown", "--threshold", "0.5", "--max-prob", "0.1",
                 "--paths", str(size["crn_paths"]), "--format", "csv"),
                check_grid_csv(0.1),
            )
        ]
    elif workload == "grational-horizon":
        cmds = [
            Command(
                ("grational", "--p", "0.6", "--d", "1", "--steps", str(size["horizon_steps"]),
                 "--loss", "worstloss", "--threshold", "2", "--max-prob", "0.05",
                 "--paths", str(size["horizon_paths"]), "--format", "json"),
                check_solution_json(0.05),
            )
        ]
    elif workload == "records-io":
        trades = workdir / f"trades-{seed}.csv"
        write_trades_csv(trades, size["trades"], seed)
        cmds = [
            Command(
                ("simulate", "--p", "0.6", "--d", "1", "--f", "0.2",
                 "--steps", str(size["sim_steps"]), "--paths", str(size["sim_paths"]),
                 "--format", "csv"),
                check_paths_csv(size["sim_paths"] * (size["sim_steps"] + 1)),
            ),
            Command(
                ("stats", "--input", str(trades), "--years", "19",
                 "--ppgs-alpha", "0.05", "--format", "json"),
                check_summary_json(size["trades"]),
            ),
            Command(
                ("pennies", "--p1", "biased:0.6", "--p2", "exploiter:k=2",
                 "--rounds", str(size["rounds"]), "--format", "csv"),
                check_transcript_csv(size["rounds"]),
            ),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Command((*c.argv, "--seed", str(seed)), c.check) for c in cmds]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_digests(workload: str) -> list[str]:
    """Recorded stdout digests of the workload's commands in the reference run."""
    return json.loads(DIGESTS_PATH.read_text())[workload]
