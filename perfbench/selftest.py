"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

It takes a minute or two, and runs the benchmark in this process, at tiny
input sizes, for a single repetition.  It checks that

* every metric BENCHMARK.json names is printed with its unit, and every run
  passes its output checks;
* the program's counts match the input sizes and repeat exactly across two
  traced runs;
* every layer a workload runs has a span of nonzero length there, and every
  layer it does not run reads 0;
* the output checks reject a tampered stdout.

Exits 0 when all hold, 1 otherwise.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import run
import workloads
from workloads import GRID_POINTS

TINY = workloads.SIZES["tiny"]


def _grid_counts(paths: int, steps: int) -> dict[str, int]:
    cells = paths * (steps + 1) * GRID_POINTS
    return {
        "seeding.stream_calls": paths,
        "grational.grid_points": GRID_POINTS,
        "grational.cells": cells,
        "grational.bytes_computed": 8 * cells,
    }


# Counts the program must report on each workload at tiny size; every
# other count of the traced run must read 0 there.
EXPECTED_COUNTS = {
    "grational-crn": _grid_counts(TINY["crn_paths"], TINY["crn_steps"]),
    "grational-horizon": _grid_counts(TINY["horizon_paths"], TINY["horizon_steps"]),
    "records-io": {
        "seeding.stream_calls": TINY["sim_paths"] + 2,  # paths, then the two players
        "wealthsim.path_stats_calls": TINY["sim_paths"],
        "wealthsim.csv_rows": TINY["sim_paths"] * (TINY["sim_steps"] + 1),
        "sysstats.rows": TINY["trades"],
        "games.rounds": TINY["rounds"],
    },
}


def _replace_last_row(out: bytes, new_row: str) -> bytes:
    lines = out.decode().splitlines()
    return "\n".join([*lines[:-1], new_row]).encode() + b"\n"


def _rejson(out: bytes, edit) -> bytes:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload, indent=2).encode() + b"\n"


# Per command: an edit that keeps the output well formed but breaks the
# property its check guards.
TAMPERS = {
    ("grational-crn", 0): lambda out: _replace_last_row(out, "0.99,0,0,0.5,0,1"),
    ("grational-horizon", 0): lambda out: _rejson(
        out, lambda p: p.update(feasible=True, violation_prob=0.5)
    ),
    ("records-io", 0): lambda out: b"\n".join(out.split(b"\n")[:-2]) + b"\n",
    ("records-io", 1): lambda out: _rejson(out, lambda p: p["All"].update(np=p["All"]["np"] + 1)),
    ("records-io", 2): lambda out: _replace_last_row(
        out, out.decode().splitlines()[-1].rsplit(",", 1)[0] + ",0"
    ),
}


# Span times that must be above 0 on each workload; every other layer's
# span time must read 0 there.
GRID_SPANS = ("wealthsim.outcome_matrix_s", "grational.solve_s", "grational.kernel_self_s")
EXPECTED_SPANS = {
    "grational-crn": GRID_SPANS,
    "grational-horizon": GRID_SPANS,
    "records-io": (
        "wealthsim.outcome_matrix_s",  # simulate draws its paths with it
        "wealthsim.simulate_paths_s", "wealthsim.path_stats_s", "wealthsim.write_paths_csv_s",
        "sysstats.read_trades_csv_s", "sysstats.summarize_s", "sysstats.ppgs_classify_s",
        "games.play_match_s", "games.write_transcript_csv_s",
    ),
}
LAYERS = ("wealthsim.", "grational.", "sysstats.", "games.")


def bench(workload: str, trace: bool, wanted: list[dict]) -> tuple[dict, str]:
    """One tiny repetition of the workload: its result line, and the report printed."""
    with run.work_directory() as workdir:
        runner, samples = run.bench(
            workload, 5, 0, trace, "tiny", workdir, [m["name"] for m in wanted]
        )
    printed = io.StringIO()
    with redirect_stdout(printed):
        metrics = run.report(workload, runner, samples, wanted)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, printed.getvalue()


def check_result(result: dict, printed: str, wanted: list[dict], where: str) -> list[str]:
    errors = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: failed checks: {result}")
    units = {m["name"]: m["unit"] for m in wanted}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != units:
        errors.append(f"{where}: metrics {reported} differ from BENCHMARK.json {units}")
    # A report line reads "[workload] name value unit IQR ... n=...".
    shown = {fields[1]: fields[3] for fields in map(str.split, printed.splitlines())}
    shown.pop("fail_ratio", None)
    if shown != units:
        errors.append(f"{where}: printed {shown}, BENCHMARK.json names {units}")
    return errors


def check_counts(workload: str, first: dict, second: dict, wanted: list[dict]) -> list[str]:
    errors = []
    expected = EXPECTED_COUNTS[workload]
    for m in wanted:
        name = m["name"]
        if m["unit"] not in ("count", "bytes") or name.startswith("proc."):
            continue
        values = (first["metrics"][name]["value"], second["metrics"][name]["value"])
        if values != (expected.get(name, 0),) * 2:
            errors.append(f"{workload}: {name} reads {values}, expected {expected.get(name, 0)}")
    for m in wanted:
        name = m["name"]
        if m["unit"] != "s" or not name.startswith(LAYERS):
            continue
        value = first["metrics"][name]["value"]
        if (value > 0) != (name in EXPECTED_SPANS[workload]):
            errors.append(f"{workload}: {name} reads {value}")
    return errors


def check_tampering() -> list[str]:
    """Real outputs pass; each tampered one must fail its check and the digest."""
    errors = []
    with run.work_directory() as workdir:
        runner = run.Runner(workdir, time.perf_counter() + 170)
        for workload in workloads.WORKLOADS:
            cmds = workloads.commands(
                workload, workloads.REFERENCE_SCALE, workloads.REFERENCE_SEED, workdir
            )
            digests = workloads.reference_digests(workload)
            rep = runner.rep(cmds)
            if not runner.verify_rep(rep, cmds, digests):
                errors.append(f"{workload}: real output fails: {runner.failures}")
                continue
            for i, (proc, cmd) in enumerate(zip(rep.procs, cmds)):
                real = proc.out.read_bytes()
                proc.out.write_bytes(TAMPERS[workload, i](real))
                if runner.verify(proc, cmd.check):
                    errors.append(f"{workload}[{i}]: check accepts tampered output")
                proc.out.write_bytes(real.replace(b"1", b"2", 1))
                if runner.verify(proc, None, digests[i]):
                    errors.append(f"{workload}[{i}]: digest accepts tampered output")
    return errors


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads(run.SPEC.read_text())
    errors = check_tampering()
    for workload in workloads.WORKLOADS:
        plain, printed = bench(workload, False, spec["end_to_end"])
        errors += check_result(plain, printed, spec["end_to_end"], f"{workload} trace=0")
        traced = [bench(workload, True, spec["per_layer"]) for _ in range(2)]
        for result, printed in traced:
            errors += check_result(result, printed, spec["per_layer"], f"{workload} trace=1")
        errors += check_counts(workload, traced[0][0], traced[1][0], spec["per_layer"])
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
