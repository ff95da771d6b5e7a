"""Cold-CLI benchmark of betlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measured unit is a cold `python -m
betlab.cli` process; the benchmark spawns them one at a time with
PYTHONPATH=src, one BLAS/OpenMP thread, no GRATIONAL_SEED and no other
PYTHON* setting, and reads each child's rusage with os.wait4.

A run first runs the workload once, untimed, at tiny size and the reference
seed, and checks stdout against recorded digests; that also writes
`__pycache__` and warms the page cache.  Then it writes the inputs for the
workload seed.

--trace 0 repeats a cold `import betlab.cli` process followed by the
workload until --seconds have passed, and reports the end-to-end metrics
named in BENCHMARK.json: the medians of the import's wall time, of the
workload's wall time and of its largest per-child peak RSS.

--trace 1 alternates untraced repetitions with traced ones, in which each
command runs under trace_child.py with -X importtime, and reports the
per-layer metrics named in BENCHMARK.json.

Every process's output is checked; the last stdout line is a JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs
every workload in turn and prefixes each metric with its workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads
from workloads import CheckFailed, Command

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
TRACE_CHILD = Path(__file__).with_name("trace_child.py")

# A run must end within 180 s; no repetition starts that could end later
# than this, and a child still running at it is killed.
RUN_LIMIT_S = 170.0


@dataclass
class Proc:
    start: float
    end: float
    status: int
    rusage: os.struct_rusage
    out: Path
    err: Path
    spans: Path | None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Rep:
    wall: float
    procs: list[Proc]


def child_env() -> dict[str, str]:
    """The caller's environment without GRATIONAL_SEED and PYTHON* settings.

    Dropping PYTHONUNBUFFERED and PYTHONDONTWRITEBYTECODE keeps stdout
    buffering and bytecode caching at Python's defaults, whoever runs this.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k != "GRATIONAL_SEED" and not k.startswith("PYTHON")
    }
    env.update(
        PYTHONPATH="src", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    return env


@contextmanager
def work_directory():
    """A scratch directory for this process's outputs, removed afterwards."""
    path = Path(__file__).with_name("work") / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def versions() -> dict[str, object]:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Runner:
    """Spawns children one at a time and tallies the outcome checks."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], name: str, spans: Path | None = None) -> Proc:
        out, err = self.workdir / f"{name}.out", self.workdir / f"{name}.err"
        fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (out, err)]
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *argv], self.env,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_DUP2, fds[0], 1),
                    (os.POSIX_SPAWN_DUP2, fds[1], 2),
                ],
            )
        finally:
            for fd in fds:
                os.close(fd)
        pidfd = os.pidfd_open(pid)
        exited = False
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            exited = bool(poller.poll(max(self.deadline - time.perf_counter(), 0.0) * 1000))
        finally:
            # Past the deadline, or interrupted: stop the child, then reap it.
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.close(pidfd)
            _, status, rusage = os.wait4(pid, 0)
        return Proc(start, time.perf_counter(), status, rusage, out, err, spans)

    def rep(self, cmds: list[Command], traced: bool = False) -> Rep:
        """Run the commands in order; wall time spans first spawn to last exit."""
        procs = []
        for i, cmd in enumerate(cmds):
            if traced:
                spans = self.workdir / f"{i}.spans"
                argv = ["-X", "importtime", str(TRACE_CHILD), str(spans), str(i), "--", *cmd.argv]
            else:
                spans, argv = None, ["-m", "betlab.cli", *cmd.argv]
            procs.append(self.spawn(argv, str(i), spans))
        return Rep(procs[-1].end - procs[0].start, procs)

    def verify(self, proc: Proc, check=None, digest: str | None = None) -> bool:
        """Count the process and check it; False if it failed."""
        self.attempted += 1
        try:
            code = os.waitstatus_to_exitcode(proc.status)
            err = proc.err.read_bytes()
            if code != 0:
                raise CheckFailed(f"exit code {code}: {err.decode(errors='replace')[-300:]}")
            if b"Traceback" in err:
                raise CheckFailed("traceback on stderr")
            out = proc.out.read_bytes()
            if check is not None:
                check(out)
            if digest is not None and workloads.sha256(out) != digest:
                raise CheckFailed("stdout differs from the reference digest")
        except (CheckFailed, ValueError, LookupError, TypeError) as exc:
            self.failures.append(f"{proc.out.stem}: {exc}")
            return False
        return True

    def verify_rep(self, rep: Rep, cmds: list[Command], digests=None) -> bool:
        results = [
            self.verify(proc, cmd.check, digests[i] if digests else None)
            for i, (proc, cmd) in enumerate(zip(rep.procs, cmds))
        ]
        return all(results)

    def repeat(self, seconds: float, body) -> None:
        """Call body() at least once, and again until `seconds` have passed."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            body()
            now = time.perf_counter()
            if now - start >= seconds or now + (now - t) > self.deadline:
                return


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds importing `betlab.cli`, and the part of that under scipy.stats.

    -X importtime prints each module after its children, indented two
    spaces per level.  scipy loads `scipy.stats` through importlib, which
    is not logged, so its submodules appear directly under the importer;
    the scipy.stats share is the sum over the outermost `scipy.stats.*`
    entries below `betlab.cli`.
    """
    pending: list[tuple[int, int]] = []  # (depth, scipy.stats microseconds)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, field = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        below = 0
        while pending and pending[-1][0] > depth:
            below += pending.pop()[1]
        in_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        pending.append((depth, int(cumulative) if in_stats else below))
        if depth == 0 and name == "betlab.cli":
            return int(cumulative) / 1e6, pending[-1][1] / 1e6
    raise CheckFailed("no betlab.cli line in -X importtime output")


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer times and counts of one traced repetition, summed over its processes.

    A span's `<name>_s` is its duration and `<name>_self_s` that minus the
    spans directly below it.  `proc.start_s` runs from spawn to the first
    line of trace_child.py and `proc.exit_s` from the end of `cli.run` to
    the exit.  With the import they cover the traced wall time by
    construction; `trace.unattributed_s` is the rest, trace_child.py's own
    imports and the installing of its wrappers.
    """
    totals: dict[str, float] = defaultdict(int)
    for proc in rep.procs:
        *lines, last = proc.spans.read_text().splitlines()
        spans = [json.loads(line) for line in lines]  # spans[0] is cli.run
        tail = json.loads(last)
        below = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                below[s["parent"]] += s["end"] - s["start"]
        for s, b in zip(spans, below):
            totals[s["name"] + "_s"] += s["end"] - s["start"]
            totals[s["name"] + "_self_s"] += s["end"] - s["start"] - b
        for name, n in tail["counts"].items():
            totals[name] += n
        import_s, stats_s = parse_importtime(proc.err.read_text())
        totals["cli.import_s"] += import_s
        totals["cli.import_scipy_stats_s"] += stats_s
        totals["proc.start_s"] += tail["started"] - proc.start
        totals["proc.exit_s"] += proc.end - spans[0]["end"]
    totals["grational.kernel_self_s"] = totals["grational.solve_self_s"]
    totals["grational.bytes_computed"] = 8 * totals["grational.cells"]  # float64 log wealth
    totals["trace.wall_s"] = rep.wall
    totals["trace.unattributed_s"] = rep.wall - sum(
        totals[name] for name in ("proc.start_s", "cli.import_s", "cli.run_s", "proc.exit_s")
    )
    return totals


def proc_metrics(rep: Rep) -> dict[str, float]:
    return {
        "proc.user_s": sum(p.rusage.ru_utime for p in rep.procs),
        "proc.sys_s": sum(p.rusage.ru_stime for p in rep.procs),
        "proc.minflt": sum(p.rusage.ru_minflt for p in rep.procs),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str,
          workdir: Path, names: list[str]):
    """Run one workload; returns (runner, {metric name: samples})."""
    runner = Runner(workdir, time.perf_counter() + RUN_LIMIT_S)
    ref = workloads.commands(
        workload, workloads.REFERENCE_SCALE, workloads.REFERENCE_SEED, workdir
    )
    runner.verify_rep(runner.rep(ref), ref, workloads.reference_digests(workload))
    cmds = workloads.commands(workload, scale, seed, workdir)
    samples: dict[str, list[float]] = defaultdict(list)

    if not trace:
        # One cold import before each repetition spreads the setup samples
        # over the window, as the workload's are.
        def timed() -> None:
            proc = runner.spawn(["-c", "import betlab.cli"], "setup")
            if runner.verify(proc):
                samples["setup_s"].append(proc.wall)
            rep = runner.rep(cmds)
            if runner.verify_rep(rep, cmds):
                samples["wall_s"].append(rep.wall)
                samples["peak_rss_mb"].append(max(p.rusage.ru_maxrss for p in rep.procs) / 1024)

        runner.repeat(seconds, timed)
        return runner, samples

    def pair() -> None:
        plain, traced = runner.rep(cmds), runner.rep(cmds, traced=True)
        ok = [runner.verify_rep(plain, cmds), runner.verify_rep(traced, cmds)]
        if all(ok):
            values = {
                **proc_metrics(plain),
                **layer_metrics(traced),
                "trace.overhead_s": traced.wall - plain.wall,
            }
            for name in names:  # a layer the workload does not run reads 0
                samples[name].append(values.get(name, 0))

    runner.repeat(seconds, pair)
    return runner, samples


def report(workload: str, runner: Runner, samples: dict[str, list[float]],
           wanted: list[dict], prefix: str = "") -> dict[str, dict]:
    """Print the workload's fail ratio and metrics; return the metrics for the result line."""
    print(f"[{workload}] {'fail_ratio':28s} {len(runner.failures) / runner.attempted:14.6g} "
          f"{'ratio':6s} {len(runner.failures)} failed of {runner.attempted} processes")
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"], [])
        value = median(values)
        print(f"[{workload}] {m['name']:28s} {value:14.6g} {m['unit']:6s} "
              f"IQR {iqr(values):.4g} n={len(values)}")
        metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "betlab" / "cli.py").is_file():
        print(f"error: no betlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # SIGTERM unwinds like an exception, so the running child is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    # The versions go on this header line: the result line's keys are fixed.
    print(f"betlab perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in versions().items()))
    attempted = 0
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for workload in chosen:
        with work_directory() as workdir:
            runner, samples = bench(
                workload, args.seed, args.seconds, bool(args.trace), "full", workdir, names
            )
        attempted += runner.attempted
        failures += [f"{workload} {f}" for f in runner.failures]
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update(report(workload, runner, samples, wanted, prefix))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
