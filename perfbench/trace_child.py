"""Run one `betlab` command with spans recorded around its layers.

    python -X importtime perfbench/trace_child.py SPANS_PATH RUN_ID -- ARGS...

`betlab.cli` is imported before anything else, so `-X importtime` charges the
whole import to it.  The public functions each layer calls are then replaced
with wrappers, under the names where the caller looks them up (grational's
`outcome_matrix` is its own binding, not wealthsim's), and `cli.run(ARGS)`
runs as the `betlab` command would.  When it returns, SPANS_PATH gets one
JSON line per span (name, start, end, parent index, run id) and a last line
with the counts and the time the script started.  Times are
`time.perf_counter()` values, a clock the parent shares.
"""

import sys
import time

STARTED = time.perf_counter()

import betlab.cli  # noqa: E402,F401  first import, see above

import inspect  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

from betlab import cli, games, grational, sysstats, wealthsim  # noqa: E402


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def span(self, name, fn, count=None):
        """Wrap `fn` in a span; after it, `count(bound arguments, result)`
        returns the counts to add."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                self.counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _grid_counts(arguments: dict, solution) -> dict[str, int]:
    points = solution.grid.f.size
    cells = arguments["budget"].n_paths * (arguments["problem"].n_steps + 1) * points
    return {"grational.grid_points": points, "grational.cells": cells}


# (module, attribute, span name, counts(bound arguments, result)).  The
# attribute is the name the caller looks up; one that a module no longer
# has is skipped, and its layer reads 0.
SPANS = [
    (grational, "outcome_matrix", "wealthsim.outcome_matrix", None),
    (wealthsim, "outcome_matrix", "wealthsim.outcome_matrix", None),
    (grational, "solve", "grational.solve", _grid_counts),
    (wealthsim, "simulate_paths", "wealthsim.simulate_paths", None),
    (wealthsim, "path_stats", "wealthsim.path_stats",
     lambda a, r: {"wealthsim.path_stats_calls": 1}),
    (wealthsim, "write_paths_csv", "wealthsim.write_paths_csv",
     lambda a, r: {"wealthsim.csv_rows": sum(p.log_wealth.size for p in a["paths"])}),
    (sysstats, "read_trades_csv", "sysstats.read_trades_csv",
     lambda a, r: {"sysstats.rows": len(r)}),
    (sysstats, "summarize", "sysstats.summarize", None),
    (sysstats, "ppgs_classify", "sysstats.ppgs_classify", None),
    (games, "play_match", "games.play_match", lambda a, r: {"games.rounds": r.n_rounds}),
    (games, "write_transcript_csv", "games.write_transcript_csv", None),
]
# Counted calls, without spans: random streams are built per path.
COUNTERS = [
    (wealthsim, "stream", "seeding.stream_calls"),
    (games, "stream", "seeding.stream_calls"),
]


def install(rec: Recorder) -> None:
    """Replace each layer's public entry points with recording wrappers."""
    for module, attr, name, count in SPANS:
        if hasattr(module, attr):
            setattr(module, attr, rec.span(name, getattr(module, attr), count))
    for module, attr, name in COUNTERS:
        if hasattr(module, attr):
            setattr(module, attr, rec.counter(name, getattr(module, attr)))


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_PATH RUN_ID -- ARGS...")
    rec = Recorder()
    install(rec)
    code = rec.span("cli.run", cli.run)(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        for name, start, end, parent in rec.spans:
            fh.write(json.dumps(
                {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
            ) + "\n")
        fh.write(json.dumps({"run": run_id, "started": STARTED, "counts": rec.counts}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
