"""Record the stdout digests of every workload's reference run.

    python3 perfbench/record_digests.py

Run it from the repository root, and only at a commit whose CLI output is the
reference: every later run of the benchmark fails a commit whose output
differs from what this writes to perfbench/digests.json.
"""

import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    digests: dict[str, list[str]] = {}
    with run.work_directory() as workdir:
        runner = run.Runner(workdir, time.perf_counter() + 600)
        for workload in workloads.WORKLOADS:
            cmds = workloads.commands(
                workload, workloads.REFERENCE_SCALE, workloads.REFERENCE_SEED, workdir
            )
            rep = runner.rep(cmds)
            if not runner.verify_rep(rep, cmds):
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            digests[workload] = [workloads.sha256(proc.out.read_bytes()) for proc in rep.procs]
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
