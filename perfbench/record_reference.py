#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every call against.

    python3 perfbench/record_reference.py --commit <git hash> [--workload <name> ...]

Runs each workload's command once per CLI seed of the pool (workloads.POOL)
and stores every CSV/JSON output in ``perfbench/reference/<workload>.json.gz``.
The references were recorded at the seed commit; re-record them only in a
change that means to alter the program's outputs, and say so.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from outputs import RTOL, read_outputs, save_reference
from run import BENCH, ROOT, Runner, environment, import_program
from workloads import POOL, WORKLOADS


def record(mods, name: str, commit: str) -> None:
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench-work" / f"record-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    calls = {}
    try:
        runner = Runner(mods, workload, workdir, reference={})
        for cli_seed in POOL:
            rc, stdout, stderr, start, end, outdir = runner.execute(cli_seed)
            if rc != 0:
                raise SystemExit(f"{name} seed {cli_seed}: exit {rc!r}\n{stderr}")
            calls[str(cli_seed)] = {"rc": rc, "outputs": read_outputs(outdir, stdout)}
            print(f"{name} seed {cli_seed}: {end - start:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    save_reference(BENCH, name, {
        "workload": name,
        "command": workload.command(0, "OUT" if workload.batch else None),
        "commit": commit,
        "rtol": RTOL,
        "environment": environment(),
        "calls": calls,
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="commit the outputs come from")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    mods = import_program()
    for name in args.workload or WORKLOADS:
        record(mods, name, args.commit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
