#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and trajectory entries.

    python3 perfbench/spread.py --runs 10 [--workload <name> ...] [--seconds 30]
                                [--record <label> --commit <hash>]

Runs each workload `--runs` times, each run a fresh `run.py` process with its
own seed (1, 2, ...), and prints per metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  With `--record`, it also makes one traced run per
workload and appends an entry with the medians, quartiles and per-layer
numbers to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import BENCH, ROOT, environment, run_child
from workloads import WORKLOADS


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc, result = run_child(name, seed, seconds, trace)
    if result is None:
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: incorrect run\n{proc.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", help="append a trajectory entry")
    parser.add_argument("--commit", help="commit the entry measures (with --record)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    entry = {"label": args.record, "commit": args.commit,
             "date": time.strftime("%Y-%m-%d"), "run_seconds": seconds,
             "environment": environment(), "workloads": {}}
    worst = 0.0
    for name in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(name, seed, seconds, 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"== {name} ({args.runs} runs of {seconds:g} s)")
        summary = {}
        for metric, vals in values.items():
            s = summary[metric] = summarize(vals)
            bound = bounds[metric]
            flag = "" if s["spread"] < bound / 3 else "  <-- above a third of the bound"
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"  {metric:15s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
        entry["workloads"][name] = {"end_to_end": summary}
        if args.record:
            traced = one_run(name, args.first_seed, seconds, 1)
            entry["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        path = BENCH / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
        print(f"appended '{args.record}' to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
