#!/usr/bin/env python3
"""pseudospec benchmark: one workload per process, through ``cli.main``.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src/``.
The workload's command is called repeatedly for about `--seconds` seconds,
each call with the next CLI seed of the pool as ordered by `--seed`
(see workloads.py).  Every call's CSV/JSON outputs are checked against the
reference recorded at the seed commit (outputs.py); a call that exits
nonzero or leaves an output outside tolerance fails all its samples.

--trace 0 reports the end-to-end metrics.  Sample times come from the yields
of ``cli.iter_summaries`` (batch commands) or from entry and exit of
``independence.verify_r_independence`` (verify-indep, whose samples are the
2^16 codewords one call draws); nothing else is instrumented.

--trace 1 reports the per-layer metrics.  Calls alternate between traced
(every public function of the seven modules wrapped, tracer.py) and
untraced; the wrappers are removed, and checked to be gone, before every
untraced call.  The ratio of the two wall times is trace.overhead_ratio.

--workload all runs every workload in its own process and prints every
metric by name with its unit; it exits nonzero if any sample failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The benchmark sets no BLAS or
PSEUDOSPEC_THREADS variable; it records them in the environment line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from outputs import compare, load_reference, read_outputs, reference_path  # noqa: E402
from tracer import Probe, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS, Workload, seed_order  # noqa: E402

LAYERS = ("gf2m", "codes", "ensembles", "spectral", "laws", "independence", "cli")
ACCOUNTING_TOLERANCE = 0.02   # traced self times vs traced wall time
MIN_CALLS = 3                 # so setup_s is a median even on short runs
FLOOR_SECONDS = 0.5           # minimum time spent on the eigvalsh floor
CALIBRATION_REFERENCE_S = 0.010  # one calibration pass on the reference machine
CALIBRATION_PASSES = 3           # before every call; their median is the speed then

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "sample_ms_p50": "ms",
    "sample_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# program under test
# ---------------------------------------------------------------------------

def import_program() -> dict:
    """The seven pseudospec modules, imported from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "pseudospec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pseudospec package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"pseudospec.{name}") for name in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: pseudospec imported from {origin}, not {src}")
    return mods


def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PSEUDOSPEC_THREADS")},
    }


def calibration_s() -> float:
    """Median time of a fixed kernel: the machine's speed at this moment.

    The kernel is interpreter work plus small numpy operations, the kind of
    work that dominates most workloads.  It does no BLAS work, so BLAS or
    thread settings changed by the program cannot move it.
    """
    v = np.asarray(0.5)
    times = []
    for _ in range(CALIBRATION_PASSES):
        t0 = time.perf_counter()
        acc = 0
        for j in range(100_000):
            acc += j
        for _ in range(1_000):
            np.sqrt(np.clip((2.0 - v) * (v - 0.1), 0.0, None)) / (2.0 * math.pi * v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one call of the workload's command
# ---------------------------------------------------------------------------

@dataclass
class Call:
    cli_seed: int
    start: float
    end: float
    samples: int
    events: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    def __init__(self, mods: dict, workload: Workload, workdir: Path, reference: dict):
        self.mods = mods
        self.cli = mods["cli"]
        self.workload = workload
        self.workdir = workdir
        self.reference = reference

    def samples_per_call(self) -> int:
        if self.workload.batch:
            return self.workload.count
        return self.mods["independence"].SAMPLE_WORDS

    def probe(self) -> Probe:
        probe = Probe()
        if self.workload.batch:
            probe.yields(self.cli, "iter_summaries")
        else:
            probe.entry_exit(self.mods["independence"], "verify_r_independence")
        return probe

    def execute(self, cli_seed: int, probe: Probe | None = None):
        """Run the command once: (exit code, stdout, stderr, start, end, outdir)."""
        outdir = self.workdir / f"seed{cli_seed}" if self.workload.batch else None
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        argv = self.workload.command(cli_seed, None if outdir is None else str(outdir))
        stdout, stderr = io.StringIO(), io.StringIO()
        if probe is not None:
            probe.events.clear()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed call, reported by the caller
                rc = traceback.format_exc(limit=3)
            end = time.perf_counter()
        return rc, stdout.getvalue(), stderr.getvalue(), start, end, outdir

    def call(self, cli_seed: int, probe: Probe | None = None) -> Call:
        """Run the command once and check its outputs (outside the timing)."""
        rc, stdout, stderr, start, end, outdir = self.execute(cli_seed, probe)
        c = Call(cli_seed, start, end, self.samples_per_call(),
                 list(probe.events) if probe is not None else [])
        if rc != 0:
            c.problems.append(f"exit {rc!r}: {stderr.strip()[-300:]}")
        else:
            ref = self.reference[str(cli_seed)]
            c.problems += compare(ref["outputs"], read_outputs(outdir, stdout))
        if probe is not None and not self.sample_marks(c):
            c.problems.append("no sample events recorded")
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        return c

    def sample_marks(self, c: Call) -> list[float]:
        kind = "yield" if self.workload.batch else "enter"
        return [t for k, t in c.events if k == kind]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(runner: Runner, calls: list[Call], speeds: list[float] | None = None) -> dict:
    """samples_per_s, sample_ms_p50/p95 and setup_s from probed calls.

    A call's steady part runs from its first sample to its return, so it
    includes the CLI's per-sample and final writing work; samples_per_s is
    the median over calls of steady samples per steady second.  Each call's
    setup time is multiplied by its `speeds` entry (see run_untraced), and
    so are its sample times unless the workload is BLAS-bound.
    """
    setups, sample_ms, rates = [], [], []
    for c, speed in zip(calls, speeds or [1.0] * len(calls)):
        sample_speed = 1.0 if runner.workload.blas_bound else speed
        if runner.workload.batch:
            marks = runner.sample_marks(c)
            if not marks:
                continue
            setups.append((marks[0] - c.start) * speed)
            sample_ms += list(np.diff(marks) * 1e3 * sample_speed)
            rates.append((len(marks) - 1) / ((c.end - marks[0]) * sample_speed))
        else:
            enter = [t for k, t in c.events if k == "enter"]
            leave = [t for k, t in c.events if k == "exit"]
            if not enter or not leave:
                continue
            setups.append((enter[0] - c.start) * speed)
            sample_ms.append((leave[-1] - enter[0]) * 1e3 * sample_speed / c.samples)
            rates.append(c.samples / ((c.end - enter[0]) * sample_speed))
    if not sample_ms:
        return {}
    return {
        "samples_per_s": statistics.median(rates),
        "sample_ms_p50": percentile(sample_ms, 50),
        "sample_ms_p95": percentile(sample_ms, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_sample_times": len(sample_ms),
    }


def eigvalsh_floor_ms(order: int, seed: int) -> float:
    """Median raw numpy.linalg.eigvalsh time on a same-order symmetric matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((order, order))
    A = (A + A.T) / 2.0
    np.linalg.eigvalsh(A)  # first call pays workspace and thread start-up
    times: list[float] = []
    t_end = time.perf_counter() + FLOOR_SECONDS
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        np.linalg.eigvalsh(A)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(tracer: Tracer, traced: list[Call], untraced: list[Call],
              e2e: dict, floor_ms: float | None) -> dict:
    stats = tracer.stats()
    ncalls = len(traced)
    wall_s = sum(c.wall for c in traced)
    nsamples = sum(c.samples for c in traced)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def total_ms(*names):
        return sum(stats[n].total_ns for n in names if n in stats) / 1e6

    def self_ms(*names):
        return sum(stats[n].self_ns for n in names if n in stats) / 1e6

    def per_call(ms, *names):
        n = calls(*names)
        return ms / n if n else 0.0

    layer_self_ms = {layer: self_ms(*(n for n in stats if layer_of(n) == layer))
                     for layer in LAYERS}
    eig_ms = per_call(total_ms("spectral.symmetric_eigen"), "spectral.symmetric_eigen")
    trace_moment = ("spectral.trace_moment", "spectral.SpectralSummary.trace_moment")
    offered = tracer.counters["bits_offered"]
    m = {
        "gf2m.poly_divmod.ms": total_ms("gf2m.poly_divmod") / ncalls,
        "gf2m.minimal_polynomial.ms": total_ms("gf2m.minimal_polynomial") / ncalls,
        "gf2m.poly_mul.calls": calls("gf2m.poly_mul") / ncalls,
        "gf2m.poly_mul.ms": total_ms("gf2m.poly_mul") / ncalls,
        "codes.bch_generator.ms": total_ms("codes.bch_generator") / ncalls,
        "codes.dual_code.ms": total_ms("codes.dual_code") / ncalls,
        "codes.message_for_index.ms_per_call":
            per_call(total_ms("codes.message_for_index"), "codes.message_for_index"),
        "codes.encode.self_ms_per_call": per_call(self_ms("codes.encode"), "codes.encode"),
        "codes.word_to_bits.ms_per_call":
            per_call(total_ms("codes.word_to_bits"), "codes.word_to_bits"),
        "codes.bits_used_ratio": tracer.counters["bits_packed"] / offered if offered else 0.0,
    }
    for name in ("pack_symmetric", "scaled_wigner", "pack_rect", "scm"):
        span = f"ensembles.{name}"
        m[f"{span}.ms_per_call"] = per_call(total_ms(span), span)
    m.update({
        "spectral.symmetric_eigen.ms_per_call": eig_ms,
        "spectral.eigvalsh_floor.ms": floor_ms or 0.0,
        "spectral.validation_ms_per_call": eig_ms - floor_ms if floor_ms else 0.0,
        "spectral.eig_floor_ratio":
            e2e["sample_ms_p50"] / floor_ms if floor_ms and e2e else 0.0,
        "spectral.ks_distance.self_ms_per_call":
            per_call(self_ms("spectral.ks_distance"), "spectral.ks_distance"),
        "spectral.trace_moment.calls": calls(*trace_moment) / ncalls,
        "spectral.trace_moment.ms_per_call": per_call(total_ms(*trace_moment), *trace_moment),
        "laws.mp_cdf.ms_per_call": per_call(total_ms("laws.mp_cdf"), "laws.mp_cdf"),
        "laws.mp_cdf.points_per_call":
            per_call(tracer.counters["mp_cdf_points"], "laws.mp_cdf"),
        "independence.verify_r_independence.self_ms":
            self_ms("independence.verify_r_independence") / ncalls,
        "cli.self_ms_per_sample": layer_self_ms["cli"] / nsamples,
    })
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self_ms[layer] / (wall_s * 1e3)
    m["trace.overhead_ratio"] = wall_s / sum(c.wall for c in untraced) if untraced else 0.0
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".points_per_call"):
        return "points"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "ms"


def tracer_hooks() -> dict:
    def pack(counters, args):
        N = args["N"]
        counters["bits_packed"] += N * (N + 1) // 2 if "p" not in args else N * args["p"]
        counters["bits_offered"] += int(np.size(args["word_bits"]))

    def points(counters, args):
        counters["mp_cdf_points"] += int(np.size(args["x"]))

    return {"ensembles.pack_symmetric": pack, "ensembles.pack_rect": pack,
            "laws.mp_cdf": points}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def seeds_for(seed: int):
    while True:
        yield from seed_order(seed)


class Budget:
    """Run length: start another round only while a median-length one fits.

    A round is everything between two `more` checks (calibration, call,
    output check), so a run ends close to its `seconds`.
    """

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.rounds: list[float] = []
        self._last: float | None = None

    def more(self, minimum: int) -> bool:
        now = time.perf_counter()
        if self._last is not None:
            self.rounds.append(now - self._last)
        self._last = now
        return len(self.rounds) < minimum or now + statistics.median(self.rounds) <= self.end


def run_untraced(runner: Runner, seed: int, seconds: float):
    """Probed calls, each timed at reference machine speed.

    The machine's speed drifts by up to 1.9x over minutes on shared hosts.
    A calibration kernel timed before each call and after the last tells
    how fast the machine ran around each call; the call's times are scaled
    by CALIBRATION_REFERENCE_S over the mean of the two calibrations.
    """
    calls, calibrations = [], []
    seeds = seeds_for(seed)
    budget = Budget(seconds)
    while budget.more(MIN_CALLS):
        calibrations.append(calibration_s())
        probe = runner.probe()
        try:
            calls.append(runner.call(next(seeds), probe))
        finally:
            probe.uninstall()
    calibrations.append(calibration_s())
    speeds = [2 * CALIBRATION_REFERENCE_S / (a + b)
              for a, b in zip(calibrations, calibrations[1:])]
    raw = end_to_end(runner, calls)
    raw.pop("_sample_times", None)
    checks = {"machine_speed": statistics.median(speeds),
              **{f"raw {k}": v for k, v in raw.items()}}
    return calls, end_to_end(runner, calls, speeds), checks


def run_traced(runner: Runner, seed: int, seconds: float):
    """Alternate traced and untraced calls on the same CLI seeds."""
    tracer = Tracer([runner.mods[name] for name in LAYERS], tracer_hooks())
    traced, untraced, checks = [], [], {"wrappers_removed": True}
    seeds = seeds_for(seed)
    budget = Budget(seconds)
    while checks["wrappers_removed"] and budget.more(2):
        cli_seed = next(seeds)
        for traced_turn in ((True, False) if len(traced) % 2 == 0 else (False, True)):
            if traced_turn:
                tracer.install()
                try:
                    traced.append(runner.call(cli_seed))
                finally:
                    tracer.uninstall()
                checks["wrappers_removed"] &= tracer.restored()
            elif checks["wrappers_removed"]:
                probe = runner.probe()
                try:
                    untraced.append(runner.call(cli_seed, probe))
                finally:
                    probe.uninstall()
    # every traced microsecond on the main thread belongs to some span, so
    # self times summed over all layers must come back to the traced wall time
    wall = sum(c.wall for c in traced)
    accounted = sum(st.self_ns for st in tracer.main.values()) / 1e9
    checks["accounting_gap"] = abs(accounted - wall) / wall
    checks["accounting_ok"] = checks["accounting_gap"] <= ACCOUNTING_TOLERANCE
    checks["wrapped callables"] = tracer.wrapped_count
    e2e = end_to_end(runner, untraced)
    w = runner.workload
    floor = eigvalsh_floor_ms(w.eig_order, seed) if w.eig_order else None
    return traced + untraced, per_layer(tracer, traced, untraced, e2e, floor), checks


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if not reference_path(BENCH, workload.name).is_file():
        raise SystemExit(f"perfbench: missing reference for {workload.name}")
    mods = import_program()
    env = environment()
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(mods, workload, workdir,
                        load_reference(BENCH, workload.name)["calls"])
        run = run_traced if args.trace else run_untraced
        calls, metrics, checks = run(runner, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(c.samples for c in calls)
    failed = sum(c.samples for c in calls if c.problems)
    sample_times = metrics.pop("_sample_times", None)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {len(calls)} calls"
          + (" (traced and untraced)" if args.trace else "") + f", {attempted} samples"
          + (f", {sample_times} sample times" if sample_times else ""))
    for c in calls:
        for problem in c.problems[:5]:
            print(f"  FAIL cli seed {c.cli_seed}: {problem}")
    for key, value in checks.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit_of(name)}")
    print(f"  error_rate {failed / attempted if attempted else 1.0:.6g} ratio")
    correct = (failed == 0 and attempted > 0 and bool(metrics)
               and checks.get("wrappers_removed", True) and checks.get("accounting_ok", True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int):
    """One workload run in a fresh process: (completed process, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def run_all(args) -> int:
    """Every workload in a fresh process; nonzero exit on any failure."""
    ok, crashed, attempted, failed, merged = True, False, 0, 0, {}
    for name in WORKLOADS:
        proc, result = run_child(name, args.seed, args.seconds, args.trace)
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        if result is None:
            print(proc.stderr.strip()[-2000:])
            crashed = True
            continue
        ok &= result["correct"] and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    if crashed:
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
