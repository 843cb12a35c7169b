"""Self-tests of the benchmark harness (not part of the program's suite).

    python3 -m pytest -q perfbench

They run a small norms command through the same Runner, Tracer and Probe
the benchmark uses, with no reference (outputs are not checked here).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from outputs import compare, parse_csv  # noqa: E402
from run import LAYERS, Runner, import_program, tracer_hooks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

SMALL = Workload(
    name="small-norms",
    argv=("norms", "--kind", "pseudo-wigner", "--m", "10", "--delta", "15", "--N", "44"),
    count=40, batch=True, eig_order=44,
)


@pytest.fixture(scope="module")
def mods():
    return import_program()


@pytest.fixture()
def runner(mods, tmp_path_factory):
    workdir = Path(tmp_path_factory.mktemp("perfbench"))
    yield Runner(mods, SMALL, workdir, reference={})
    shutil.rmtree(workdir, ignore_errors=True)


def snapshot(mods) -> dict:
    out = {}
    for name in LAYERS:
        module = mods[name]
        out[module] = dict(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                out[obj] = dict(vars(obj))
    return out


def test_uninstall_restores_every_attribute(mods, runner):
    before = snapshot(mods)
    tracer = Tracer([mods[n] for n in LAYERS], tracer_hooks())
    tracer.install()
    try:
        assert mods["codes"].encode is not before[mods["codes"]]["encode"]
        runner.execute(1)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = snapshot(mods)
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr} still wrapped"
    assert tracer.stats()["codes.encode"].calls == SMALL.count


def test_self_times_account_for_traced_wall_time(mods, runner):
    tracer = Tracer([mods[n] for n in LAYERS], tracer_hooks())
    tracer.install()
    try:
        rc, _, _, start, end, _ = runner.execute(2)
    finally:
        tracer.uninstall()
    assert rc == 0
    accounted = sum(st.self_ns for st in tracer.main.values()) / 1e9
    assert abs(accounted - (end - start)) / (end - start) < 0.02
    layers = {name.split(".")[0] for name in tracer.main}
    assert {"gf2m", "codes", "ensembles", "spectral", "cli"} <= layers
    assert tracer.counters["bits_packed"] == SMALL.count * 44 * 45 // 2


def test_probe_times_every_sample(mods, runner):
    probe = runner.probe()
    try:
        rc, *_ = runner.execute(3, probe)
    finally:
        probe.uninstall()
    assert rc == 0
    assert probe.restored()
    assert [k for k, _ in probe.events] == ["yield"] * SMALL.count


def test_compare_tolerates_blas_drift_only():
    ref = {"norm": [1.0, 0.5], "timing": {"s": 1}, "csv": parse_csv("a,b\n1.5,2e-3\n")}
    drift = {"norm": [1.0 + 2e-12, 0.5], "csv": parse_csv("a,b\n1.5000000000001,2e-3\n")}
    assert compare(ref, drift) == []
    assert compare(ref, {**drift, "norm": [1.0 + 1e-6, 0.5]})
    assert compare(ref, {**drift, "extra": 1})
    assert compare(ref, {**drift, "timing": {"s": 2}, "environment": {}}) == []
