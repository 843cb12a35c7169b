"""Reading a command's CSV/JSON outputs and comparing them with a reference.

Outputs are compared value by value with a relative tolerance, not by byte
digests: changing only the BLAS thread count moves wig180-norms norms by up
to 7.5e-15 relative and wig1024-moments values by up to 2.2e-12, while any
statistical effect is of order 1/sqrt(count) ~ 1e-2.  RTOL sits between.
Keys named in IGNORED_KEYS (timing and machine blocks a later change may add
to the JSON outputs) are skipped wherever they appear, as are files with
those stems.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
IGNORED_KEYS = frozenset({"timing", "environment"})
MAX_REPORTED = 5


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[list]:
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def read_outputs(outdir: Path | None, stdout: str) -> dict:
    """Every CSV and JSON file in `outdir`, plus stdout when it is JSON."""
    found = {}
    if outdir is not None:
        for path in sorted(outdir.iterdir()):
            if path.stem in IGNORED_KEYS:
                continue
            if path.suffix == ".csv":
                found[path.name] = parse_csv(path.read_text())
            elif path.suffix == ".json":
                found[path.name] = json.loads(path.read_text())
    try:
        found["stdout"] = json.loads(stdout)
    except ValueError:
        pass  # a human-readable summary line, not an output to check
    return found


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare(ref, got, where: str = "", out: list | None = None) -> list[str]:
    """Violations of `got` against `ref`, as readable strings (empty = match)."""
    out = [] if out is None else out
    if isinstance(ref, dict) and isinstance(got, dict):
        ref_keys = set(ref) - IGNORED_KEYS
        got_keys = set(got) - IGNORED_KEYS
        for key in sorted(ref_keys ^ got_keys):
            out.append(f"{where}/{key}: {'missing' if key in ref_keys else 'unexpected'}")
        for key in sorted(ref_keys & got_keys):
            compare(ref[key], got[key], f"{where}/{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)}, reference {len(ref)}")
        else:
            for i, (r, g) in enumerate(zip(ref, got)):
                compare(r, g, f"{where}[{i}]", out)
    elif (isinstance(ref, (int, float)) and isinstance(got, (int, float))
          and not isinstance(ref, bool) and not isinstance(got, bool)):
        if not _close(float(ref), float(got)):
            out.append(f"{where}: {got!r}, reference {ref!r}")
    elif ref != got:
        out.append(f"{where}: {got!r}, reference {ref!r}")
    return out


def reference_path(bench_dir: Path, workload: str) -> Path:
    return bench_dir / "reference" / f"{workload}.json.gz"


def load_reference(bench_dir: Path, workload: str) -> dict:
    with gzip.open(reference_path(bench_dir, workload), "rt") as fh:
        return json.load(fh)


def save_reference(bench_dir: Path, workload: str, payload: dict) -> None:
    path = reference_path(bench_dir, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the archive bytes a function of its contents
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(payload, sort_keys=True) + "\n").encode())
