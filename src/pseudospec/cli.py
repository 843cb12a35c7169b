"""Command-line experiment driver.

Subcommands: genpoly, dual, sample, norms, esd, moments, verify-indep.
Every artifact-writing command drops exactly one ``config.json`` sidecar in
the output directory holding the full parameter set and library version,
so any run can be replayed; replays produce byte-identical CSV output
(samples are processed serially in index order, and sample i depends only
on (seed, i), so any prefix of a batch reproduces).

Exit codes: 0 success / verification pass, 1 verification fail, 2 invalid
input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, codes, ensembles, gf2m, independence, laws, spectral
from .errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    NumericalFailureError,
)

DEFAULT_EPSILON = 0.1
CHECKPOINT_EVERY = 1000


# ---------------------------------------------------------------------------
# batch engine (also used directly by the verification suite)
# ---------------------------------------------------------------------------

def iter_summaries(spec: ensembles.EnsembleSpec, count: int):
    """Spectral summaries of a matrix batch, in sample-index order.

    Packed matrices are symmetric and finite by construction, so they go
    to the eigensolver without ``symmetric_eigen``'s input check.
    """
    for M in ensembles.matrix_stream(spec, count):
        yield spectral.symmetric_eigen_unchecked(M)


def scaled_norm(spec: ensembles.EnsembleSpec, summary: spectral.SpectralSummary) -> float:
    """The norm statistic expected to concentrate at 1 for this kind."""
    if spec.kind in ensembles.WIGNER_KINDS:
        return summary.norm
    return summary.norm / (1.0 + math.sqrt(spec.gamma)) ** 2


def _log_divisor(N: int, epsilon: float) -> float:
    """log^(1+epsilon) N, natural log, rejected unless positive and finite."""
    if N < 2:
        raise InvalidInputError(
            f"the norm deviation divides by log N, so needs N >= 2, got N={N}"
        )
    try:
        divisor = math.log(N) ** (1.0 + epsilon)
    except OverflowError:
        divisor = math.inf
    if not 0.0 < divisor < math.inf:
        raise InvalidInputError(
            f"epsilon={epsilon} puts log^(1+epsilon) N outside the positive "
            f"floating-point range at N={N}"
        )
    return divisor


def norm_deviation(spec: ensembles.EnsembleSpec, norm: float, epsilon: float) -> float:
    """(norm - 1) * N^min(rho, 2/3) / log^(1+epsilon) N, natural log."""
    divisor = _log_divisor(spec.N, epsilon)
    rho = spec.rho if spec.rho is not None else float("inf")
    exponent = min(rho, 2.0 / 3.0)
    return (norm - 1.0) * spec.N**exponent / divisor


def law_for(spec: ensembles.EnsembleSpec):
    if spec.kind in ensembles.WIGNER_KINDS:
        return laws.SemicircleLaw()
    return laws.MarchenkoPasturLaw(spec.gamma)


def ks_band(spec: ensembles.EnsembleSpec) -> float:
    """max(1/r, 2/sqrt(N)): the independence bound plus a finite-size floor."""
    floor = 2.0 / math.sqrt(spec.N)
    if spec.r is None:
        return floor
    return max(1.0 / spec.r, floor)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _prepare_outdir(out: str | None) -> Path:
    outdir = Path(out) if out else Path.cwd()
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_sidecar(outdir: Path, args) -> None:
    """config.json: the command and every parsed flag but --out, for replay."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out")}
    payload = {"command": args.command, "version": __version__, "params": params}
    (outdir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spec_from_args(args) -> ensembles.EnsembleSpec:
    # matrix_stream checks the count too, but only once iterated: too late
    # for a command that has already created its output file
    if args.count < 1:
        raise InvalidInputError(f"--count must be >= 1, got {args.count}")
    return ensembles.ensemble_spec(
        kind=args.kind, N=args.N, p=args.p, m=args.m, delta=args.delta,
        seed=args.seed, gamma=args.gamma,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _dual_from_args(args) -> codes.DualCode:
    """Dual of the BCH code named by exactly one of --delta and --k."""
    delta = args.delta
    if args.k is not None:
        if delta is not None:
            raise InvalidInputError("give either --delta or --k, not both")
        delta = codes.delta_for_dimension(args.m, args.k)
    elif delta is None:
        raise InvalidInputError(f"{args.command} needs --delta or --k")
    return codes.dual_code(codes.bch_generator(args.m, delta))


def cmd_genpoly(args) -> int:
    payload = _dual_from_args(args).to_json_dict()
    payload["requested_delta"] = args.delta
    payload["requested_k"] = args.k
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_dual(args) -> int:
    dual = _dual_from_args(args)
    payload = {
        "n": dual.n,
        "k_dual": dual.k_dual,
        "dual_generator_hex": gf2m.poly_to_hex(dual.generator),
        "base": dual.base.to_json_dict(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_sample(args) -> int:
    if args.delta is None:
        raise InvalidInputError("sample needs --delta")
    dual = codes.dual_code(codes.bch_generator(args.m, args.delta))
    words = codes.sample_codewords(dual, args.count, args.seed)
    outdir = _prepare_outdir(args.out)
    codes.save_codewords(outdir / "codewords.bin", words, dual.n)
    _write_sidecar(outdir, args)
    print(f"wrote {len(words)} codewords of length {dual.n} to {outdir}")
    return 0


def cmd_norms(args) -> int:
    spec = _spec_from_args(args)
    _log_divisor(spec.N, args.epsilon)  # reject N and epsilon before any output
    outdir = _prepare_outdir(args.out)
    norms: list[float] = []
    with open(outdir / "norms.csv", "w") as fh:
        fh.write("norm\n")
        for i, summary in enumerate(iter_summaries(spec, args.count)):
            v = scaled_norm(spec, summary)
            norms.append(v)
            fh.write(repr(v) + "\n")
            if (i + 1) % CHECKPOINT_EVERY == 0:
                fh.flush()
                print(f"  {i + 1}/{args.count} norms", file=sys.stderr)
    arr = np.asarray(norms)
    devs = [norm_deviation(spec, v, args.epsilon) for v in norms]
    density, edges = np.histogram(arr, bins="fd", density=True)
    summary_payload = {
        "count": args.count,
        "epsilon": args.epsilon,
        "norm_mean": float(arr.mean()),
        "norm_std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "norm_min": float(arr.min()),
        "norm_max": float(arr.max()),
        "deviation_mean": float(np.mean(devs)),
        "deviation_abs_mean": float(np.mean(np.abs(devs))),
        "deviation_max": float(np.max(devs)),
        "deviation_per_sample": devs,
        "histogram": {"edges": edges.tolist(), "density": density.tolist()},
        "ensemble": spec.to_json_dict(),
        "version": __version__,
    }
    try:
        text = json.dumps(summary_payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise InvalidInputError(
            f"epsilon={args.epsilon} makes a deviation summary non-finite; "
            "summary.json not written"
        ) from None
    (outdir / "summary.json").write_text(text + "\n")
    _write_sidecar(outdir, args)
    print(f"norm mean {arr.mean():.6f} over {args.count} samples -> {outdir}")
    return 0


def cmd_esd(args) -> int:
    spec = _spec_from_args(args)
    law = law_for(spec)
    band = ks_band(spec)
    outdir = _prepare_outdir(args.out)
    ks_values: list[float] = []
    with open(outdir / "eigenvalues.csv", "w") as fh:
        for summary in iter_summaries(spec, args.count):
            fh.write(",".join(map(repr, summary.eigenvalues.tolist())) + "\n")
            ks_values.append(spectral.ks_distance(summary, law))
    ks_arr = np.asarray(ks_values)
    payload = {
        "law": law.kind,
        "gamma": spec.gamma,
        "band": band,
        "fraction_within_band": float(np.mean(ks_arr <= band)),
        "ks_mean": float(ks_arr.mean()),
        "ks_max": float(ks_arr.max()),
        "ks_per_sample": ks_values,
        "ensemble": spec.to_json_dict(),
        "version": __version__,
    }
    (outdir / "ks.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_sidecar(outdir, args)
    print(f"KS mean {ks_arr.mean():.4f}, {100 * np.mean(ks_arr <= band):.1f}% within "
          f"{band:.4f} -> {outdir}")
    return 0


def cmd_moments(args) -> int:
    if args.s_max < 1:
        raise InvalidInputError("--s-max must be >= 1")
    spec = _spec_from_args(args)
    law = law_for(spec)
    wigner = spec.kind in ensembles.WIGNER_KINDS
    outdir = _prepare_outdir(args.out)
    orders = range(1, args.s_max + 1)
    sums = np.zeros(args.s_max)
    for summary in iter_summaries(spec, args.count):
        sums += [summary.trace_moment(s) for s in orders]
    means = sums / args.count
    with open(outdir / "moments.csv", "w") as fh:
        header = "s,sample_mean,law_moment"
        if wigner:
            header += ",stirling_ratio"
        fh.write(header + "\n")
        for s, mean in zip(orders, means):
            mean = float(mean)
            row = f"{s},{mean!r},{float(law.moment(s))!r}"
            if wigner:
                row += f",{mean * math.sqrt(math.pi * s**3 / 8.0)!r}"
            fh.write(row + "\n")
    _write_sidecar(outdir, args)
    print(f"wrote moments s=1..{args.s_max} over {args.count} samples -> {outdir}")
    return 0


def cmd_verify_indep(args) -> int:
    dual = codes.dual_code(codes.bch_generator(args.m, args.delta))
    report = independence.verify_r_independence(
        dual, args.r, mode=args.mode, budget=args.budget, seed=args.seed
    )
    print(report.to_json())
    return 0 if report.verdict == "pass" else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudospec",
        description="Pseudo-random matrix ensembles from dual BCH codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_flags(p, with_target_k=True):
        p.add_argument("--m", type=int, required=True, help="field degree, n = 2^m - 1")
        p.add_argument("--delta", type=int, default=None, help="designed distance")
        if with_target_k:
            p.add_argument("--k", type=int, default=None,
                           help="target dimension (alternative to --delta)")

    def add_batch_flags(p):
        p.add_argument("--kind", required=True, choices=ensembles.KINDS)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--delta", type=int, default=None)
        p.add_argument("--N", type=int, required=True, help="matrix order")
        p.add_argument("--p", type=int, default=None, help="columns (MP kinds)")
        p.add_argument("--gamma", type=float, default=None,
                       help="aspect ratio; p = floor(gamma*N) when --p absent")
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("genpoly", help="print BCH code + dual code JSON")
    add_code_flags(p)
    p.set_defaults(func=cmd_genpoly)

    p = sub.add_parser("dual", help="print the dual code JSON")
    add_code_flags(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("sample", help="write a batch of dual codewords")
    add_code_flags(p, with_target_k=False)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("norms", help="spectral norms of a matrix batch")
    add_batch_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="exponent in the log^(1+eps) deviation band")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("esd", help="eigenvalues and KS distances to the limit law")
    add_batch_flags(p)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("moments", help="sample trace moments against law moments")
    add_batch_flags(p)
    p.add_argument("--s-max", type=int, default=8, dest="s_max")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify-indep", help="r-independence verification")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_indep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        # covers the degenerate/unsupported subtypes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, ArithmeticCorruptionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
