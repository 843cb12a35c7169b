"""Command-line experiment driver.

Subcommands: genpoly, dual, sample, norms, esd, moments, verify-indep.
Every artifact-writing command drops exactly one ``config.json`` sidecar in
the output directory holding the full parameter set, library version and
BLAS environment, so any run can be replayed; replays at the same BLAS
thread count produce byte-identical CSV output (samples are written in
index order, and sample i depends only on (seed, i), so any prefix of a
batch reproduces).  The batch commands build one
``ensembles.EnsembleSpec`` from their flags, which checks them and names
the limit law.  At the orders of ``PINNED_ORDERS`` a batch command runs
with numpy's OpenBLAS pinned to one thread (``spectral.one_blas_thread``),
so its outputs do not depend on the BLAS thread count and its
``config.json`` records 1; there ``norms``, ``esd`` and ``moments`` solve
their samples in forked shards, one contiguous range of sample indices per
CPU, and get the results back in index order.  Their samples come from
``iter_summaries``, the one loop over sample indices, which packs sample i
itself and hands the matrix to the command's reader of ``spectral``.  For
pseudo kinds it draws the message of the first sample of a range alone and
those of the rest in blocks (``codes.block_messages``), so a block's fixed
cost is paid after the first sample, never before it.  ``esd`` takes
every eigenvalue (``spectral.eigenvalues_unchecked``); ``norms`` and
``moments`` take only the tridiagonal form, from which ``norms`` bisects
for the two extreme eigenvalues (``spectral.norm_unchecked``) and
``moments`` forms the traces of powers (``spectral.trace_moments_unchecked``).
``esd`` writes each spectrum's CSV row as it comes and scores the spectra
against the limit law ``KS_BLOCK`` at a time: one ``spectral.ks_distance``
call, and so one law-CDF call, per block of a preallocated (KS_BLOCK,
order) buffer, and one more for the partial last block.  The distances are
bit for bit those of one call per spectrum.

Exit codes: 0 success / verification pass, 1 verification fail, 2 invalid
input or an output path that cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, codes, ensembles, gf2m, independence, spectral
from .errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    NumericalFailureError,
)

DEFAULT_EPSILON = 0.1
CHECKPOINT_EVERY = 1000
KS_BLOCK = 64  # spectra per spectral.ks_distance call in esd
# Matrix orders at which the batch commands pin the BLAS to one thread and
# solve their samples in forked shards.  The lower end was set for worker
# threads, which the shards replaced, and shards were not swept below it:
# the one measurement there, order 25 at 50 samples a call, lost to one
# process.  Above the range more BLAS threads speed up the reduction.
# README has the measurements.
PINNED_ORDERS = range(160, 600)
SHARD_ROUND = 1024  # samples per CPU in one round of forked shards


# ---------------------------------------------------------------------------
# batch engine (also used directly by the verification suite)
# ---------------------------------------------------------------------------

def iter_summaries(spec: ensembles.EnsembleSpec, count: int, solve):
    """``solve`` of the matrix of each sample 0 .. count-1, one yield per
    sample, in index order: the one loop over sample indices.

    Sample i is ``ensembles.pack(spec, ensembles.sample_bits(spec, i))``
    and depends only on (seed, i), so every prefix of a batch reproduces,
    and so does every range of indices (``_matrices``).

    ``solve`` is one of the readers of ``spectral``: ``esd`` passes
    ``eigenvalues_unchecked`` (the ascending eigenvalues), ``norms``
    ``norm_unchecked`` (the norm) and ``moments`` a partial of
    ``trace_moments_unchecked`` (the array of trace moments).  Packed
    matrices are symmetric and finite by construction, so the readers need
    not check them, and each is fresh, so the reader may overwrite it.  No
    matrix is held between yields, so each is freed before the next is
    packed.

    At the orders of ``PINNED_ORDERS``, where the BLAS can be pinned
    (``spectral.CAN_PIN``), the BLAS is pinned to one thread
    (``spectral.one_blas_thread``) from sample 0 on, and samples are solved
    in forked shards; anywhere else every sample is solved here, at the
    caller's BLAS thread count.
    Sample 0 is still packed and solved alone before the first yield.
    Samples 1 .. count-1 follow in rounds of at most ``SHARD_ROUND``
    samples per CPU, each split into one contiguous share per CPU
    (``spectral.shares``).  This process solves a round's first share and
    yields each sample as soon as it is solved; a forked child
    (``spectral.forked``) solves each other share, and this process then
    yields their results in index order.  Every shard runs at one BLAS
    thread, so its results are those of one process bit for bit; on one
    CPU, or without ``os.fork``, this process solves everything.  The
    rounds bound what a child holds and hands back, so memory does not
    grow with ``count``.  ``solve`` must then return something picklable,
    as the readers of ``spectral`` do.

    An error in sample j comes after the yields of samples 0 .. j-1, with
    the exception that ``solve`` raised, in a child as here.  Closing the
    generator, or an error in any sample, yields no later sample, kills
    and reaps every child and restores the BLAS thread count.
    """
    if spec.order not in PINNED_ORDERS or not spectral.CAN_PIN:
        yield from map(solve, _matrices(spec, 0, count))
        return
    with spectral.one_blas_thread():
        yield from map(solve, _matrices(spec, 0, min(count, 1)))
        span = SHARD_ROUND * spectral.cpu_count()
        shard = functools.partial(_solved, spec, solve)
        for start in range(1, count, span):
            first, *rest = spectral.shares(range(start, min(start + span, count)))
            with spectral.forked(shard, rest) as solved:
                yield from map(solve, _matrices(spec, first.start, first.stop))
                for results, error in solved:
                    yield from results
                    if error is not None:
                        raise error


def _solved(spec: ensembles.EnsembleSpec, solve, share: range):
    """A forked shard of ``iter_summaries``: (the list of ``solve`` of the
    matrix of each sample of `share`, in index order, up to the first that
    raised; that exception, or None)."""
    results = []
    try:
        for M in _matrices(spec, share.start, share.stop):
            results.append(solve(M))
    except Exception as exc:
        return results, exc
    return results, None


def _matrices(spec: ensembles.EnsembleSpec, start: int, stop: int):
    """The packed matrix of each sample start .. stop-1, in index order.

    Pseudo kinds draw the same bits two ways.  Sample `start` comes from
    ``ensembles.sample_bits``, one message alone; samples start+1 .. stop-1
    take their messages from ``codes.block_messages`` and their bits from
    ``ensembles.codeword_bits``.  A block has a fixed cost, about 0.3 ms
    at k = 70 and 0.7 ms at k = 210 however few messages it holds, against
    27-50 us per message drawn alone (k = 70 to 320), so it pays for itself
    from some 13 to 20 samples on.  Drawn after the first matrix, it never
    delays it, which would count against a run's set-up time.  Random
    kinds take every sample from ``sample_bits``.  Either way sample i
    depends only on (seed, i), so [start, a) then [a, stop) gives the
    matrices of [start, stop).
    """
    messages = (codes.block_messages(spec.dual.k_dual, spec.seed, start + 1, stop)
                if spec.pseudo else None)
    for i in range(start, stop):
        if i > start and messages is not None:
            bits = ensembles.codeword_bits(spec, next(messages))
        else:
            bits = ensembles.sample_bits(spec, i)
        yield ensembles.pack(spec, bits)


def _blas_pin(spec: ensembles.EnsembleSpec):
    """The whole batch command's BLAS setting: one thread at the orders of
    ``PINNED_ORDERS``, the caller's count elsewhere."""
    if spec.order in PINNED_ORDERS:
        return spectral.one_blas_thread()
    return contextlib.nullcontext()


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
    """config.json: the command and every parsed flag but --out, for replay.

    Its ``environment`` block records the BLAS build, the BLAS thread count
    in effect (spectra from N ~ 180 up differ in the last digits between
    thread counts) and the route ``norms`` and ``moments`` take.
    """
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out")}
    payload = {"command": args.command, "version": __version__, "params": params,
               "environment": spectral.environment()}
    (outdir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spec_from_args(args) -> ensembles.EnsembleSpec:
    if args.count < 1:
        raise InvalidInputError(f"--count must be >= 1, got {args.count}")
    # refused before any output: messages are drawn only for indices below
    # 2^32, and a larger count would fail partway through the CSV
    if args.count > 1 << 32:
        raise InvalidInputError(
            f"--count must be at most 2^32 = 4294967296 (sample indices stay "
            f"below 2^32), got {args.count}"
        )
    return ensembles.EnsembleSpec(
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
    # refused before any message is drawn: such a batch could not be saved,
    # and would be drawn and written in full before its header failed
    if args.count > 0xFFFFFFFF:
        raise InvalidInputError(
            f"--count must be at most 2^32 - 1 = 4294967295 (a codewords.bin "
            f"header holds it as a uint32), got {args.count}"
        )
    dual = codes.dual_code(codes.bch_generator(args.m, args.delta))
    words = codes.sample_codewords(dual, args.count, args.seed)
    outdir = _prepare_outdir(args.out)
    codes.save_codewords(outdir / "codewords.bin", words, dual.n)
    _write_sidecar(outdir, args)
    print(f"wrote {args.count} codewords of length {dual.n} to {outdir}")
    return 0


def _batch_command(command):
    """``command(args, spec)`` as a command of ``args`` alone: the spec comes
    from the flags, and the BLAS pin of ``_blas_pin`` covers the whole
    command, so ``config.json`` records the thread count the spectra used."""
    @functools.wraps(command)
    def run(args) -> int:
        spec = _spec_from_args(args)
        with _blas_pin(spec):
            return command(args, spec)
    return run


@_batch_command
def cmd_norms(args, spec: ensembles.EnsembleSpec) -> int:
    _log_divisor(spec.N, args.epsilon)  # reject N and epsilon before any output
    edge = spec.law.support[1]  # the scaled norm concentrates at 1
    outdir = _prepare_outdir(args.out)
    norms: list[float] = []
    with open(outdir / "norms.csv", "w") as fh:
        fh.write("norm\n")
        for i, norm in enumerate(iter_summaries(spec, args.count, spectral.norm_unchecked)):
            v = norm / edge
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


@_batch_command
def cmd_esd(args, spec: ensembles.EnsembleSpec) -> int:
    law = spec.law
    band = ks_band(spec)
    outdir = _prepare_outdir(args.out)
    ks_values: list[float] = []
    # the spectra awaiting their KS distances, scored one block per call
    block = np.empty((min(KS_BLOCK, args.count), spec.order))
    filled = 0
    with open(outdir / "eigenvalues.csv", "w") as fh:
        for eigs in iter_summaries(spec, args.count, spectral.eigenvalues_unchecked):
            fh.write(",".join(map(repr, eigs.tolist())) + "\n")
            block[filled] = eigs
            filled += 1
            if filled == len(block):
                ks_values += spectral.ks_distance(block, law).tolist()
                filled = 0
    if filled:
        ks_values += spectral.ks_distance(block[:filled], law).tolist()
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


def _law_moments(law, s_max: int) -> list[float]:
    """The law's moments of orders 1..s_max, or InvalidInputError naming the
    largest order whose moment fits the float range."""
    moments: list[float] = []
    try:
        for moment in law.moments(s_max):
            moments.append(moment)
    except OverflowError:
        raise InvalidInputError(
            f"the {law.kind} moment of order {len(moments) + 1} exceeds the float "
            f"range; the largest usable --s-max is {len(moments)}"
        ) from None
    return moments


@_batch_command
def cmd_moments(args, spec: ensembles.EnsembleSpec) -> int:
    if args.s_max < 1:
        raise InvalidInputError("--s-max must be >= 1")
    law_moments = _law_moments(spec.law, args.s_max)
    outdir = _prepare_outdir(args.out)
    orders = range(1, args.s_max + 1)
    solve = functools.partial(spectral.trace_moments_unchecked, s_max=args.s_max)
    sums = np.zeros(args.s_max)
    for moments in iter_summaries(spec, args.count, solve):
        sums += moments
    means = sums / args.count
    with open(outdir / "moments.csv", "w") as fh:
        header = "s,sample_mean,law_moment"
        if spec.wigner:
            header += ",stirling_ratio"
        fh.write(header + "\n")
        for s, mean, law_moment in zip(orders, means, law_moments):
            mean = float(mean)
            row = f"{s},{mean!r},{law_moment!r}"
            if spec.wigner:
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

    def add_code_flags(p):
        p.add_argument("--m", type=int, required=True, help="field degree, n = 2^m - 1")
        p.add_argument("--delta", type=int, default=None, help="designed distance")
        p.add_argument("--k", type=int, default=None,
                       help="target dimension (alternative to --delta)")

    def add_batch_flags(p):
        p.add_argument("--kind", required=True, choices=ensembles.KINDS)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--delta", type=int, default=None)
        p.add_argument("--N", type=int, required=True, help="matrix order")
        p.add_argument("--p", type=int, default=None, help="columns (MP kinds)")
        p.add_argument("--gamma", type=float, default=None,
                       help="aspect ratio, for MP kinds without --p: p is the "
                       "floor of gamma*N, gamma read as the decimal given")
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
    p.add_argument("--m", type=int, required=True, help="field degree, n = 2^m - 1")
    p.add_argument("--delta", type=int, required=True, help="designed distance")
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
    p.add_argument("--budget", type=int, default=2000,
                   help="most r-subsets checked; below C(n, r) a seeded sample "
                   "of them (above C(n, r)/2, every subset but a seeded sample "
                   "left out)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_indep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        # covers the degenerate/unsupported subtypes, and an --out that is a
        # file or lies below one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, ArithmeticCorruptionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
