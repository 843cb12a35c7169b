"""The four benchmark workloads and the CLI command each runs.

Each workload is a fixed `pseudospec` command line.  One benchmark run calls
it repeatedly through ``cli.main``, each call with one CLI seed taken from a
fixed pool; the run's own ``--seed`` only chooses the order in which the pool
is walked.  The pool is what the recorded reference outputs cover
(``reference/<workload>.json.gz``), so every call's outputs can be checked.
Why each workload was chosen is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# CLI seeds whose outputs were recorded as references.
POOL = tuple(range(1, 17))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]   # command line without --count/--seed/--out
    count: int | None       # samples per call for batch commands
    batch: bool             # True: samples are the yields of cli.iter_summaries
    eig_order: int | None   # order of the matrix handed to the eigensolver
    # Samples dominated by multi-threaded LAPACK, whose speed does not follow
    # the calibration kernel; their times are reported unscaled (run.py).
    blas_bound: bool = False

    def command(self, cli_seed: int, outdir: str | None) -> list[str]:
        argv = list(self.argv)
        if self.count is not None:
            argv += ["--count", str(self.count)]
        argv += ["--seed", str(cli_seed)]
        if outdir is not None:
            argv += ["--out", outdir]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's full-scale norm experiment: eigensolve-bound, with packing,
        # scaling and encode above the LAPACK floor (roadmap item 2).
        Workload(
            name="wig180-norms",
            argv=("norms", "--kind", "pseudo-wigner", "--m", "14", "--delta", "31",
                  "--N", "180"),
            count=300, batch=True, eig_order=180,
        ),
        # The README esd command: laws.mp_cdf dominates (roadmap item 3), so
        # eigensolver and packing changes should not move it.
        Workload(
            name="mp40-esd",
            argv=("esd", "--kind", "pseudo-mp", "--m", "10", "--delta", "15",
                  "--N", "40", "--p", "25"),
            count=50, batch=True, eig_order=25,
        ),
        # The criterion-6 configuration: m=20 code construction makes it the
        # set-up workload, and default BLAS threading helps it.
        Workload(
            name="wig1024-moments",
            argv=("moments", "--kind", "pseudo-wigner", "--m", "20", "--delta", "33",
                  "--N", "1024", "--s-max", "16"),
            count=16, batch=True, eig_order=1024,
            blas_bound=True,
        ),
        # The only workload measuring independence; its bulk message_for_index
        # calls guard against codes changes tuned for per-sample encode.
        Workload(
            name="indep-sampled",
            argv=("verify-indep", "--m", "14", "--delta", "31", "--r", "4",
                  "--mode", "sampled", "--budget", "200"),
            count=None, batch=False, eig_order=None,
        ),
    )
}


def seed_order(seed: int) -> list[int]:
    """The pool of CLI seeds in the order a run with `seed` walks it."""
    order = list(POOL)
    random.Random(seed).shuffle(order)
    return order
