"""Verification that dual-code coordinate projections are r-independent.

A set of r coordinates is jointly uniform over the codewords of a linear
code exactly when the corresponding r columns of a generator matrix are
linearly independent over GF(2).  When the columns have rank q < r, the
joint distribution is uniform on a q-dimensional subspace, so its total
variation distance from uniform on {0,1}^r is exactly 1 - 2^(q-r).  Exact
mode therefore has two interchangeable engines: direct histogramming of
all codewords (small dimensions) and column-rank computation; both return
the same exact TV and are cross-checked in the tests.

Sampled mode is a smoke test for codes too large to enumerate: it draws
2^16 seeded codewords, histograms the projections of `budget` random
coordinate subsets, and flags any TV above 4 sqrt(2^r / 2^16) -- a crude
concentration bound, never used as a proof of independence.  From r = 12
that bound is at least 1, which no TV exceeds, so such r are rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import codes
from .errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    ResourceLimitError,
)

EXACT_DIM_LIMIT = 20       # enumerate at most 2^20 codewords
HISTOGRAM_DIM_LIMIT = 12   # histogram engine below this, rank engine above
SAMPLE_WORDS = 1 << 16


@dataclass(frozen=True)
class IndependenceReport:
    r_tested: int
    mode: str                      # "exact" or "sampled"
    subsets_checked: int
    max_total_variation: float
    verdict: str                   # "pass" or "fail"
    threshold: float = 0.0
    failing_subset: tuple[int, ...] | None = None
    exhaustive: bool = field(default=False)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _column_ints(dual) -> np.ndarray:
    """Column j of a generator basis as a k-bit integer, for all j."""
    G = codes.generator_matrix(dual)
    k = G.shape[0]
    weights = (1 << np.arange(k, dtype=np.int64))[:, None]
    return (G.astype(np.int64) * weights).sum(axis=0)


def _rank_gf2(vectors) -> int:
    pivot: dict[int, int] = {}
    rank = 0
    for v in vectors:
        v = int(v)
        while v:
            lead = v.bit_length() - 1
            if lead in pivot:
                v ^= pivot[lead]
            else:
                pivot[lead] = v
                rank += 1
                break
    return rank


def _iter_subsets(n: int, r: int, budget: int, seed: int):
    """All C(n, r) subsets if they fit the budget, else a seeded sample.

    Returns (iterator of sorted tuples, count, exhaustive_flag).
    """
    total = math.comb(n, r)
    if total <= budget:
        return itertools.combinations(range(n), r), total, True
    rng = np.random.default_rng((int(seed), int(r)))
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < budget:
        chosen.add(tuple(sorted(int(v) for v in rng.choice(n, size=r, replace=False))))
    return iter(sorted(chosen)), budget, False


def _exact_level(dual, r: int, budget: int, seed: int):
    """(max TV, subsets checked, exhaustive?, worst subset) at one level."""
    k = dual.dimension
    n = dual.n
    subsets, count, exhaustive = _iter_subsets(n, r, budget, seed)
    worst_tv = 0.0
    worst_subset = None

    if k <= HISTOGRAM_DIM_LIMIT:
        G = codes.generator_matrix(dual)
        msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(
            np.uint8
        )
        powers = 1 << np.arange(r)
        uniform = 1.0 / (1 << r)
        total_words = float(1 << k)
        for S in subsets:
            proj = (msgs @ G[:, S].astype(np.int64)) & 1
            patterns = proj @ powers
            counts = np.bincount(patterns, minlength=1 << r)
            tv = 0.5 * float(np.abs(counts / total_words - uniform).sum())
            if tv > worst_tv:
                worst_tv, worst_subset = tv, tuple(S)
    else:
        cols = _column_ints(dual)
        for S in subsets:
            q = _rank_gf2(cols[list(S)])
            tv = 1.0 - 2.0 ** (q - r)
            if tv > worst_tv:
                worst_tv, worst_subset = tv, tuple(S)
    return worst_tv, count, exhaustive, worst_subset


def _exact_tv_by_rank(dual, subset) -> float:
    """Rank-engine TV for one subset; used to cross-check the histogram."""
    cols = _column_ints(dual)
    q = _rank_gf2(cols[list(subset)])
    return 1.0 - 2.0 ** (q - len(subset))


def _sampled_level(dual, r: int, budget: int, seed: int):
    """Empirical max TV over `budget` subsets from 2^16 seeded codewords.

    Projections are computed directly as message-bits times the restricted
    generator matrix, so full codewords are never materialized.
    """
    k = dual.dimension
    n = dual.n
    subsets, count, exhaustive = _iter_subsets(n, r, budget, seed)
    subsets = list(subsets)
    needed = sorted({c for S in subsets for c in S})
    col_of = {c: i for i, c in enumerate(needed)}
    G = codes.generator_matrix(dual)[:, needed].astype(np.float32)

    counts = np.zeros((len(subsets), 1 << r), dtype=np.int64)
    powers = 1 << np.arange(r)
    batch = 4096
    for start in range(0, SAMPLE_WORDS, batch):
        stop = min(start + batch, SAMPLE_WORDS)
        msgs = np.empty((stop - start, k), dtype=np.float32)
        for i in range(start, stop):
            m = codes.message_for_index(k, seed, i)
            msgs[i - start] = codes.word_to_bits(m, k)
        bits = (msgs @ G).astype(np.int64) & 1
        for j, S in enumerate(subsets):
            patterns = bits[:, [col_of[c] for c in S]] @ powers
            counts[j] += np.bincount(patterns, minlength=1 << r)

    freqs = counts / float(SAMPLE_WORDS)
    tvs = 0.5 * np.abs(freqs - 1.0 / (1 << r)).sum(axis=1)
    worst = int(np.argmax(tvs))
    return float(tvs[worst]), count, exhaustive, tuple(subsets[worst])


def verify_r_independence(
    dual,
    r: int,
    mode: str = "auto",
    budget: int = 2000,
    seed: int = 0,
) -> IndependenceReport:
    """Check that every r-subset of codeword coordinates is jointly uniform.

    Exact mode enumerates the code (dimension <= 20 required) and reports
    the exact worst-case total variation; the verdict is pass iff it is 0.
    Sampled mode estimates it from 2^16 codewords with a loose threshold,
    and rejects r >= 12, where that threshold is at least 1.

    On every exact run the lower levels r-1, ..., 1 are re-verified:
    marginals of uniform distributions are uniform, so a pass at r with a
    fail below it is mathematically impossible and reported as corruption.
    """
    if not 1 <= r <= dual.n:
        raise InvalidInputError(f"need 1 <= r <= n={dual.n}, got {r}")
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    if mode == "auto":
        mode = "exact" if dual.dimension <= EXACT_DIM_LIMIT else "sampled"
    if mode not in ("exact", "sampled"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "sampled" and 16 << r >= SAMPLE_WORDS:
        # 4 sqrt(2^r / SAMPLE_WORDS) >= 1 bounds every TV: no verdict but pass
        raise InvalidInputError(
            f"sampled mode cannot fail at r={r}: its TV threshold "
            f"4 sqrt(2^r / {SAMPLE_WORDS}) is at least 1"
        )

    if mode == "exact":
        if dual.dimension > EXACT_DIM_LIMIT:
            raise ResourceLimitError(
                f"exact mode enumerates 2^{dual.dimension} codewords; "
                f"limit is 2^{EXACT_DIM_LIMIT}"
            )
        tv, nsub, exhaustive, worst = _exact_level(dual, r, budget, seed)
        verdict = "pass" if tv == 0.0 else "fail"
        if verdict == "pass" and exhaustive:
            for r_lower in range(r - 1, 0, -1):
                tv_low, _, ex_low, sub_low = _exact_level(dual, r_lower, budget, seed)
                if ex_low and tv_low > 0.0:
                    raise ArithmeticCorruptionError(
                        f"monotonicity violated: pass at r={r} but "
                        f"TV={tv_low} at r={r_lower} on subset {sub_low}"
                    )
        return IndependenceReport(
            r_tested=r, mode="exact", subsets_checked=nsub,
            max_total_variation=tv, verdict=verdict, threshold=0.0,
            failing_subset=worst if verdict == "fail" else None,
            exhaustive=exhaustive,
        )

    threshold = 4.0 * math.sqrt((1 << r) / SAMPLE_WORDS)
    tv, nsub, exhaustive, worst = _sampled_level(dual, r, budget, seed)
    verdict = "pass" if tv <= threshold else "fail"
    return IndependenceReport(
        r_tested=r, mode="sampled", subsets_checked=nsub,
        max_total_variation=tv, verdict=verdict, threshold=threshold,
        failing_subset=worst if verdict == "fail" else None,
        exhaustive=exhaustive,
    )
