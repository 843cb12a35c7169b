"""Verification that dual-code coordinate projections are r-independent.

A set of r coordinates is jointly uniform over the codewords of a linear
code exactly when the corresponding r columns of a generator matrix are
linearly independent over GF(2).  When the columns have rank q < r, the
joint distribution is uniform on a q-dimensional subspace, so its total
variation distance from uniform on {0,1}^r is exactly 1 - 2^(q-r).  Exact
mode computes that rank for each subset, so it never enumerates codewords
and works at every code dimension; the tests cross-check it against a
brute-force histogram of all codewords of small codes.

Sampled mode is an empirical cross-check from encoded words: it draws
2^16 seeded codewords, histograms the projections of `budget` random
coordinate subsets, and flags any TV above 4 sqrt(2^r / 2^16) -- a crude
concentration bound, never used as a proof of independence.  From r = 12
that bound is at least 1, which no TV exceeds, so such r are rejected.
The messages come in 16 batches of 4,096 from ``codes.message_bits``, and
each batch is counted for every subset in one ``bincount``; at m = 14 with
200 subsets a run takes about 0.5 s.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import codes
from .errors import ArithmeticCorruptionError, InvalidInputError

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


def _column_reader(dual):
    """Column j of the generator basis (row i = x^i g) as a k-bit integer.

    Entry (i, j) is the coefficient of x^(j-i) in g, so column j is the
    k-bit window at bit j of g(x) x^(k-1), with row i at window bit
    k-1-i.  That fixed reordering of rows leaves every rank unchanged, so
    the window is read as it is, from bytes built once: O(k) per column.
    """
    k = dual.dimension
    source = (dual.generator << (k - 1)).to_bytes((dual.n + 7) // 8, "little")
    mask = (1 << k) - 1

    def column(j: int) -> int:
        window = int.from_bytes(source[j >> 3 : (j + k + 7) >> 3], "little")
        return (window >> (j & 7)) & mask

    return column


def _rank_gf2(vectors) -> int:
    pivot: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead in pivot:
                v ^= pivot[lead]
            else:
                pivot[lead] = v
                rank += 1
                break
    return rank


def _subset_tv(column, subset) -> float:
    """Exact TV of the projection onto `subset`: 1 - 2^(rank - r)."""
    return 1.0 - 2.0 ** (_rank_gf2(map(column, subset)) - len(subset))


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


def _exact_level(column, n: int, r: int, budget: int, seed: int):
    """(max TV, subsets checked, exhaustive?, worst subset) at one level."""
    subsets, count, exhaustive = _iter_subsets(n, r, budget, seed)
    worst_tv = 0.0
    worst_subset = None
    for S in subsets:
        tv = _subset_tv(column, S)
        if tv > worst_tv:
            worst_tv, worst_subset = tv, tuple(S)
    return worst_tv, count, exhaustive, worst_subset


def _sampled_level(dual, r: int, budget: int, seed: int):
    """Empirical max TV over `budget` subsets from 2^16 seeded codewords.

    Projections are computed directly as message-bits times the restricted
    generator matrix, so full codewords are never materialized.  Each batch
    of messages comes from ``codes.message_bits``; subset s's pattern on a
    word, offset by s << r, indexes one histogram of every subset at once.
    """
    k = dual.dimension
    n = dual.n
    subsets, count, exhaustive = _iter_subsets(n, r, budget, seed)
    subsets = list(subsets)
    needed = sorted({c for S in subsets for c in S})
    col_of = {c: i for i, c in enumerate(needed)}
    G = codes.generator_matrix(dual)[:, needed].astype(np.float32)
    columns = np.array([[col_of[c] for c in S] for S in subsets]).T  # (r, nsub)
    offsets = np.arange(len(subsets), dtype=np.intp)[:, None] << r

    counts = np.zeros(len(subsets) << r, dtype=np.int64)
    batch = 4096
    for start in range(0, SAMPLE_WORDS, batch):
        stop = min(start + batch, SAMPLE_WORDS)
        msgs = codes.message_bits(k, seed, start, stop).astype(np.float32)
        # (needed, batch) weights below 2^24, exact in float32 and in int32
        parity = (G.T @ msgs.T).astype(np.int32)
        parity &= 1
        patterns = np.repeat(offsets, stop - start, axis=1)
        for bit, cols in enumerate(columns):
            projected = parity[cols]
            projected <<= bit
            patterns += projected
        counts += np.bincount(patterns.ravel(), minlength=counts.size)

    counts = counts.reshape(len(subsets), 1 << r)
    freqs = counts / float(SAMPLE_WORDS)
    tvs = 0.5 * np.abs(freqs - 1.0 / (1 << r)).sum(axis=1)
    worst = int(np.argmax(tvs))
    return float(tvs[worst]), count, exhaustive, tuple(subsets[worst])


def verify_r_independence(
    dual,
    r: int,
    mode: str = "exact",
    budget: int = 2000,
    seed: int = 0,
) -> IndependenceReport:
    """Check that every r-subset of codeword coordinates is jointly uniform.

    Exact mode reports the exact worst-case total variation from column
    ranks, at any code dimension; the verdict is pass iff it is 0.
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
    if mode not in ("exact", "sampled"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "sampled" and 16 << r >= SAMPLE_WORDS:
        # 4 sqrt(2^r / SAMPLE_WORDS) >= 1 bounds every TV: no verdict but pass
        raise InvalidInputError(
            f"sampled mode cannot fail at r={r}: its TV threshold "
            f"4 sqrt(2^r / {SAMPLE_WORDS}) is at least 1"
        )

    if mode == "exact":
        column = _column_reader(dual)
        tv, nsub, exhaustive, worst = _exact_level(column, dual.n, r, budget, seed)
        verdict = "pass" if tv == 0.0 else "fail"
        if verdict == "pass" and exhaustive:
            for r_lower in range(r - 1, 0, -1):
                tv_low, _, ex_low, sub_low = _exact_level(
                    column, dual.n, r_lower, budget, seed
                )
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
