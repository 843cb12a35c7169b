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
The messages come in 16 batches of 4,096 from ``codes.message_bytes``,
whose bytes are bit-sliced by 8 x 8 bit transposes in uint64 arithmetic
and one byte transpose.  A batch's codeword bits at the needed
coordinates are exact GF(2) sums, formed 64 messages to a uint64 by XOR
tables over the bit-sliced messages (the Method of Four Russians), with no
float arithmetic.  The counting route depends only on r.  For r <= 6,
where the 2^r patterns are at most the 64 messages of a uint64 word, an
AND tree over the packed parities splits each word's messages into one
mask per pattern, and a population count of each mask adds 64 messages at
a time.  From r = 7 on, where the masks would outnumber a
word's messages, each subset's bits are packed into one r-bit pattern per
message, and the batch is counted for every subset in one ``bincount``.

The batches are independent and their pattern counts are exact integer
sums, so they are split into contiguous shares, one per CPU this process
may use (``spectral.shares``) and at most one per batch.  The caller
counts the first share and one forked child counts each other one
(``spectral.forked``, the fork helper that ``cli``'s batch commands also
use), handing its int64 counts back through a pipe; their sum, and so
every TV, report and exit code, is the same at any number of workers.
With one CPU, or without ``os.fork``, one process counts every batch.
Processes, not threads: every small numpy call of the kernel takes the GIL
back, and two threads over the batches ran no faster than one.

Forking from a process with other threads is safe for both kinds of
child.  The other threads are OpenBLAS's pool, and no child waits on them
or on a lock one of them might hold at the fork.  A counting child runs
only numpy integer kernels and calls no BLAS.  A batch child of ``cli``
calls LAPACK with the BLAS pinned to one thread
(``spectral.one_blas_thread``), and at one thread OpenBLAS runs every call
on the calling thread and never hands work to its pool.  Neither child
takes a lock of its own or flushes stdio, and each leaves by ``os._exit``.
Python 3.12 and later still warn of such a fork with a
``DeprecationWarning`` from ``os.fork``.  Exact mode stays in one process.
At m = 14 with 200 subsets and r = 4 the command takes about 0.065 s on
two CPUs and 0.068 s on one (in-process ``cli.main``, median of 15 runs on
a 2-vCPU Xeon whose second CPU was shared with other load).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import codes, spectral
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


def _iter_subsets(n: int, r: int, budget: int, seed: int):
    """All C(n, r) subsets if they fit the budget, else a seeded sample of
    `budget`: (sorted list of tuples, whether the list is exhaustive).

    The sample is drawn by rejection into a set.  A budget above half of
    C(n, r) would make that a coupon collector's draw, so there the
    C(n, r) - budget subsets left out are drawn the same way instead and
    the rest are kept: the draw never needs more than C(n, r)/2 distinct
    subsets.
    """
    total = math.comb(n, r)
    if total <= budget:
        return list(itertools.combinations(range(n), r)), True
    rng = np.random.default_rng((int(seed), int(r)))
    left_out = 2 * budget > total
    drawn: set[tuple[int, ...]] = set()
    while len(drawn) < (total - budget if left_out else budget):
        drawn.add(tuple(sorted(int(v) for v in rng.choice(n, size=r, replace=False))))
    if left_out:
        return [S for S in itertools.combinations(range(n), r) if S not in drawn], False
    return sorted(drawn), False


def _exact_tvs(column, subsets, r: int) -> np.ndarray:
    """Exact TV of each subset's projection: 1 - 2^(rank - r)."""
    ranks = np.array([_rank_gf2(map(column, S)) for S in subsets])
    return 1.0 - 2.0 ** (ranks - r)


def _column_chunks(column, k: int, needed) -> np.ndarray:
    """The `needed` generator columns, k-bit ints, as a (ceil(k/8),
    len(needed)) intp array: row i holds byte i of each column, the
    selector of its XOR table over message bits 8i .. 8i+7.  No bit at or
    above k is set, so bit-slice rows past k, all 0, are never selected.
    """
    nbytes = (k + 7) // 8
    packed = b"".join(column(c).to_bytes(nbytes, "little") for c in needed)
    return np.frombuffer(packed, np.uint8).reshape(-1, nbytes).T.astype(np.intp)


# the three swaps of an 8 x 8 bit transpose (bit 8i + j to bit 8j + i), as
# (shift, mask) pairs
_TRANSPOSE8 = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in
                    ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                     (28, 0x00000000F0F0F0F0)))


def _bit_slices(messages: np.ndarray) -> np.ndarray:
    """The messages of ``codes.message_bytes`` bit-sliced: a (ceil(k/8), 8,
    ceil(B/64)) uint64 array, B the messages, whose [i, b] row holds
    message bit 8i + b of 64 messages per word, message 64w + j at bit j of
    word w.  Bits past the last message are 0, and so are the rows past k.

    A uint64 of 8 messages' byte i is an 8 x 8 bit matrix (byte = message,
    bit = b), which is transposed in place; one byte transpose then puts
    each b's bytes of every 8 messages in a row.
    """
    outputs, batch = messages.shape
    padded = np.zeros((outputs, -(-batch // 64) * 64), dtype=np.uint8)
    padded[:, :batch] = messages
    block = padded.view(np.uint64)  # 8 messages to a word
    for shift, mask in _TRANSPOSE8:
        swap = block ^ (block >> shift)
        swap &= mask
        block ^= swap
        block ^= swap << shift
    rows = padded.reshape(outputs, -1, 8).transpose(0, 2, 1)
    return np.ascontiguousarray(rows).view(np.uint64)


def _sampled_tvs(column, k: int, subsets, r: int, seed: int) -> np.ndarray:
    """Empirical TV of each subset's projection over 2^16 seeded codewords.

    Codeword bit c of a message is its GF(2) dot product with column c of
    the generator matrix, so only the needed columns are computed and full
    codewords are never formed.  Each batch of messages from
    ``codes.message_bytes`` is bit-sliced (``_bit_slices``): row i packs
    message bit i of 64 messages per uint64 word.  For each byte of message
    coordinates, a 256-entry table holds the XOR of every subset of its 8 rows, and a
    column's parities gain the entry its byte of the column selects (the
    Method of Four Russians).

    If 2^r <= 64, ``level[v]`` holds as set bits the messages whose first j
    subset columns show pattern v; column j splits each mask into its
    messages with the bit set (``level[v + 2^j]``) and those without, and
    ``np.bitwise_count`` sums the final masks.  ``level[0]`` starts as the
    batch's real messages, so the padding of a partial last word never
    counts.  For larger r, subset s's pattern on a message, offset by
    s << r, indexes one ``bincount`` histogram of every subset at once.
    Both routes give the same integer counts.

    The batches are counted in contiguous shares (``spectral.shares``),
    all but the first in forked children (``spectral.forked``), and the
    shares' integer counts are added.
    """
    needed, columns = np.unique(subsets, return_inverse=True)
    chunks = _column_chunks(column, k, needed.tolist())
    columns = columns.reshape(len(subsets), r).T  # (r, nsub): rows of `parity`
    offsets = np.arange(len(subsets), dtype=np.intp)[:, None] << r

    def count(starts) -> np.ndarray:
        counts = np.zeros(len(subsets) << r, dtype=np.int64)
        for start in starts:
            stop = min(start + codes.MESSAGE_BLOCK, SAMPLE_WORDS)
            sliced = _bit_slices(codes.message_bytes(k, seed, start, stop))
            words = sliced.shape[2]
            table = np.zeros((256, words), dtype=np.uint64)
            parity = np.zeros((len(needed), words), dtype=np.uint64)
            for rows, chunk in zip(sliced, chunks):
                for bit, row in enumerate(rows):
                    np.bitwise_xor(table[: 1 << bit], row, out=table[1 << bit : 2 << bit])
                parity ^= table.take(chunk, axis=0)
            if 1 << r <= 64:
                # level[v]: the messages whose first `bit` columns show pattern v
                level = np.empty((1 << r, len(subsets), words), dtype=np.uint64)
                level[0] = np.packbits(np.arange(64 * words) < stop - start,
                                       bitorder="little").view(np.uint64)
                for bit, cols in enumerate(columns):
                    half = 1 << bit
                    np.bitwise_and(level[:half], parity[cols], out=level[half : 2 * half])
                    level[:half] ^= level[half : 2 * half]  # level & ~parity[cols]
                counts += np.bitwise_count(level).sum(axis=2, dtype=np.int64).T.ravel()
            else:
                bits = np.unpackbits(parity.view(np.uint8), axis=1, count=stop - start,
                                     bitorder="little")  # (needed, batch) 0/1
                # sampled mode takes r <= 11, so a pattern fits in 16 bits
                patterns = np.zeros((len(subsets), stop - start), dtype=np.uint16)
                for bit, cols in enumerate(columns):
                    patterns |= np.left_shift(bits[cols], bit, dtype=np.uint16)
                counts += np.bincount((patterns + offsets).ravel(), minlength=counts.size)
        return counts

    first, *rest = spectral.shares(range(0, SAMPLE_WORDS, codes.MESSAGE_BLOCK))
    with spectral.forked(count, rest) as counted:
        counts = count(first)
        for share_counts in counted:
            counts += share_counts
    freqs = counts.reshape(len(subsets), 1 << r) / float(SAMPLE_WORDS)
    return 0.5 * np.abs(freqs - 1.0 / (1 << r)).sum(axis=1)


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

    On an exact pass over every r-subset, each lower level r-1, ..., 1
    whose subsets all fit the budget is re-verified: marginals of uniform
    distributions are uniform, so a pass at r with a fail below it is
    mathematically impossible and reported as corruption.
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

    column = codes.column_reader(dual)
    subsets, exhaustive = _iter_subsets(dual.n, r, budget, seed)
    if mode == "exact":
        threshold = 0.0
        tvs = _exact_tvs(column, subsets, r)
    else:
        threshold = 4.0 * math.sqrt((1 << r) / SAMPLE_WORDS)
        tvs = _sampled_tvs(column, dual.dimension, subsets, r, seed)
    worst = int(np.argmax(tvs))  # the first of the worst subsets
    tv = float(tvs[worst])
    verdict = "pass" if tv <= threshold else "fail"

    if mode == "exact" and verdict == "pass" and exhaustive:
        for r_lower in range(r - 1, 0, -1):
            if math.comb(dual.n, r_lower) > budget:
                continue  # only exhaustive lower levels are re-checked
            lower, _ = _iter_subsets(dual.n, r_lower, budget, seed)
            tvs_low = _exact_tvs(column, lower, r_lower)
            low = int(np.argmax(tvs_low))
            if tvs_low[low] > 0.0:
                raise ArithmeticCorruptionError(
                    f"monotonicity violated: pass at r={r} but TV={float(tvs_low[low])}"
                    f" at r={r_lower} on subset {lower[low]}"
                )

    return IndependenceReport(
        r_tested=r, mode=mode, subsets_checked=len(subsets),
        max_total_variation=tv, verdict=verdict, threshold=threshold,
        failing_subset=subsets[worst] if verdict == "fail" else None,
        exhaustive=exhaustive,
    )
