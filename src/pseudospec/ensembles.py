"""Sign-matrix ensembles: codeword-packed and truly random.

All four kinds share one path: sample i is
``pack(spec, sample_bits(spec, i, dual))``.  Its bits come from the seeded
dual-BCH codeword (pseudo kinds), encoded only as far as the packing reads
it, or from fair coins drawn by a generator seeded by (seed, i) (random
kinds).  ``pack`` lays them out as below, through ``pack_symmetric`` for
Wigner kinds and ``pack_rect`` for MP kinds.  Every packed matrix is
finite and exactly symmetric (a mirrored sign matrix, or Y^T Y / N with
Y of +-1 entries, whose products sum exactly), so the batch runner
(``cli.iter_summaries``) hands it to the eigensolver without re-checking.

Packing convention (ours, fixed once so every run is auditable): the first
N(N+1)/2 bits fill the upper triangle of a symmetric N x N matrix in
row-major order -- row i receives positions (i, i) .. (i, N-1) -- and a
bit b becomes the sign (-1)^b.  The lower triangle is mirrored and surplus
codeword bits are discarded from the tail; dropping coordinates cannot
break the independence level of the ones that remain.  Rectangular N x p
matrices take the first N*p bits and fill rows left to right, top to
bottom, same sign map.  One codeword always yields exactly one matrix.

Scaling: a symmetric sign matrix is scaled by 1/(2 sqrt(N)) so the bulk
spectrum lands on [-1, 1]; a rectangular one Y by 1/sqrt(N), whose Gram
product Y^T Y is the p x p sample covariance matrix with exact unit
diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import codes
from .errors import InvalidInputError

PSEUDO_KINDS = ("pseudo-wigner", "pseudo-mp")
RANDOM_KINDS = ("random-wigner", "random-mp")
KINDS = PSEUDO_KINDS + RANDOM_KINDS
WIGNER_KINDS = ("pseudo-wigner", "random-wigner")
MP_KINDS = ("pseudo-mp", "random-mp")


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to regenerate one matrix batch deterministically.

    r is the guaranteed independence level of the packed entries: designed
    distance minus one for the code-based kinds, None (unlimited) for the
    truly random ones.  rho = log_N(r) is the derived independence
    exponent used in the norm deviation statistic.
    """

    kind: str
    N: int
    p: int | None = None
    m: int | None = None
    delta: int | None = None
    seed: int = 0
    gamma: float | None = None
    r: int | None = None
    rho: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def ensemble_spec(
    kind: str,
    N: int,
    p: int | None = None,
    m: int | None = None,
    delta: int | None = None,
    seed: int = 0,
    gamma: float | None = None,
) -> EnsembleSpec:
    """Validate parameters and fill in the derived fields (gamma, r, rho).

    MP kinds take exactly one of p and gamma, with p = floor(gamma * N);
    Wigner kinds take neither.
    For pseudo kinds (m, delta) must pass ``codes.designed_distance``, whose
    promoted delta gives r = delta - 1, and the underlying codeword must be
    long enough for the packing: N(N+1)/2 bits symmetric, N*p rectangular.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"kind must be one of {KINDS}, got {kind!r}")
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    if gamma is not None and not math.isfinite(gamma):
        raise InvalidInputError(f"gamma must be finite, got {gamma}")

    if kind in MP_KINDS:
        if (p is None) == (gamma is None):
            raise InvalidInputError("MP kinds need exactly one of p and gamma")
        if p is None:
            p = int(math.floor(gamma * N))
        if not 1 <= p <= N:
            raise InvalidInputError(f"need 1 <= p <= N, got p={p}, N={N}")
        gamma = p / N
    elif p is not None or gamma is not None:
        raise InvalidInputError(f"{kind} takes neither p nor gamma")

    r = rho = None
    if kind in PSEUDO_KINDS:
        if m is None or delta is None:
            raise InvalidInputError(f"{kind} needs m and delta")
        r = codes.designed_distance(m, delta) - 1
        n = (1 << m) - 1
        needed = _bits_used(kind, N, p)
        if needed > n:
            raise InvalidInputError(
                f"packing needs {needed} bits but codewords have n={n}"
            )
        rho = math.log(r) / math.log(N) if N > 1 else None
    else:
        if m is not None or delta is not None:
            raise InvalidInputError(f"{kind} does not take m or delta")

    return EnsembleSpec(
        kind=kind, N=N, p=p, m=m, delta=delta, seed=seed,
        gamma=gamma, r=r, rho=rho,
    )


def _bits_used(kind: str, N: int, p: int | None) -> int:
    """Bits one matrix takes: N(N+1)/2 symmetric, N*p rectangular."""
    return N * (N + 1) // 2 if kind in WIGNER_KINDS else N * p


def sample_bits(
    spec: EnsembleSpec, index: int, dual: codes.DualCode | None = None
) -> np.ndarray:
    """The uint8 bits of sample `index`: exactly the ones `pack` uses.

    That is N(N+1)/2 bits for Wigner kinds and N*p for MP kinds.  Pseudo
    kinds need `dual`, the dual of the spec's BCH code, and give the leading
    bits of its seeded codeword, encoded only that far (the tail the packing
    would discard is never computed); random kinds give fair coins drawn by
    ``default_rng((seed, index))``.
    """
    used = _bits_used(spec.kind, spec.N, spec.p)
    if spec.kind in RANDOM_KINDS:
        rng = np.random.default_rng((spec.seed, index))
        return rng.integers(0, 2, size=used).astype(np.uint8)
    if dual is None:
        raise InvalidInputError(f"{spec.kind} needs the dual code")
    message = codes.message_for_index(dual.k_dual, spec.seed, index)
    return codes.word_to_bits(codes.encode(dual, message, used), used)


@functools.lru_cache(maxsize=1)
def _upper_map(N: int) -> np.ndarray:
    """N x N int32 map from (i, j) to the bit filling (min, max) of the pair."""
    rows, cols = np.triu_indices(N)
    idx = np.empty((N, N), dtype=np.int32)
    idx[rows, cols] = idx[cols, rows] = np.arange(rows.size, dtype=np.int32)
    idx.flags.writeable = False
    return idx


def _signs(word_bits: np.ndarray, used: int) -> np.ndarray:
    """int8 signs (-1)^b of the first `used` bits."""
    if word_bits.size < used:
        raise InvalidInputError(f"packing needs {used} bits, got {word_bits.size}")
    return 1 - 2 * word_bits[:used].astype(np.int8)


def pack(spec: EnsembleSpec, bits: np.ndarray) -> np.ndarray:
    """The matrix whose spectrum is measured, from one sample's bits."""
    if spec.kind in WIGNER_KINDS:
        return pack_symmetric(bits, spec.N)
    return pack_rect(bits, spec.N, spec.p)


def pack_symmetric(word_bits: np.ndarray, N: int) -> np.ndarray:
    """Symmetric sign matrix scaled by 1/(2 sqrt(N))."""
    signs = _signs(word_bits, N * (N + 1) // 2)
    return signs[_upper_map(N)] / (2.0 * math.sqrt(N))


def pack_rect(word_bits: np.ndarray, N: int, p: int) -> np.ndarray:
    """Sample covariance Y^T Y, Y the row-filled N x p signs over sqrt(N)."""
    Y = _signs(word_bits, N * p).astype(np.float64).reshape(N, p)
    return (Y.T @ Y) / N


def matrix_stream(spec: EnsembleSpec, count: int):
    """Yield the packed matrices of samples 0 .. count-1.

    Pseudo kinds build the BCH dual once.  Sample i depends only on
    (seed, i), so every prefix of a batch reproduces identically.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    pseudo = spec.kind in PSEUDO_KINDS
    dual = codes.dual_code(codes.bch_generator(spec.m, spec.delta)) if pseudo else None
    for i in range(count):
        yield pack(spec, sample_bits(spec, i, dual))
