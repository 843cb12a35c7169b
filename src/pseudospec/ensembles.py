"""Sign-matrix ensembles: codeword-packed and truly random.

``EnsembleSpec`` is the one ensemble object: it checks its parameters when
built, names its bit count, packing, bit source and limit law, and owns
its code, ``spec.dual``, built at first use.  This module defines what
sample i is and has no loop over samples: ``cli.iter_summaries`` is the
one batch loop.  All four kinds share one path: sample i is
``pack(spec, sample_bits(spec, i))``.  Its bits come from the seeded
codeword of ``spec.dual`` (pseudo kinds), encoded only as far as the
packing reads it, or from fair coins drawn by a generator seeded by
(seed, i) (random kinds).  ``codeword_bits`` is the pseudo half of
``sample_bits``, from a message already drawn: the batch loop hands it
the messages of ``codes.block_messages``.  ``pack`` lays the
bits out as below, through ``pack_symmetric`` for Wigner kinds and
``pack_rect`` for MP kinds.  Every packed matrix is finite and exactly
symmetric (a mirrored sign matrix, or Y^T Y / N with Y of +-1 entries,
whose products sum exactly), so the batch loop hands it to a reader of
``spectral`` without re-checking.

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
diagonal.  The symmetric scaling multiplies by the rounded reciprocal
instead of dividing: for a sign s = +-1, s * fl(1/x) = fl(s/x), since
rounding to nearest is symmetric about zero, so the entries are the
quotients bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import codes, laws
from .errors import InvalidInputError

PSEUDO_KINDS = ("pseudo-wigner", "pseudo-mp")
RANDOM_KINDS = ("random-wigner", "random-mp")
KINDS = PSEUDO_KINDS + RANDOM_KINDS
WIGNER_KINDS = ("pseudo-wigner", "random-wigner")
MP_KINDS = ("pseudo-mp", "random-mp")


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to regenerate one matrix batch deterministically,
    checked on construction.

    MP kinds take exactly one of p and gamma: p = floor(gamma * N), gamma
    read as the decimal it prints as (0.29 is 29/100, not the float just
    below), and gamma = p / N is recorded.  Pseudo kinds need (m, delta)
    that pass ``codes.designed_distance`` and codewords of at least
    ``bits_used`` bits.  Other kinds take none of these.

    r is the guaranteed independence level of the packed entries: the
    promoted designed distance minus one for the code-based kinds, None
    (unlimited) for the truly random ones.  rho = log_N(r) is the derived
    independence exponent used in the norm deviation statistic.
    """

    kind: str
    N: int
    p: int | None = None
    m: int | None = None
    delta: int | None = None
    seed: int = 0
    gamma: float | None = None
    r: int | None = field(default=None, init=False)
    rho: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        kind, N, p, gamma = self.kind, self.N, self.p, self.gamma
        if kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}, got {kind!r}")
        if N < 1:
            raise InvalidInputError("N must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be a nonnegative integer")
        if gamma is not None and not math.isfinite(gamma):
            raise InvalidInputError(f"gamma must be finite, got {gamma}")

        if not self.wigner:
            if (p is None) == (gamma is None):
                raise InvalidInputError("MP kinds need exactly one of p and gamma")
            if p is None:
                p = math.floor(Fraction(str(gamma)) * N)
            if not 1 <= p <= N:
                raise InvalidInputError(f"need 1 <= p <= N, got p={p}, N={N}")
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "gamma", p / N)
        elif p is not None or gamma is not None:
            raise InvalidInputError(f"{kind} takes neither p nor gamma")

        if self.pseudo:
            if self.m is None or self.delta is None:
                raise InvalidInputError(f"{kind} needs m and delta")
            r = codes.designed_distance(self.m, self.delta) - 1
            n = (1 << self.m) - 1
            if self.bits_used > n:
                raise InvalidInputError(
                    f"packing needs {self.bits_used} bits but codewords have n={n}"
                )
            rho = math.log(r) / math.log(N) if N > 1 else None
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "rho", rho)
        elif self.m is not None or self.delta is not None:
            raise InvalidInputError(f"{kind} does not take m or delta")

    @property
    def wigner(self) -> bool:
        """Symmetric N x N packing (else the N x p sample covariance)."""
        return self.kind in WIGNER_KINDS

    @property
    def pseudo(self) -> bool:
        """Bits from a seeded dual-BCH codeword (else fair coins)."""
        return self.kind in PSEUDO_KINDS

    @property
    def order(self) -> int:
        """Order of the matrix whose spectrum is measured: N, or p for MP."""
        return self.N if self.wigner else self.p

    @property
    def bits_used(self) -> int:
        """Bits one matrix takes: N(N+1)/2 symmetric, N*p rectangular."""
        return self.N * (self.N + 1) // 2 if self.wigner else self.N * self.p

    @functools.cached_property
    def dual(self) -> codes.DualCode | None:
        """The dual of BCH code (m, delta), built at first use; None if random."""
        if not self.pseudo:
            return None
        return codes.dual_code(codes.bch_generator(self.m, self.delta))

    @property
    def law(self) -> laws.SemicircleLaw | laws.MarchenkoPasturLaw:
        """The limit law: the semicircle for Wigner kinds, MP(p/N) for SCM."""
        if self.wigner:
            return laws.SemicircleLaw()
        return laws.MarchenkoPasturLaw(self.gamma)

    def to_json_dict(self) -> dict:
        return asdict(self)


def sample_bits(spec: EnsembleSpec, index: int) -> np.ndarray:
    """The uint8 bits of sample `index`: the ``spec.bits_used`` that `pack`
    uses.  Pseudo kinds give the leading bits of the seeded codeword of
    ``spec.dual``, encoded only that far (the tail the packing would discard
    is never computed), its message from ``codes.message_for_index``, which
    repeats ``default_rng((seed, index))`` in Python ints, so no pseudo
    sample loads ``numpy.random``; random kinds give fair coins drawn by
    ``default_rng((seed, index))`` itself.  The batch loop reaches the same
    pseudo bits through ``codes.block_messages`` and ``codeword_bits``.
    """
    dual = spec.dual
    if dual is None:
        rng = np.random.default_rng((spec.seed, index))
        return rng.integers(0, 2, size=spec.bits_used).astype(np.uint8)
    return codeword_bits(spec, codes.message_for_index(dual.k_dual, spec.seed, index))


def codeword_bits(spec: EnsembleSpec, message: int) -> np.ndarray:
    """The uint8 bits a pseudo kind's `pack` uses from the codeword of
    `message` in ``spec.dual``: its leading ``spec.bits_used``, encoded
    only that far.
    """
    used = spec.bits_used
    return codes.word_to_bits(codes.encode(spec.dual, message, used), used)


@functools.lru_cache(maxsize=1)
def _upper_map(N: int) -> np.ndarray:
    """N x N map from (i, j) to the bit filling (min, max) of the pair.

    Its dtype is intp, numpy's index type: ``take`` with any other index
    type first converts it, a full N x N copy per call.
    """
    rows, cols = np.triu_indices(N)
    idx = np.empty((N, N), dtype=np.intp)
    idx[rows, cols] = idx[cols, rows] = np.arange(rows.size, dtype=np.intp)
    idx.flags.writeable = False
    return idx


def _signs(word_bits: np.ndarray, used: int) -> np.ndarray:
    """int8 signs (-1)^b of the first `used` bits."""
    if word_bits.size < used:
        raise InvalidInputError(f"packing needs {used} bits, got {word_bits.size}")
    return 1 - 2 * word_bits[:used].astype(np.int8)


def pack(spec: EnsembleSpec, bits: np.ndarray) -> np.ndarray:
    """The matrix whose spectrum is measured, from one sample's bits."""
    if spec.wigner:
        return pack_symmetric(bits, spec.N)
    return pack_rect(bits, spec.N, spec.p)


def pack_symmetric(word_bits: np.ndarray, N: int) -> np.ndarray:
    """Symmetric sign matrix scaled by 1/(2 sqrt(N)): one gather, one multiply."""
    signs = _signs(word_bits, N * (N + 1) // 2)
    scale = 1.0 / (2.0 * math.sqrt(N))
    return np.multiply(signs.take(_upper_map(N)), scale, dtype=np.float64)


def pack_rect(word_bits: np.ndarray, N: int, p: int) -> np.ndarray:
    """Sample covariance Y^T Y, Y the row-filled N x p signs over sqrt(N)."""
    Y = _signs(word_bits, N * p).astype(np.float64).reshape(N, p)
    return (Y.T @ Y) / N
