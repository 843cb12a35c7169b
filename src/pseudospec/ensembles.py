"""Sign-matrix ensembles: codeword-packed and truly random.

Packing convention (ours, fixed once so every run is auditable): the first
N(N+1)/2 bits of a codeword fill the upper triangle of a symmetric N x N
matrix in row-major order -- row i receives positions (i, i) .. (i, N-1) --
and a bit b becomes the sign (-1)^b.  The lower triangle is mirrored and
surplus codeword bits are discarded from the tail; dropping coordinates
cannot break the independence level of the ones that remain.  Rectangular
N x p matrices fill rows left to right, top to bottom, same sign map.  One
codeword always yields exactly one matrix.

Scaled variants: a symmetric sign matrix is scaled by 1/(2 sqrt(N)) so the
bulk spectrum lands on [-1, 1]; a rectangular one by 1/sqrt(N), whose Gram
product Y^T Y is the p x p sample covariance matrix with exact unit
diagonal.

The truly random kinds go through the same packers, fed with fair coin
bits drawn from a generator seeded by (seed, sample index) instead of a
codeword.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import codes, gf2m
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

    For MP kinds, p may be given directly or derived as floor(gamma * N).
    For pseudo kinds the underlying codeword must be long enough for the
    packing: N(N+1)/2 bits symmetric, N*p rectangular.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"kind must be one of {KINDS}, got {kind!r}")
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")

    if kind in MP_KINDS:
        if p is None:
            if gamma is None:
                raise InvalidInputError("MP kinds need p or gamma")
            p = int(math.floor(gamma * N))
        if not 1 <= p <= N:
            raise InvalidInputError(f"need 1 <= p <= N, got p={p}, N={N}")
        gamma = p / N
    else:
        if p is not None:
            raise InvalidInputError(f"{kind} does not take p")
        gamma = None

    r = rho = None
    if kind in PSEUDO_KINDS:
        if m is None or delta is None:
            raise InvalidInputError(f"{kind} needs m and delta")
        if not 1 <= m <= gf2m.MAX_DEGREE:
            raise InvalidInputError(
                f"m={m} outside supported range 1..{gf2m.MAX_DEGREE}"
            )
        n = (1 << m) - 1
        needed = N * (N + 1) // 2 if kind == "pseudo-wigner" else N * p
        if needed > n:
            raise InvalidInputError(
                f"packing needs {needed} bits but codewords have n={n}"
            )
        delta_eff = delta + 1 if delta % 2 == 0 else delta
        r = delta_eff - 1
        rho = math.log(r) / math.log(N) if N > 1 else None
    else:
        if m is not None or delta is not None:
            raise InvalidInputError(f"{kind} does not take m or delta")

    return EnsembleSpec(
        kind=kind, N=N, p=p, m=m, delta=delta, seed=seed,
        gamma=gamma, r=r, rho=rho,
    )


def pack_symmetric(word_bits: np.ndarray, N: int) -> np.ndarray:
    """Symmetric N x N sign matrix from the first N(N+1)/2 codeword bits."""
    word_bits = np.asarray(word_bits)
    used = N * (N + 1) // 2
    if word_bits.size < used:
        raise InvalidInputError(
            f"codeword has {word_bits.size} bits, packing needs {used}"
        )
    signs = (1 - 2 * word_bits[:used].astype(np.int8)).astype(np.int8)
    M = np.empty((N, N), dtype=np.int8)
    iu = np.triu_indices(N)
    M[iu] = signs
    M.T[iu] = signs
    return M


def pack_rect(word_bits: np.ndarray, N: int, p: int) -> np.ndarray:
    """N x p sign matrix, rows filled left to right from the codeword bits."""
    word_bits = np.asarray(word_bits)
    if p > N:
        raise InvalidInputError(f"need p <= N, got p={p}, N={N}")
    used = N * p
    if word_bits.size < used:
        raise InvalidInputError(
            f"codeword has {word_bits.size} bits, packing needs {used}"
        )
    return (1 - 2 * word_bits[:used].astype(np.int8)).astype(np.int8).reshape(N, p)


def scaled_wigner(M: np.ndarray) -> np.ndarray:
    """Sign matrix scaled by 1/(2 sqrt(N))."""
    N = M.shape[0]
    return M.astype(np.float64) / (2.0 * math.sqrt(N))


def scm(M: np.ndarray) -> np.ndarray:
    """Sample covariance Y^T Y with Y = M / sqrt(N); exact unit diagonal."""
    Mf = M.astype(np.float64)
    N = M.shape[0]
    return (Mf.T @ Mf) / N


def random_baseline(spec: EnsembleSpec, index: int = 0) -> np.ndarray:
    """One truly random sign matrix for sample `index` of the batch."""
    if spec.kind not in RANDOM_KINDS:
        raise InvalidInputError(f"{spec.kind} is not a random kind")
    rng = np.random.default_rng((spec.seed, index))
    N = spec.N
    if spec.kind == "random-wigner":
        return pack_symmetric(rng.integers(0, 2, size=N * (N + 1) // 2), N)
    return pack_rect(rng.integers(0, 2, size=N * spec.p), N, spec.p)


def matrix_stream(spec: EnsembleSpec, count: int):
    """Yield `count` scaled matrices for the ensemble.

    Wigner kinds yield the 1/(2 sqrt(N))-scaled symmetric matrix; MP kinds
    yield the sample covariance Y^T Y.  Pseudo kinds build the BCH dual
    once and walk seeded codewords; sample i depends only on (seed, i), so
    every prefix of a batch reproduces identically.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    wigner = spec.kind in WIGNER_KINDS
    if spec.kind in PSEUDO_KINDS:
        code = codes.bch_generator(spec.m, spec.delta)
        dual = codes.dual_code(code)
        for word in codes.iter_codewords(dual, count, spec.seed):
            bits = codes.word_to_bits(word, dual.n)
            if wigner:
                yield scaled_wigner(pack_symmetric(bits, spec.N))
            else:
                yield scm(pack_rect(bits, spec.N, spec.p))
    else:
        for i in range(count):
            M = random_baseline(spec, i)
            yield scaled_wigner(M) if wigner else scm(M)
