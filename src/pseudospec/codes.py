"""Primitive narrow-sense binary BCH codes and their duals.

A code of length n = 2^m - 1 with designed distance delta is generated by
the least common multiple of the minimal polynomials of alpha, alpha^2,
..., alpha^(delta-1), alpha the primitive element of the field GF(2^m)
that :mod:`.gf2m` names by its degree m.  The dual code is cyclic as well,
generated by the reciprocal of h(x) = (x^n + 1) / g(x); sampling uniform
messages and multiplying by that generator induces the uniform measure on
dual codewords, which is what the matrix ensembles downstream consume.

``designed_distance`` is the one place (m, delta) is checked: delta must
be at least 3, an even delta is promoted to delta + 1 (the same code, by
conjugacy), and the promoted delta must not exceed n, or the roots would
include alpha^n = alpha^0 and leave no code.  Every caller that takes a
designed distance, the ensemble specs included, goes through it.

Codewords are GF(2) polynomials in the integer representation of
:mod:`.gf2m` (bit i = coefficient of x^i).  ``word_to_bits`` converts one
to a dense 0/1 array for packing into a matrix.  A matrix uses only a
prefix of the codeword, so ``encode`` can return just the first `length`
bits, at a cost that falls with `length`.

Batch file format (``save_codewords``): an 8-byte header of two uint32
little-endian fields (n, count), then ``count`` records of ceil(n/8) bytes
each, coefficient of x^0 first (bit j of byte i is the coefficient of
x^(8i+j)).  ``load_codewords`` rejects a file whose length does not match
its header.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import gf2m
from .errors import (
    ArithmeticCorruptionError,
    DegenerateCodeError,
    InvalidInputError,
    ResourceLimitError,
)

# Exhaustive enumerations (distance, exact independence) stop at 2^24 words.
ENUMERATION_BUDGET_BITS = 24


@dataclass(frozen=True)
class CyclicCode:
    """Cyclic code of length n = 2^m - 1 with generator g(x)."""

    m: int
    generator: int
    delta: int | None = None

    def __post_init__(self) -> None:
        gf2m.default_primitive_poly(self.m)  # m must name a supported field
        # cofactor h(x) = (x^n + 1) / g(x), reused by dual_code.  Since
        # 1/g = h * (1 + x^n + x^2n + ...) and deg h = k < n, the power
        # series of 1/g below x^k is h without its leading term x^k.  The
        # product check both validates g and certifies h, once per code.
        g, k = self.generator, self.k
        h = 0
        if g > 0 and g & 1 and k >= 0:
            h = (1 << k) | gf2m.poly_inverse(g, k)
        if gf2m.poly_mul(h, g) != (1 << self.n) | 1:
            raise InvalidInputError("generator does not divide x^n + 1")
        if k < 1:
            raise DegenerateCodeError("code has dimension 0")
        object.__setattr__(self, "_cofactor", h)

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    @property
    def k(self) -> int:
        return self.n - gf2m.degree(self.generator)

    # alias so distance/independence helpers can treat base and dual alike
    @property
    def dimension(self) -> int:
        return self.k

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "delta": self.delta,
            "generator_hex": gf2m.poly_to_hex(self.generator),
            "k": self.k,
        }


@dataclass(frozen=True)
class DualCode:
    """Dual of a cyclic code, itself cyclic with the reciprocal-h generator."""

    base: CyclicCode
    generator: int
    k_dual: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dimension(self) -> int:
        return self.k_dual

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["dual_generator_hex"] = gf2m.poly_to_hex(self.generator)
        d["k_dual"] = self.k_dual
        return d


def designed_distance(m: int, delta: int) -> int:
    """The designed distance the BCH code of length 2^m - 1 is built with.

    Checks m against the field table, rejects delta < 3 with
    InvalidInputError, and promotes an even delta to delta + 1: alpha^delta
    is conjugate to alpha^(delta/2), already a root, so both generate the
    same code.  A promoted delta above n = 2^m - 1 puts alpha^n = alpha^0
    among the roots, so g(x) = x^n + 1 and no code is left; that raises
    DegenerateCodeError.  Any delta returned gives dimension >= 1, and every
    root index 1 .. delta - 1 is below n.
    """
    gf2m.default_primitive_poly(m)
    if delta < 3:
        raise InvalidInputError(f"designed distance must be >= 3, got {delta}")
    if delta % 2 == 0:
        delta += 1
    n = (1 << m) - 1
    if delta > n:
        raise DegenerateCodeError(
            f"designed distance {delta} leaves no code at n={n}"
        )
    return delta


def bch_generator(m: int, delta: int) -> CyclicCode:
    """Construct the BCH code of length 2^m - 1 and designed distance delta.

    The distance is checked and promoted by ``designed_distance``; an even
    delta is promoted with a warning.
    """
    promoted = designed_distance(m, delta)
    if promoted != delta:
        warnings.warn(
            f"even designed distance {delta} promoted to {promoted} "
            "(same code by conjugacy)",
            stacklevel=2,
        )
    n = (1 << m) - 1
    reps_seen: set[int] = set()
    g = 1
    for e in range(1, promoted):
        rep = min(gf2m.cyclotomic_coset(e, n))
        if rep in reps_seen:
            continue
        reps_seen.add(rep)
        g = gf2m.poly_mul(g, gf2m.minimal_polynomial(e, m))

    code = CyclicCode(m=m, generator=g, delta=promoted)
    t = (promoted - 1) // 2
    if code.k < n - m * t:
        raise ArithmeticCorruptionError(
            f"dimension {code.k} below the n - m*t = {n - m * t} bound"
        )
    return code


def delta_for_dimension(m: int, k: int) -> int:
    """Smallest designed distance whose BCH code has dimension exactly k.

    Walks odd designed distances upward (dimension is non-increasing in
    delta) until the target dimension is hit; raises if it is skipped over,
    since not every k is a BCH dimension.
    """
    gf2m.default_primitive_poly(m)
    n = (1 << m) - 1
    if not 1 <= k < n:
        raise InvalidInputError(f"target dimension {k} outside [1, {n})")
    deg = 0
    reps_seen: set[int] = set()
    delta = 3
    while True:
        for e in (delta - 2, delta - 1):
            rep = min(gf2m.cyclotomic_coset(e % n, n))
            if rep not in reps_seen:
                reps_seen.add(rep)
                deg += len(gf2m.cyclotomic_coset(rep, n))
        if n - deg == k:
            return delta
        if n - deg < k:
            raise InvalidInputError(
                f"no BCH code of length {n} has dimension {k} "
                f"(nearest from above has k={n - deg} at delta={delta})"
            )
        delta += 2


def dual_code(code: CyclicCode) -> DualCode:
    """Dual of a cyclic code: generator = reciprocal of (x^n + 1) / g(x)."""
    h = code._cofactor
    k_dual = code.n - code.k
    if k_dual < 1:
        raise DegenerateCodeError("dual of the full space has dimension 0")
    return DualCode(base=code, generator=gf2m.reciprocal(h), k_dual=k_dual)


def encode(dual: DualCode, message: int, length: int | None = None) -> int:
    """Nonsystematic encoding: codeword = message(x) * generator(x).

    The product degree stays below n, so no reduction modulo x^n + 1 is
    needed; linearity and injectivity are immediate.  With `length` the
    result is the codeword mod x^length, its first `length` bits, got by
    multiplying against the generator masked to those coefficients: the
    higher ones cannot reach below x^length, so the work shrinks with it.
    """
    if not 0 <= message < (1 << dual.k_dual):
        raise InvalidInputError(
            f"message must fit in k_dual = {dual.k_dual} bits"
        )
    if length is not None:
        if not 1 <= length <= dual.n:
            raise InvalidInputError(f"need 1 <= length <= n={dual.n}, got {length}")
        mask = (1 << length) - 1
        return gf2m.poly_mul(message, dual.generator & mask) & mask
    word = gf2m.poly_mul(message, dual.generator)
    if word.bit_length() > dual.n:
        raise ArithmeticCorruptionError("codeword overflow past x^(n-1)")
    return word


def message_for_index(k_bits: int, seed: int, index: int) -> int:
    """Uniform k-bit message derived deterministically from (seed, index).

    Every index owns an independent generator stream, so any prefix,
    subset, or parallel split of a batch reproduces identical messages.
    """
    rng = np.random.default_rng((int(seed), int(index)))
    bits = rng.integers(0, 2, size=k_bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sample_codewords(dual: DualCode, count: int, seed: int) -> list[int]:
    """`count` seeded-uniform dual codewords; word i depends only on (seed, i)."""
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    k = dual.k_dual
    return [encode(dual, message_for_index(k, seed, i)) for i in range(count)]


def min_distance_exact(code: Union[CyclicCode, DualCode]) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Walks messages in Gray-code order so each step is a single XOR with a
    shifted generator.  Refuses dimensions above the enumeration budget;
    callers should fall back to the designed distance there.
    """
    k = code.dimension
    if k > ENUMERATION_BUDGET_BITS:
        raise ResourceLimitError(
            f"dimension {k} exceeds the 2^{ENUMERATION_BUDGET_BITS} "
            "enumeration budget; use the designed distance instead"
        )
    basis = [code.generator << j for j in range(k)]
    word = 0
    best = code.n + 1
    for i in range(1, 1 << k):
        word ^= basis[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
    return best


def generator_matrix(code: Union[CyclicCode, DualCode]) -> np.ndarray:
    """k x n basis matrix over GF(2); row j is x^j * g(x)."""
    k, n = code.dimension, code.n
    rows = np.zeros((k, n), dtype=np.uint8)
    g_bits = word_to_bits(code.generator, n)
    deg = gf2m.degree(code.generator)
    for j in range(k):
        rows[j, j : j + deg + 1] = g_bits[: deg + 1]
    return rows


def word_to_bits(word: int, n: int) -> np.ndarray:
    """0/1 array of length n, coefficient of x^0 first."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(word.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def save_codewords(path, words: list[int], n: int) -> None:
    """Write a codeword batch in the packed binary format (see module doc)."""
    nbytes = (n + 7) // 8
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", n, len(words)))
        for w in words:
            fh.write(w.to_bytes(nbytes, "little"))


def load_codewords(path) -> tuple[int, list[int]]:
    """Read a codeword batch; returns (n, words).

    Raises InvalidInputError when the header is short or the body is not
    exactly count records long.
    """
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise InvalidInputError(
                f"codeword file has {len(header)} bytes, header needs 8"
            )
        n, count = struct.unpack("<II", header)
        nbytes = (n + 7) // 8
        body = os.fstat(fh.fileno()).st_size - 8
        if body != count * nbytes:
            raise InvalidInputError(
                f"codeword file body has {body} bytes, header promises "
                f"{count} records of {nbytes}"
            )
        words = [
            int.from_bytes(fh.read(nbytes), "little") for _ in range(count)
        ]
    return n, words
