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
``bch_generator`` builds g from whichever side of delta has the shorter
range of coset leaders: the product of the minimal polynomials of the
roots, or, for a low-dimension code, x^n + 1 divided by the product of
those of the few non-root cosets.  Either way it checks that k is exactly
what the cosets leave.

Codewords are GF(2) polynomials in the integer representation of
:mod:`.gf2m` (bit i = coefficient of x^i).  ``word_to_bits`` converts one
to a dense 0/1 array for packing into a matrix.  A matrix uses only a
prefix of the codeword, so ``encode`` can return just the first `length`
bits, at a cost that falls with `length`; without a length it returns the
whole codeword, the prefix of length n.  Both are one windowed product
of :mod:`.gf2m`: the 16 multiples of the masked generator by the
polynomials of degree below 4 are tabulated once per (generator, length),
and the message is consumed 4 bits per step, so a k-bit message costs k/4
shifted XORs instead of one per set bit.  A 4-bit window keeps the table
at 16 words of `length` bits; an 8-bit one would hold 255, 16 MB at
N = 1024.
``column_reader``, the one reader of the generator matrix (row i = x^i g),
gives its columns as k-bit integers for ``independence``.

Message i of a seed is defined by numpy's ``default_rng((seed, i))``:
bit j is draw j of its ``integers(0, 2, dtype=uint8)``, so it depends only
on (seed, i).  Two ports of that definition give the same bits, and
neither imports ``numpy.random``; both read SeedSequence's hash constants
from the same tables (``_mix_schedule``, ``_STATE_HASHES``).
``message_for_index`` repeats numpy's SeedSequence and PCG64 arithmetic in
Python ints for one index, any nonnegative one, in 14 to 32 us;
``ensembles.sample_bits`` uses it to reach any one sample.
``message_bytes``, the one numpy reader of the stream, repeats it over a
block of indices below 2^32 and returns the messages byte-major, byte j of
every message in row j; sampled ``verify-indep`` bit-slices them as they
are.  ``block_messages`` yields the messages of a range of indices as ints:
the first from ``message_for_index``, the rest from blocks of at most
``MESSAGE_BLOCK``, drawing a block only once the last is used up.  A block
has a fixed cost, about 0.35 ms at k = 70 and 0.7 ms at k = 210 however
few its messages, so the first message of a range never waits for one.
``sample_codewords`` and the batch commands (``cli.iter_summaries``) take
their messages from ``block_messages``.  A pseudo kind's batch thus never
loads ``numpy.random``, which would add about 5.5 MB to its peak RSS; the
random kinds and the subset sampler of ``independence`` still use
``default_rng``.

Batch file format (``save_codewords``): an 8-byte header of two uint32
little-endian fields (n, count), then ``count`` records of ceil(n/8) bytes
each, coefficient of x^0 first (bit j of byte i is the coefficient of
x^(8i+j)).
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from . import gf2m
from .errors import (
    ArithmeticCorruptionError,
    DegenerateCodeError,
    InvalidInputError,
)

MESSAGE_BLOCK = 4096  # messages per ``message_bytes`` call of a bulk draw


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
    delta is promoted with a warning.  The roots of g are alpha^e for the
    cyclotomic cosets whose leader e (least element) lies in 1 .. delta - 1,
    and x^n + 1 is the product of the minimal polynomials of all cosets.
    Every leader but 0 is odd and below n/2 (for e > n/2, 2e - n < e is in
    e's coset), so the non-root leaders are 0 and those in delta .. n/2.
    When that range is the shorter, g is x^n + 1 over the product of their
    minimal polynomials, an exact quotient read off the power series of
    1/h (``gf2m.poly_inverse``), so a low-dimension code costs a few
    minimal polynomials instead of one per root coset.  Otherwise g is the
    product of the roots' minimal polynomials.  k must be the sizes of the
    non-root cosets, summed.
    """
    promoted = designed_distance(m, delta)
    if promoted != delta:
        warnings.warn(
            f"even designed distance {delta} promoted to {promoted} "
            "(same code by conjugacy)",
            stacklevel=2,
        )
    n = (1 << m) - 1
    half = (n + 1) // 2
    if promoted - 1 <= half - promoted:
        g, roots = 1, 0
        for e, size in _coset_leaders(range(1, promoted), n):
            g = gf2m.poly_mul(g, gf2m.minimal_polynomial(e, m))
            roots += size
        k = n - roots
    else:
        h, k = 0b11, 1  # the coset {0}: x + 1
        for e, size in _coset_leaders(range(promoted, half), n):
            h = gf2m.poly_mul(h, gf2m.minimal_polynomial(e, m))
            k += size
        g = gf2m.poly_inverse(h, n - k + 1)
    code = CyclicCode(m=m, generator=g, delta=promoted)
    if code.k != k:
        raise ArithmeticCorruptionError(
            f"dimension {code.k}, but the cyclotomic cosets leave {k}"
        )
    return code


def _coset_leaders(candidates, n: int):
    """(e, size of e's cyclotomic coset mod n) for each e of `candidates`
    that leads its coset: is its least element."""
    for e in candidates:
        coset = gf2m.cyclotomic_coset(e, n)
        if e == min(coset):
            yield e, len(coset)


def delta_for_dimension(m: int, k: int) -> int:
    """Smallest designed distance whose BCH code has dimension exactly k.

    Each coset leader e, upward, drops the dimension by its coset's size;
    leaders are odd, so e + 2 is the least odd delta with root alpha^e.
    The dimension left after e is also 1 (the coset {0}) plus the sizes of
    the leaders above e, all below n/2 (see ``bch_generator``), so for
    k < n/2 the leaders are walked down from n/2, and for larger k up from
    1: the walk covers the short side of the answer.  Raises if k is
    skipped over, since not every k is a BCH dimension, naming the nearest
    dimensions on either side.
    """
    gf2m.default_primitive_poly(m)
    n = (1 << m) - 1
    if not 1 <= k < n:
        raise InvalidInputError(f"target dimension {k} outside [1, {n})")
    skipped = f"no BCH code of length {n} has dimension {k}"
    if 2 * k >= n:
        dim, above = n, ""
        for e, size in _coset_leaders(range(1, n, 2), n):
            dim -= size
            if dim == k:
                return e + 2
            if dim < k:
                raise InvalidInputError(
                    f"{skipped} (nearest: {above}k={dim} at delta={e + 2} below)"
                )
            above = f"k={dim} at delta={e + 2} above, "
    else:
        dim, below = 1, ""  # left after the last leader
        for e, size in _coset_leaders(range(n // 2, 0, -2), n):
            if dim == k:
                return e + 2
            if dim > k:
                raise InvalidInputError(
                    f"{skipped} (nearest: k={dim} at delta={e + 2} above, {below})"
                )
            below = f"k={dim} at delta={e + 2} below"
            dim += size


def dual_code(code: CyclicCode) -> DualCode:
    """Dual of a cyclic code: generator = reciprocal of (x^n + 1) / g(x)."""
    h = code._cofactor
    k_dual = code.n - code.k
    if k_dual < 1:
        raise DegenerateCodeError("dual of the full space has dimension 0")
    return DualCode(base=code, generator=gf2m.reciprocal(h), k_dual=k_dual)


@functools.lru_cache(maxsize=1)
def _window_table(generator: int, length: int) -> tuple[int, ...]:
    """``gf2m.window_table`` of the generator mod x^length."""
    return gf2m.window_table(generator & ((1 << length) - 1))


def encode(dual: DualCode, message: int, length: int | None = None) -> int:
    """Nonsystematic encoding: codeword = message(x) * generator(x).

    The product degree stays below n, so no reduction modulo x^n + 1 is
    needed; linearity and injectivity are immediate.  With `length` the
    result is the codeword mod x^length, its first `length` bits, got by
    multiplying against the generator masked to those coefficients: the
    higher ones cannot reach below x^length, so the work shrinks with it.
    Without it the whole codeword is formed, length n, where the mask
    leaves the generator as it is.  Either product is one ``gf2m.window_mul``
    walk of the message over the cached ``_window_table``.
    """
    if not 0 <= message < (1 << dual.k_dual):
        raise InvalidInputError(
            f"message must fit in k_dual = {dual.k_dual} bits"
        )
    whole = length is None
    if whole:
        length = dual.n
    elif not 1 <= length <= dual.n:
        raise InvalidInputError(f"need 1 <= length <= n={dual.n}, got {length}")
    word = gf2m.window_mul(_window_table(dual.generator, length), message)
    if whole and word.bit_length() > dual.n:
        raise ArithmeticCorruptionError("codeword overflow past x^(n-1)")
    return word & ((1 << length) - 1)


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier; none depends on the data, so both message paths
# read them from the same tables, and message_bytes applies them to a whole
# block of indices at once.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the multiplier's 64-bit halves, and the 32-bit halves of its low one
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO1 = np.uint64((_PCG_MULT >> 32) & _MASK32)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
# the top bit of each byte of a uint64, and the multiplier that gathers
# those 8 bits into the top byte, byte b's at bit 56 + b
_TOP_BITS = np.uint64(0x8080808080808080)
_GATHER_TOP, _TOP_BYTE = np.uint64(0x0002040810204081), np.uint64(56)
# byte -> b"1" when its top bit, the bit ``integers(0, 2, dtype=uint8)``
# keeps, is set
_TOP_BIT = bytes(b"01"[byte >> 7] for byte in range(256))
_ROTATE = (1 << 64) + 1  # x * _ROTATE is x:x, two copies of a 64-bit x


def _hash_constants(init: int, mult: int, calls: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pair of each of `calls` successive hashes of a
    SeedSequence hash constant that starts at `init`: a hash XORs the value
    with the constant, advances the constant by `mult` and multiplies the
    value by the advanced one.
    """
    pairs, const = [], init
    for _ in range(calls):
        advanced = (const * mult) & _MASK32
        pairs.append((const, advanced))
        const = advanced
    return tuple(pairs)


_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)  # generate_state's 8


@functools.lru_cache(maxsize=8)
def _mix_schedule(words: int):
    """How SeedSequence mixes `words` entropy words into its pool of 4.

    Returns (fill, mixes).  Pool word i starts as entropy word i (0 past
    the last) hashed with fill[i].  Then each (src, dst, xor, mult) of
    `mixes`, in order, hashes cell src with (xor, mult) and mixes it into
    pool word dst, where cells 0-3 are the pool and cell i >= 4 is entropy
    word i: first every pool word into each other one, then each further
    entropy word into all four.
    """
    steps = [(src, dst) for src in range(max(words, 4)) for dst in range(4)
             if src != dst]
    hashes = _hash_constants(_INIT_A, _MULT_A, 4 + len(steps))
    return hashes[:4], tuple(step + pair for step, pair in zip(steps, hashes[4:]))


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words for the integer n >= 0, low word first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def message_for_index(k_bits: int, seed: int, index: int) -> int:
    """Uniform k-bit message derived deterministically from (seed, index).

    Every index owns an independent generator stream, so any prefix,
    subset, or parallel split of a batch reproduces identical messages.
    The message is ``default_rng((seed, index)).integers(0, 2, size=k_bits,
    dtype=uint8)`` read as an integer, bit j the j-th draw, computed in
    Python ints by the steps ``message_bytes`` lists, so ``numpy.random`` is
    never imported.  Any nonnegative seed and index are taken; a negative
    one raises InvalidInputError.
    """
    if seed < 0 or index < 0:
        raise InvalidInputError("seed and index must be nonnegative integers")
    words = _uint32_words(int(seed)) + _uint32_words(int(index))
    fill, mixes = _mix_schedule(len(words))
    cells = []
    for word, (xor, mult) in zip(words + [0] * 3, fill):
        value = ((word ^ xor) * mult) & _MASK32
        cells.append(value ^ (value >> 16))
    cells += words[4:]
    for src, dst, xor, mult in mixes:
        value = ((cells[src] ^ xor) * mult) & _MASK32
        value = (_MIX_L * cells[dst] - _MIX_R * (value ^ (value >> 16))) & _MASK32
        cells[dst] = value ^ (value >> 16)
    state = []
    for i, (xor, mult) in enumerate(_STATE_HASHES):
        value = ((cells[i % 4] ^ xor) * mult) & _MASK32
        state.append(value ^ (value >> 16))
    # uint64 word i is state[2i] | state[2i + 1] << 32; PCG64 takes words
    # 0 and 1 as initstate (high, low), 2 and 3 as initseq
    init = (state[1] << 96) | (state[0] << 64) | (state[3] << 32) | state[2]
    seq = (state[5] << 96) | (state[4] << 64) | (state[7] << 32) | state[6]
    inc = ((seq << 1) | 1) & _MASK128
    # state 0 steps to inc; initstate is added to it, then one more step
    lcg = ((inc + init) * _PCG_MULT + inc) & _MASK128
    outputs = []
    for _ in range((k_bits + 7) // 8):
        lcg = (lcg * _PCG_MULT + inc) & _MASK128
        high = lcg >> 64
        xored = (high ^ lcg) & _MASK64
        # rotated right by the top 6 bits: the low half of xored:xored >> rot
        outputs.append((((xored * _ROTATE) >> (high >> 58)) & _MASK64)
                       .to_bytes(8, "little"))
    raw = b"".join(outputs)[:k_bits]
    return int(raw.translate(_TOP_BIT)[::-1], 2) if k_bits else 0


def _seed_state(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's ``generate_state(4, uint64)`` for each column of the
    (words, block) uint32 `entropy`: the entropy is mixed into a pool of 4
    words, which is hashed out to 8 words and paired low word first.
    """
    def hashmix(value, xor, mult):
        value = (value ^ np.uint32(xor)) * np.uint32(mult)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    fill, mixes = _mix_schedule(len(entropy))
    words = list(entropy) + [np.zeros_like(entropy[0])] * 3
    cells = [hashmix(word, *pair) for word, pair in zip(words, fill)]
    cells += list(entropy[4:])
    for src, dst, xor, mult in mixes:
        cells[dst] = mix(cells[dst], hashmix(cells[src], xor, mult))
    state = [hashmix(cells[i % 4], *pair).astype(np.uint64)
             for i, pair in enumerate(_STATE_HASHES)]
    return [state[2 * i] | (state[2 * i + 1] << np.uint64(32)) for i in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, (hi, lo) * multiplier + (inc_hi, inc_lo) mod
    2^128, on uint64 limbs.  The high limb of lo * _MULT_LO is formed from
    the four products of 32-bit halves, each of which fits in 64 bits, with
    the carries of the middle two folded into running sums.
    """
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    t = (lo0 * _MULT_LO0) >> _SHIFT32
    t += lo1 * _MULT_LO0
    u = t & _LOW32
    u += lo0 * _MULT_LO1
    new_hi = lo1 * _MULT_LO1
    new_hi += t >> _SHIFT32
    new_hi += u >> _SHIFT32
    new_hi += hi * _MULT_LO
    new_hi += lo * _MULT_HI
    new_hi += inc_hi
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo  # the carry out of the low limb
    return new_hi, new_lo


def message_bytes(k_bits: int, seed: int, start: int, stop: int) -> np.ndarray:
    """The bits of messages start .. stop-1, byte-major: a (ceil(k_bits / 8),
    stop - start) uint8 array whose column i holds message start + i, byte j
    its bits 8j .. 8j+7 (bit b of the byte is message bit 8j + b), with the
    bits at and past k_bits 0.  Column i read little-endian is
    ``message_for_index(k_bits, seed, start + i)`` bit for bit.

    It repeats, over the whole block at once, what ``default_rng((seed, i))``
    and ``integers(0, 2, dtype=uint8)`` do for one index:

    - SeedSequence mixes the entropy, the uint32 words of `seed` then the
      index, into a pool of 4 words and expands it by ``generate_state(4,
      uint64)``;
    - PCG64 seeds from those 4 words: state 0, inc = (initseq << 1) | 1,
      one step, add initstate, one step;
    - each XSL-RR output of 64 bits gives 8 bytes of the little-endian raw
      stream, and message bit j is the top bit of byte j, so byte j of a
      message is the 8 top bits of its output j, gathered by one multiply.

    An index of 2^32 or more has two entropy words and so another mix;
    ``message_for_index`` takes one, but no block caller reaches one, and
    here a `stop` above 2^32 raises InvalidInputError.
    """
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    if not 0 <= start <= stop <= 1 << 32:
        raise InvalidInputError(
            f"need 0 <= start <= stop <= 2^32, got [{start}, {stop})"
        )
    seed_words = _uint32_words(int(seed))
    entropy = np.empty((len(seed_words) + 1, stop - start), dtype=np.uint32)
    entropy[:-1] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop, dtype=np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(entropy)
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    # state 0 steps to inc; initstate is added to it, then one more step
    lo = inc_lo + init_lo
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    words = np.empty(((k_bits + 7) // 8, stop - start), dtype=np.uint64)
    for row in words:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi
        xored, rot = hi ^ lo, hi >> np.uint64(58)
        np.right_shift(xored, rot, out=row)
        xored <<= (np.uint64(64) - rot) & np.uint64(63)
        row |= xored
    words &= _TOP_BITS
    words *= _GATHER_TOP
    words >>= _TOP_BYTE
    messages = words.astype(np.uint8)
    if k_bits % 8:
        messages[-1] &= np.uint8((1 << (k_bits % 8)) - 1)
    return messages


def block_messages(k_bits: int, seed: int, start: int, stop: int) -> Iterator[int]:
    """Messages start .. stop-1 as ints, each ``message_for_index(k_bits,
    seed, i)`` bit for bit: message `start` from ``message_for_index``
    itself, the rest from ``message_bytes`` in blocks of at most
    MESSAGE_BLOCK.

    A block has a fixed cost however few its messages (see the module
    doc), so the first message never waits for one.  A generator: nothing
    is drawn before the first message is asked for, and the next block
    only once the last is used up, so memory holds one block however long
    the range.
    """
    if start < stop:
        yield message_for_index(k_bits, seed, start)
    width = (k_bits + 7) // 8
    for low in range(start + 1, stop, MESSAGE_BLOCK):
        raw = message_bytes(k_bits, seed, low, min(low + MESSAGE_BLOCK, stop)).T.tobytes()
        for j in range(0, len(raw), width):
            yield int.from_bytes(raw[j : j + width], "little")


def sample_codewords(dual: DualCode, count: int, seed: int) -> Iterator[int]:
    """`count` seeded-uniform dual codewords; word i depends only on (seed, i).

    The arguments are checked at once; the words come lazily, their
    messages from ``block_messages``, so memory holds one block however
    large `count` is.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    return (encode(dual, message)
            for message in block_messages(dual.k_dual, seed, 0, count))


def column_reader(code: Union[CyclicCode, DualCode]):
    """Column j of the k x n generator matrix (row i = x^i g) as a k-bit int.

    Bit i is entry (i, j), the coefficient of x^(j-i) in g.  With R the
    reciprocal of g, of degree n - k, that is the k-bit window of
    R(x) x^(k-1) at bit n-1-j, read from bytes built once: O(k) per column.
    """
    k, n = code.dimension, code.n
    source = gf2m.reciprocal(code.generator) << (k - 1)
    source = source.to_bytes((n + 7) // 8, "little")
    mask = (1 << k) - 1

    def column(j: int) -> int:
        low = n - 1 - j
        window = int.from_bytes(source[low >> 3 : (low + k + 7) >> 3], "little")
        return (window >> (low & 7)) & mask

    return column


def word_to_bits(word: int, n: int) -> np.ndarray:
    """0/1 array of length n, coefficient of x^0 first."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(word.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def save_codewords(path, words: Iterable[int], n: int) -> None:
    """Write a codeword batch in the packed binary format (see module doc).

    Each record is written as `words` yields it, so an iterator is never
    held whole; the header's count is written once the last record is.
    """
    nbytes = (n + 7) // 8
    count = 0
    with open(path, "wb") as fh:
        fh.write(bytes(8))  # the header, filled in below
        for count, w in enumerate(words, 1):
            fh.write(w.to_bytes(nbytes, "little"))
        fh.seek(0)
        fh.write(struct.pack("<II", n, count))
