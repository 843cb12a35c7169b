"""GF(2) polynomial arithmetic and GF(2^m) field operations.

Polynomials over GF(2) are stored as plain Python integers: bit i of the
integer is the coefficient of x^i, so the lowest-degree coefficient sits
in the least significant bit.  Addition is XOR, the zero polynomial is 0,
and its degree is reported as -1 (the usual ``bit_length() - 1`` sentinel
standing in for "minus infinity").  All arithmetic here is on integers.

Division comes in two forms.  ``poly_mod`` reduces by shifted XORs, one per
quotient bit, which suits the small operands of field arithmetic.  An exact
quotient of a long polynomial, such as (x^n + 1) / g(x) with n near 10^6,
is read off the power series of 1/g instead: ``poly_inverse`` computes
g^-1 mod x^L by Newton iteration, a logarithmic number of steps, each one
squaring and one long product.

``poly_mul`` takes one of two routes, chosen by its shorter operand b of
length l.  Shifting the longer operand once per set bit of b costs that
many shifted XORs.  ``window_table`` tabulates the 16 multiples of the
longer operand by the polynomials of degree below 4, 15 shifted XORs, and
``window_mul`` walks b 4 bits at a time, one shifted XOR per window, so
15 + ceil(l/4) in all (``codes.encode`` walks its messages the same way).
The product takes the windows only when they cost fewer XORs.  It never
does when b has at most 21 bits, as field elements and minimal
polynomials up to m = 20 do; it does in most Newton steps and in the
check that g divides x^n + 1.

The square, f(x)^2 = f(x^2), spreads each byte of f to two through
``bytes.translate`` tables (``poly_square``), and ``reciprocal`` reverses
the byte order and, through one more table, the bits of each byte;
neither turns a long polynomial into a string of binary digits.

A field is named by its degree alone: ``alpha_pow`` and
``minimal_polynomial`` take m and reduce modulo p(x) = PRIMITIVE_POLYS[m],
so every run, on every machine, works in the same GF(2^m) = GF(2)[x]/(p(x)).
A degree outside the table raises UnsupportedDegreeError.  Elements are
integers below 2^m, the reduced polynomials, also m-bit vectors over GF(2).
The residue class of x (the integer 2) is written alpha throughout; because
p is primitive, alpha generates the multiplicative group of order 2^m - 1.

Minimal polynomials need only GF(2) linear algebra: that of beta is the
first relation among 1, beta, beta^2, ..., found by elimination on leading
bits.  No table entry is re-checked at run time; ``tests/oracles.py``
certifies each one primitive, and holds the field arithmetic and the
expansion prod (x + beta^(2^i)) over GF(2^m) that the tests check against.

Serialized form: a polynomial's bytes are its integer value little-endian,
so byte i carries the coefficients of x^(8i) .. x^(8i+7) with x^(8i) in the
least significant bit.  ``poly_to_hex`` implements this.
"""

from __future__ import annotations

from .errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    UnsupportedDegreeError,
)

# One canonical primitive polynomial per extension degree, so that every run
# (and every machine) works with the same alpha.  Entries are the classic
# minimum-weight primitive polynomials from the standard tables; each one is
# re-verified by is_primitive() in tests/oracles.py.
#
#   m= 1: x+1                   m=11: x^11+x^2+1
#   m= 2: x^2+x+1               m=12: x^12+x^6+x^4+x+1
#   m= 3: x^3+x+1               m=13: x^13+x^4+x^3+x+1
#   m= 4: x^4+x+1               m=14: x^14+x^10+x^6+x+1
#   m= 5: x^5+x^2+1             m=15: x^15+x+1
#   m= 6: x^6+x+1               m=16: x^16+x^12+x^3+x+1
#   m= 7: x^7+x^3+1             m=17: x^17+x^3+1
#   m= 8: x^8+x^4+x^3+x^2+1     m=18: x^18+x^7+1
#   m= 9: x^9+x^4+1             m=19: x^19+x^5+x^2+x+1
#   m=10: x^10+x^3+1            m=20: x^20+x^3+1
PRIMITIVE_POLYS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
}

MAX_DEGREE = max(PRIMITIVE_POLYS)


def degree(p: int) -> int:
    """Degree of a GF(2) polynomial (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials, bit-serial or by 4-bit
    windows over the longer operand, whichever costs fewer shifted XORs of
    it (see the module doc)."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if b.bit_count() > 15 + (b.bit_length() + 3) // 4:
        return window_mul(window_table(a), b)
    acc = 0
    while b:
        lsb = b & -b
        acc ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return acc


def window_table(a: int) -> tuple[int, ...]:
    """c(x) * a(x) for the 16 polynomials c of degree < 4, indexed by c."""
    table = [0] * 16
    for c in range(1, 16):
        low = c & -c
        table[c] = table[c ^ low] ^ (a << (low.bit_length() - 1))
    return tuple(table)


def window_mul(table: tuple[int, ...], b: int) -> int:
    """a(x) * b(x), given ``window_table(a)``: one shifted XOR per 4 bits of b."""
    acc, shift = 0, 0
    while b:
        acc ^= table[b & 15] << shift
        b >>= 4
        shift += 4
    return acc


# byte -> its bits at the even positions of 16 bits: the low byte of that
# spread for bits 0-3 of the byte, the high byte for bits 4-7
_SPREAD = [sum(((byte >> i) & 1) << (2 * i) for i in range(8)) for byte in range(256)]
_SPREAD_LOW = bytes(s & 0xFF for s in _SPREAD)
_SPREAD_HIGH = bytes(s >> 8 for s in _SPREAD)
_BIT_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def poly_square(f: int) -> int:
    """f(x)^2 = f(x^2) over GF(2): bit i of f moves to bit 2i.

    Byte i of f spreads to bytes 2i and 2i + 1 of the square, looked up in
    two translation tables.
    """
    raw = f.to_bytes((f.bit_length() + 7) // 8, "little")
    spread = bytearray(2 * len(raw))
    spread[0::2] = raw.translate(_SPREAD_LOW)
    spread[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(spread, "little")


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b.  Intended for small operands."""
    if b == 0:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def poly_inverse(g: int, L: int) -> int:
    """Power-series inverse g(x)^-1 mod x^L, for g(0) = 1.

    Newton's step f <- f * (2 - g*f) doubles the number of correct low
    coefficients; over GF(2) the 2f term vanishes, leaving f <- g * f^2.
    Squaring a GF(2) polynomial spreads its bits, f(x)^2 = f(x^2).
    """
    if not g & 1:
        raise InvalidInputError("power-series inverse needs g(0) = 1")
    f, t = 1, 1
    while t < L:
        t = min(2 * t, L)
        mask = (1 << t) - 1
        f = poly_mul(g & mask, poly_square(f)) & mask
    return f & ((1 << L) - 1)


def reciprocal(p: int) -> int:
    """Reciprocal polynomial x^deg(p) * p(1/x) (bit reversal).

    The bytes of p are read in reverse order with the bits of each byte
    reversed, which reverses all 8 * nbytes bits; the shift drops the zero
    bits that padded p's top byte, now at the bottom.
    """
    nbytes = (p.bit_length() + 7) // 8
    raw = p.to_bytes(nbytes, "little").translate(_BIT_REVERSED)
    return int.from_bytes(raw, "big") >> (8 * nbytes - p.bit_length())


def poly_to_hex(p: int) -> str:
    """Hex string of the coefficient bits, lowest degree first (see module doc)."""
    if p < 0:
        raise InvalidInputError("polynomials are nonnegative integers")
    nbytes = max(1, (p.bit_length() + 7) // 8)
    return p.to_bytes(nbytes, "little").hex()


def _x_pow_mod(e: int, modulus: int) -> int:
    """x^e reduced modulo the given polynomial, by square and multiply."""
    result = 1
    base = poly_mod(2, modulus)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), modulus)
        base = poly_mod(poly_mul(base, base), modulus)
        e >>= 1
    return result


def default_primitive_poly(m: int) -> int:
    """The canonical primitive polynomial of degree m from PRIMITIVE_POLYS."""
    try:
        return PRIMITIVE_POLYS[m]
    except KeyError:
        raise UnsupportedDegreeError(
            f"m={m} outside supported range 1..{MAX_DEGREE}"
        ) from None


def alpha_pow(j: int, m: int) -> int:
    """alpha^j in GF(2^m), with alpha the residue class of x."""
    modulus = default_primitive_poly(m)
    return _x_pow_mod(j % ((1 << m) - 1), modulus)


def cyclotomic_coset(e: int, n: int) -> set[int]:
    """Orbit of e under doubling modulo n: {e * 2^j mod n}."""
    if not 0 <= e < n:
        raise InvalidInputError(f"coset representative {e} outside [0, {n})")
    if n % 2 == 0:
        raise InvalidInputError("n must be odd")
    coset = {e}
    cur = (2 * e) % n
    while cur != e:
        coset.add(cur)
        cur = (2 * cur) % n
    return coset


def minimal_polynomial(e: int, m: int) -> int:
    """Minimal polynomial of alpha^e over GF(2), for 0 <= e < 2^m - 1.

    Reduces each beta^j (beta = alpha^e) against pivots keyed by leading
    bit and tagged with the powers summed into them, and returns the tag of
    the first power that reduces to 0.  Any degree but the size of e's
    cyclotomic coset means broken field arithmetic: corruption, not input.
    """
    modulus = default_primitive_poly(m)
    size = len(cyclotomic_coset(e, (1 << m) - 1))
    beta = alpha_pow(e, m)
    pivot: dict[int, tuple[int, int]] = {}
    power = 1
    while True:
        v, used = power, 1 << len(pivot)  # beta^j, j = len(pivot)
        while v.bit_length() in pivot:  # 0 has bit length 0, never a key
            pv, pu = pivot[v.bit_length()]
            v, used = v ^ pv, used ^ pu
        if not v:
            break
        pivot[v.bit_length()] = (v, used)
        power = poly_mod(poly_mul(power, beta), modulus)
    if degree(used) != size:
        raise ArithmeticCorruptionError(
            f"minimal polynomial of alpha^{e} has degree {degree(used)}, "
            f"but its cyclotomic coset has size {size}"
        )
    return used
