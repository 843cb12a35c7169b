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
g^-1 mod x^L by Newton iteration, a logarithmic number of multiplications.

A field is named by its degree alone: the field functions take m and
reduce modulo p(x) = PRIMITIVE_POLYS[m], so every run, on every machine,
works in the same GF(2^m) = GF(2)[x]/(p(x)).  There is no other modulus to
pass, and no table entry is re-checked at run time; the test suite
certifies each one primitive with ``is_primitive``.  A degree outside the
table raises UnsupportedDegreeError.  Elements are integers below 2^m
holding the reduced polynomial representation.  The residue class of x
(the integer 2) is written alpha throughout; because p is primitive, alpha
generates the full multiplicative group of order n = 2^m - 1.

Serialized form: a polynomial's bytes are its integer value little-endian,
so byte i carries the coefficients of x^(8i) .. x^(8i+7) with x^(8i) in the
least significant bit.  ``poly_to_hex`` / ``poly_from_hex`` implement this.
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
# re-verified by is_primitive() in the test suite.
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
    """Carry-less product of two GF(2) polynomials."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    acc = 0
    while b:
        lsb = b & -b
        acc ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return acc


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
        f = poly_mul(g & mask, int("0".join(format(f, "b")), 2)) & mask
    return f & ((1 << L) - 1)


def reciprocal(p: int) -> int:
    """Reciprocal polynomial x^deg(p) * p(1/x) (bit reversal)."""
    if p == 0:
        return 0
    return int(format(p, "b")[::-1], 2)


def poly_to_hex(p: int) -> str:
    """Hex string of the coefficient bits, lowest degree first (see module doc)."""
    if p < 0:
        raise InvalidInputError("polynomials are nonnegative integers")
    nbytes = max(1, (p.bit_length() + 7) // 8)
    return p.to_bytes(nbytes, "little").hex()


def poly_from_hex(s: str) -> int:
    """Inverse of poly_to_hex."""
    return int.from_bytes(bytes.fromhex(s), "little")


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


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


def is_primitive(p: int, m: int) -> bool:
    """True when x has multiplicative order 2^m - 1 modulo p.

    Order exactly 2^m - 1 forces p to be irreducible (a reducible modulus
    has a strictly smaller unit group), so this single check certifies
    primitivity.
    """
    if degree(p) != m or not (p & 1):
        return False
    n = (1 << m) - 1
    if n == 1:
        return True
    if _x_pow_mod(n, p) != 1:
        return False
    return all(_x_pow_mod(n // q, p) != 1 for q in _prime_factors(n))


def default_primitive_poly(m: int) -> int:
    """The canonical primitive polynomial of degree m from PRIMITIVE_POLYS."""
    try:
        return PRIMITIVE_POLYS[m]
    except KeyError:
        raise UnsupportedDegreeError(
            f"m={m} outside supported range 1..{MAX_DEGREE}"
        ) from None


def _field_modulus(m: int, *elements: int) -> int:
    """PRIMITIVE_POLYS[m], once each element is checked to lie in GF(2^m)."""
    modulus = default_primitive_poly(m)
    for a in elements:
        if not 0 <= a < (1 << m):
            raise InvalidInputError(
                f"element {a:#x} is wider than {m} bits; wrong field?"
            )
    return modulus


def field_mul(a: int, b: int, m: int) -> int:
    """Product in GF(2^m): carry-less multiply followed by reduction."""
    return poly_mod(poly_mul(a, b), _field_modulus(m, a, b))


def field_pow(a: int, e: int, m: int) -> int:
    """a^e in GF(2^m) (e >= 0)."""
    _field_modulus(m, a)
    result = 1
    base = a
    while e:
        if e & 1:
            result = field_mul(result, base, m)
        base = field_mul(base, base, m)
        e >>= 1
    return result


def alpha_pow(j: int, m: int) -> int:
    """alpha^j in GF(2^m), with alpha the residue class of x."""
    modulus = default_primitive_poly(m)
    return _x_pow_mod(j % ((1 << m) - 1), modulus)


def field_eval(poly: int, elem: int, m: int) -> int:
    """Evaluate a binary polynomial at an element of GF(2^m) (Horner)."""
    _field_modulus(m, elem)
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = field_mul(acc, elem, m) ^ ((poly >> i) & 1)
    return acc


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

    Expands prod_{j in coset(e)} (x + alpha^j) with coefficients in GF(2^m)
    and checks that every coefficient lands in {0, 1}; a wider coefficient
    means the field arithmetic is broken, which is reported as corruption
    rather than bad input.  The coset is walked as e, 2e, 4e, ..., so each
    root is the square of the one before.
    """
    modulus = default_primitive_poly(m)
    root = alpha_pow(e, m)
    # coeffs[i] is the GF(2^m) coefficient of x^i; every product of two
    # reduced elements is reduced again, so none is wider than m bits
    coeffs = [1]
    for _ in range(len(cyclotomic_coset(e, (1 << m) - 1))):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= poly_mod(poly_mul(c, root), modulus)
        coeffs = nxt
        root = poly_mod(poly_mul(root, root), modulus)
    result = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ArithmeticCorruptionError(
                f"minimal polynomial of alpha^{e} has non-binary coefficient "
                f"{c:#x} at x^{i}"
            )
        result |= c << i
    return result
