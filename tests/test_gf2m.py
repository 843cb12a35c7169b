"""Field and polynomial layer: examples, axioms, and the canonical table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from pseudospec import gf2m
from pseudospec.errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    UnsupportedDegreeError,
)


# --- reference implementations (kept deliberately naive) -------------------

def ref_poly_mul(a: int, b: int) -> int:
    """Schoolbook convolution of coefficient lists."""
    da, db = a.bit_length(), b.bit_length()
    out = [0] * (da + db)
    for i in range(da):
        if (a >> i) & 1:
            for j in range(db):
                if (b >> j) & 1:
                    out[i + j] ^= 1
    return sum(bit << i for i, bit in enumerate(out))


def ref_poly_mod(a: int, b: int) -> int:
    """Repeated subtraction of shifted b."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def ref_field_mul(a: int, b: int, modulus: int) -> int:
    return ref_poly_mod(ref_poly_mul(a, b), modulus)


# --- polynomial representation ---------------------------------------------

def test_degree_sentinel():
    assert gf2m.degree(0) == -1
    assert gf2m.degree(1) == 0
    assert gf2m.degree(0b10011) == 4


def test_poly_mul_matches_reference():
    rnd = random.Random(12)
    for _ in range(200):
        a = rnd.getrandbits(24)
        b = rnd.getrandbits(24)
        assert gf2m.poly_mul(a, b) == ref_poly_mul(a, b)


LENGTHS_AT_DOUBLINGS = [(1 << j) + d for j in range(10) for d in (-1, 0, 1)
                        if (1 << j) + d <= 700]


@settings(max_examples=200, deadline=None)
@given(
    g=st.integers(0, (1 << 299) - 1).map(lambda v: 2 * v + 1),
    L=st.one_of(st.integers(0, 700), st.sampled_from(LENGTHS_AT_DOUBLINGS)),
)
def test_poly_inverse_is_power_series_inverse(g, L):
    f = gf2m.poly_inverse(g, L)
    assert 0 <= f < 1 << L
    assert gf2m.poly_mul(g, f) & ((1 << L) - 1) == (1 if L else 0)


def test_poly_inverse_needs_unit_constant_term():
    for g in (0, 0b10, 0b110):
        with pytest.raises(InvalidInputError):
            gf2m.poly_inverse(g, 5)


def test_poly_mod_remainder_identity():
    rnd = random.Random(14)
    for _ in range(200):
        b = rnd.getrandbits(20) | (1 << 20)
        q = rnd.getrandbits(40)
        r = rnd.getrandbits(20)
        assert gf2m.poly_mod(gf2m.poly_mul(q, b) ^ r, b) == r


def long_operands(seed: int) -> list[int]:
    """0, 1, operands of exactly 7 .. 4,000 bits (multiples of 8 and not),
    and random ones of up to 4,000 bits."""
    rnd = random.Random(seed)
    exact = [rnd.getrandbits(bits) | 1 << (bits - 1)
             for bits in (7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257,
                          1000, 1024, 2047, 2048, 4000)]
    return [0, 1, 0b1000, 0xFF, 0x100, *exact,
            *(rnd.getrandbits(rnd.randint(1, 4000)) for _ in range(40))]


def test_reciprocal():
    assert gf2m.reciprocal(0b1011) == 0b1101
    assert gf2m.reciprocal(0) == 0
    assert gf2m.reciprocal(1) == 1
    assert gf2m.reciprocal(0b1000) == 1  # x^3: low zeros are dropped
    for p in long_operands(31):
        r = gf2m.reciprocal(p)
        assert r == oracles.reciprocal_by_string(p), p.bit_length()
        if p & 1:
            assert r.bit_length() == p.bit_length() and gf2m.reciprocal(r) == p


def test_poly_square_matches_string_form():
    for f in long_operands(32):
        square = gf2m.poly_square(f)
        assert square == oracles.square_by_string(f), f.bit_length()
        if f.bit_length() <= 300:
            assert square == ref_poly_mul(f, f)


def windowed(a: int, b: int) -> bool:
    """Whether ``poly_mul(a, b)`` walks 4-bit windows (the rule of the gf2m
    module doc), so that a test can show it covers both routes."""
    short = a if a.bit_length() < b.bit_length() else b
    return short.bit_count() > 15 + (short.bit_length() + 3) // 4


def at_rule(rnd: random.Random, length: int, extra: int) -> int:
    """An operand of `length` bits with 15 + ceil(length/4) + extra set:
    bit-serial at extra = 0, windowed at extra = 1."""
    ones = 15 + (length + 3) // 4 + extra
    low = rnd.sample(range(length - 1), ones - 1)
    return sum(1 << i for i in low) | 1 << (length - 1)


def test_poly_mul_windowed_matches_reference():
    # both routes of poly_mul, on pairs of up to 300 bits and on operands
    # with one set bit fewer and one more than the rule's bound, each
    # against the reference; the table and walk on their own as well
    rnd = random.Random(33)
    small = [0, 1, 0b10, 0b1111, 0b10000, *(rnd.getrandbits(rnd.randint(1, 200))
                                            for _ in range(30))]
    routes = set()
    for a in small:
        for b in small[::3]:
            expected = ref_poly_mul(a, b)
            assert gf2m.poly_mul(a, b) == expected
            assert gf2m.window_mul(gf2m.window_table(a), b) == expected
            routes.add(windowed(a, b))
    for length in (24, 25, 40, 64, 201):
        for extra in (0, 1):
            b = at_rule(rnd, length, extra)
            for a in (rnd.getrandbits(length + 1) | 1 << length,
                      rnd.getrandbits(300) | 1 << 299):
                expected = ref_poly_mul(a, b)
                assert gf2m.poly_mul(a, b) == expected
                assert gf2m.poly_mul(b, a) == expected
                assert windowed(a, b) == windowed(b, a) == bool(extra)
    assert routes == {False, True}


def test_poly_mul_windowed_long_and_lopsided_operands():
    # lopsided pairs in both orders: long operands against short ones on
    # the bit-serial side of the rule and 24-bit ones on the windowed side,
    # then long against 128-bit ones, windowed too; the reference's cost is
    # the first operand's set bits times the second's length
    rnd = random.Random(34)
    for a in long_operands(35):
        for b in [rnd.getrandbits(bits) for bits in (1, 3, 4, 5, 12)] + [at_rule(rnd, 24, 1)]:
            expected = ref_poly_mul(a, b)
            assert gf2m.poly_mul(a, b) == expected
            assert gf2m.poly_mul(b, a) == expected
            if a.bit_length() > b.bit_length():
                assert windowed(a, b) == (b.bit_length() == 24)
    for bits in (257, 1000, 2048, 4000):
        a = rnd.getrandbits(bits) | 1 << (bits - 1)
        b = rnd.getrandbits(128) | rnd.getrandbits(128) | 1 << 127
        expected = ref_poly_mul(a, b)
        assert gf2m.poly_mul(a, b) == expected
        assert gf2m.poly_mul(b, a) == expected
        assert windowed(a, b)


def test_hex_roundtrip():
    # x^8+x^7+x^6+x^4+1: little-endian bytes, x^0 in the LSB of byte 0
    g = 0b111010001
    assert gf2m.poly_to_hex(g) == "d101"
    for p in (0, 1, g, 0b10011, (1 << 100) | 1):
        assert oracles.poly_from_hex(gf2m.poly_to_hex(p)) == p


# --- primitive polynomial table --------------------------------------------

def test_table_covers_1_to_20_and_is_primitive():
    assert sorted(gf2m.PRIMITIVE_POLYS) == list(range(1, 21))
    for m, poly in gf2m.PRIMITIVE_POLYS.items():
        assert gf2m.degree(poly) == m
        assert oracles.is_primitive(poly, m), f"m={m} entry not primitive"


def test_default_primitive_poly_examples():
    assert gf2m.default_primitive_poly(4) == 0b10011  # x^4 + x + 1
    assert gf2m.default_primitive_poly(1) == 0b11     # x + 1
    m14 = gf2m.default_primitive_poly(14)
    assert oracles.is_primitive(m14, 14)
    with pytest.raises(UnsupportedDegreeError):
        gf2m.default_primitive_poly(21)
    with pytest.raises(UnsupportedDegreeError):
        gf2m.default_primitive_poly(0)


def test_primitive_poly_divides_xn_plus_1_and_nothing_smaller():
    # order-of-x characterization, checked literally for small m
    for m in (2, 3, 4, 5):
        p = gf2m.default_primitive_poly(m)
        n = (1 << m) - 1
        assert gf2m.poly_mod((1 << n) | 1, p) == 0
        for k in range(1, n):
            assert gf2m.poly_mod((1 << k) | 1, p) != 0


def test_is_primitive_rejects_reducible_and_nonprimitive():
    assert not oracles.is_primitive(0b11111, 4)   # x^4+x^3+x^2+x+1 divides x^5+1
    assert not oracles.is_primitive(0b10101, 4)   # (x^2+x+1)^2, reducible
    assert oracles.is_primitive(0b11001, 4)       # x^4+x^3+1, the other primitive


# --- field arithmetic -------------------------------------------------------

def test_field_mul_example():
    # alpha^3 * alpha = alpha^4 = alpha + 1 under x^4 + x + 1
    assert oracles.field_mul(0b1000, 0b0010, 4) == 0b0011


def test_field_mul_identity_and_zero():
    for a in range(16):
        assert oracles.field_mul(a, 1, 4) == a
        assert oracles.field_mul(a, 0, 4) == 0


def test_field_mul_matches_reference():
    rnd = random.Random(7)
    for m in (2, 4, 8):
        modulus = gf2m.default_primitive_poly(m)
        for _ in range(100):
            a = rnd.getrandbits(m)
            b = rnd.getrandbits(m)
            assert oracles.field_mul(a, b, m) == ref_field_mul(a, b, modulus)


def test_field_axioms_random_triples():
    rnd = random.Random(99)
    for m in (3, 5, 10):
        n = (1 << m) - 1
        for _ in range(50):
            a, b, c = (rnd.getrandbits(m) for _ in range(3))
            assert oracles.field_mul(a, b ^ c, m) == (
                oracles.field_mul(a, b, m) ^ oracles.field_mul(a, c, m)
            )
            assert oracles.field_mul(oracles.field_mul(a, b, m), c, m) == (
                oracles.field_mul(a, oracles.field_mul(b, c, m), m)
            )
            if a:
                # a * a^(2^m - 2) = 1: the (n-1)-th power is the inverse
                assert oracles.field_mul(a, oracles.field_pow(a, n - 1, m), m) == 1
                assert oracles.field_pow(a, n, m) == oracles.field_pow(a, 0, m) == 1


def test_field_mul_rejects_wide_elements():
    with pytest.raises(InvalidInputError):
        oracles.field_mul(0b10000, 1, 4)


@pytest.mark.parametrize("m", [-1, 0, 21])
def test_field_functions_reject_unsupported_degree(m):
    for call in (lambda: oracles.field_mul(1, 1, m), lambda: oracles.field_pow(1, 3, m),
                 lambda: gf2m.alpha_pow(1, m), lambda: oracles.field_eval(0b11, 1, m),
                 lambda: gf2m.minimal_polynomial(0, m)):
        with pytest.raises(UnsupportedDegreeError):
            call()


# --- cyclotomic cosets ------------------------------------------------------

def test_coset_examples():
    assert gf2m.cyclotomic_coset(1, 15) == {1, 2, 4, 8}
    assert gf2m.cyclotomic_coset(5, 15) == {5, 10}
    assert gf2m.cyclotomic_coset(0, 15) == {0}


def test_coset_preconditions():
    with pytest.raises(InvalidInputError):
        gf2m.cyclotomic_coset(15, 15)
    with pytest.raises(InvalidInputError):
        gf2m.cyclotomic_coset(1, 14)


# --- minimal polynomials ----------------------------------------------------

def test_minimal_polynomial_examples():
    assert gf2m.minimal_polynomial(1, 4) == gf2m.default_primitive_poly(4)
    assert gf2m.minimal_polynomial(5, 4) == 0b111   # x^2 + x + 1
    assert gf2m.minimal_polynomial(0, 4) == 0b11    # x + 1
    assert gf2m.minimal_polynomial(0, 1) == 0b11    # GF(2): alpha = 1
    with pytest.raises(InvalidInputError):
        gf2m.minimal_polynomial(15, 4)              # exponents live mod n


def test_minimal_polynomial_degree_and_root():
    for m in (3, 4, 6, 10):
        n = (1 << m) - 1
        for e in (0, 1, 3, 5, n - 1):
            mp = gf2m.minimal_polynomial(e, m)
            assert gf2m.degree(mp) == len(gf2m.cyclotomic_coset(e, n))
            root = gf2m.alpha_pow(e, m)
            assert oracles.field_eval(mp, root, m) == 0


def _oracle_cases():
    """Every e at m <= 10; the coset leaders below 200, n - 2 and n - 1 above."""
    for m in range(1, 21):
        n = (1 << m) - 1
        if m <= 10:
            yield from ((e, m) for e in range(n))
            continue
        for e in range(200):
            if e == min(gf2m.cyclotomic_coset(e, n)):
                yield e, m
        yield from ((n - 2, m), (n - 1, m))


def test_minimal_polynomial_matches_expansion():
    # the GF(2) elimination against the root-by-root expansion over GF(2^m)
    cases = list(_oracle_cases())
    assert len(cases) == 3048
    for e, m in cases:
        expected = oracles.minimal_polynomial(e, m)
        assert gf2m.minimal_polynomial(e, m) == expected, (e, m)


def test_minimal_polynomial_wrong_degree_is_corruption(monkeypatch):
    # alpha^21 has the coset {21, 42} at m = 6, so its minimal polynomial
    # x^2 + x + 1 is too short for e = 3, whose coset has 6 elements; the
    # expansion over GF(2^m) would return (x^2 + x + 1)^3, all binary
    real = gf2m.alpha_pow
    monkeypatch.setattr(gf2m, "alpha_pow",
                        lambda j, m: real(21 if (j, m) == (3, 6) else j, m))
    with pytest.raises(ArithmeticCorruptionError, match="degree 2.*size 6"):
        gf2m.minimal_polynomial(3, 6)
