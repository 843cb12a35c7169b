"""Field and polynomial layer: examples, axioms, and the canonical table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import gf2m
from pseudospec.errors import InvalidInputError, UnsupportedDegreeError


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


def test_reciprocal():
    assert gf2m.reciprocal(0b1011) == 0b1101
    assert gf2m.reciprocal(0) == 0
    assert gf2m.reciprocal(1) == 1


def test_hex_roundtrip():
    # x^8+x^7+x^6+x^4+1: little-endian bytes, x^0 in the LSB of byte 0
    g = 0b111010001
    assert gf2m.poly_to_hex(g) == "d101"
    for p in (0, 1, g, 0b10011, (1 << 100) | 1):
        assert gf2m.poly_from_hex(gf2m.poly_to_hex(p)) == p


# --- primitive polynomial table --------------------------------------------

def test_table_covers_1_to_20_and_is_primitive():
    assert sorted(gf2m.PRIMITIVE_POLYS) == list(range(1, 21))
    for m, poly in gf2m.PRIMITIVE_POLYS.items():
        assert gf2m.degree(poly) == m
        assert gf2m.is_primitive(poly, m), f"m={m} entry not primitive"


def test_default_primitive_poly_examples():
    assert gf2m.default_primitive_poly(4) == 0b10011  # x^4 + x + 1
    assert gf2m.default_primitive_poly(1) == 0b11     # x + 1
    m14 = gf2m.default_primitive_poly(14)
    assert gf2m.is_primitive(m14, 14)
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
    assert not gf2m.is_primitive(0b11111, 4)   # x^4+x^3+x^2+x+1 divides x^5+1
    assert not gf2m.is_primitive(0b10101, 4)   # (x^2+x+1)^2, reducible
    assert gf2m.is_primitive(0b11001, 4)       # x^4+x^3+1, the other primitive


# --- field arithmetic -------------------------------------------------------

def test_field_mul_example():
    # alpha^3 * alpha = alpha^4 = alpha + 1 under x^4 + x + 1
    assert gf2m.field_mul(0b1000, 0b0010, 4) == 0b0011


def test_field_mul_identity_and_zero():
    for a in range(16):
        assert gf2m.field_mul(a, 1, 4) == a
        assert gf2m.field_mul(a, 0, 4) == 0


def test_field_mul_matches_reference():
    rnd = random.Random(7)
    for m in (2, 4, 8):
        modulus = gf2m.default_primitive_poly(m)
        for _ in range(100):
            a = rnd.getrandbits(m)
            b = rnd.getrandbits(m)
            assert gf2m.field_mul(a, b, m) == ref_field_mul(a, b, modulus)


def test_field_axioms_random_triples():
    rnd = random.Random(99)
    for m in (3, 5, 10):
        n = (1 << m) - 1
        for _ in range(50):
            a, b, c = (rnd.getrandbits(m) for _ in range(3))
            assert gf2m.field_mul(a, b ^ c, m) == (
                gf2m.field_mul(a, b, m) ^ gf2m.field_mul(a, c, m)
            )
            assert gf2m.field_mul(gf2m.field_mul(a, b, m), c, m) == (
                gf2m.field_mul(a, gf2m.field_mul(b, c, m), m)
            )
            if a:
                # a * a^(2^m - 2) = 1: the (n-1)-th power is the inverse
                assert gf2m.field_mul(a, gf2m.field_pow(a, n - 1, m), m) == 1
                assert gf2m.field_pow(a, n, m) == gf2m.field_pow(a, 0, m) == 1


def test_field_mul_rejects_wide_elements():
    with pytest.raises(InvalidInputError):
        gf2m.field_mul(0b10000, 1, 4)


@pytest.mark.parametrize("m", [-1, 0, 21])
def test_field_functions_reject_unsupported_degree(m):
    for call in (lambda: gf2m.field_mul(1, 1, m), lambda: gf2m.field_pow(1, 3, m),
                 lambda: gf2m.alpha_pow(1, m), lambda: gf2m.field_eval(0b11, 1, m),
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
            assert gf2m.field_eval(mp, root, m) == 0
