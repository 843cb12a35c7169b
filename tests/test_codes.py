"""BCH construction, duals, encoding, sampling, exact distances."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from pseudospec import codes, gf2m
from pseudospec.errors import (
    ArithmeticCorruptionError,
    DegenerateCodeError,
    InvalidInputError,
    UnsupportedDegreeError,
)


def weight(word: int) -> int:
    return word.bit_count()


def all_codewords(code) -> list[int]:
    """Every codeword, in message order, straight from the generator."""
    return [gf2m.poly_mul(msg, code.generator) for msg in range(1 << code.dimension)]


@pytest.fixture(scope="module")
def bch_15_7():
    return codes.bch_generator(4, 5)


@pytest.fixture(scope="module")
def hamming_7_4():
    return codes.bch_generator(3, 3)


# --- generator construction -------------------------------------------------

def test_bch_15_7_generator(bch_15_7):
    # lcm over cosets {1,2,4,8} and {3,6,12,9}; cross-check by direct product
    m1 = gf2m.minimal_polynomial(1, bch_15_7.m)
    m3 = gf2m.minimal_polynomial(3, bch_15_7.m)
    assert bch_15_7.generator == gf2m.poly_mul(m1, m3)
    assert bch_15_7.generator == 0b111010001  # x^8+x^7+x^6+x^4+1
    assert bch_15_7.k == 7


def test_bch_15_11_hamming():
    code = codes.bch_generator(4, 3)
    assert code.generator == 0b10011  # the field modulus itself
    assert code.k == 11


def test_bch_dimension_bound():
    # k >= n - m*t for a spread of parameters
    for m, delta in [(4, 5), (5, 7), (6, 11), (8, 9), (10, 15), (12, 25)]:
        code = codes.bch_generator(m, delta)
        t = (delta - 1) // 2
        assert code.k >= code.n - m * t


def test_bch_full_scale_dimension():
    # designed distance 15 at m=14 keeps 16285 information bits; dimension
    # 16173 (the classic tooling's (16383, 16173) code) needs distance 31
    assert codes.bch_generator(14, 15).k == 16285
    code = codes.bch_generator(14, 31)
    assert (code.n, code.k) == (16383, 16173)
    assert gf2m.degree(code.generator) == 210
    assert codes.delta_for_dimension(14, 16173) == 31


def test_delta_for_dimension_small():
    assert codes.delta_for_dimension(4, 7) == 5
    assert codes.delta_for_dimension(4, 11) == 3
    with pytest.raises(InvalidInputError):
        codes.delta_for_dimension(4, 10)  # no such dimension


def test_delta_for_dimension_names_nearest_codes():
    # between two BCH dimensions the message names both; above the largest
    # (k = 11 at delta = 3) there is only the one below
    with pytest.raises(InvalidInputError) as info:
        codes.delta_for_dimension(4, 10)
    assert str(info.value) == (
        "no BCH code of length 15 has dimension 10 "
        "(nearest: k=11 at delta=3 above, k=7 at delta=5 below)"
    )
    with pytest.raises(InvalidInputError) as info:
        codes.delta_for_dimension(4, 12)
    assert str(info.value) == (
        "no BCH code of length 15 has dimension 12 "
        "(nearest: k=11 at delta=3 below)"
    )


def test_delta_for_dimension_is_least_odd_delta():
    # against a search over every code: the least odd delta of dimension k,
    # or an error exactly when no BCH code has that dimension
    for m in range(2, 9):
        n = (1 << m) - 1
        first = {}
        for delta in range(n, 2, -2):
            first[codes.bch_generator(m, delta).k] = delta
        for k in range(1, n):
            if k in first:
                assert codes.delta_for_dimension(m, k) == first[k], (m, k)
            else:
                with pytest.raises(InvalidInputError, match="no BCH code"):
                    codes.delta_for_dimension(m, k)


def test_delta_for_dimension_matches_upward_walk():
    # every k at every m <= 10, on both sides of n/2: the same delta, or
    # the same error text for a k that no BCH code has
    for m in range(2, 11):
        for k in range(1, (1 << m) - 1):
            try:
                expected = oracles.delta_for_dimension_upward(m, k)
            except InvalidInputError as exc:
                with pytest.raises(InvalidInputError) as info:
                    codes.delta_for_dimension(m, k)
                assert str(info.value) == str(exc), (m, k)
            else:
                assert codes.delta_for_dimension(m, k) == expected, (m, k)


def test_low_dimension_walks_down_from_half(monkeypatch):
    # k = 21 at m = 20 is {0} and the last coset of 20 below n/2, found
    # 257 odd candidates down from n/2; the walk up would visit some 262,000
    visited, real = [], gf2m.cyclotomic_coset
    monkeypatch.setattr(gf2m, "cyclotomic_coset",
                        lambda e, n: visited.append(e) or real(e, n))
    delta = codes.delta_for_dimension(20, 21)
    assert 0 < len(visited) <= 300
    assert codes.bch_generator(20, delta).k == 21
    assert codes.bch_generator(20, delta - 2).k > 21  # the least such delta


def test_bch_generator_matches_root_product():
    # every odd delta at m <= 8, so both routes run: the roots' product up
    # to delta ~ n/4, x^n + 1 over the non-root cosets' product above it
    for m in range(2, 9):
        n = (1 << m) - 1
        for delta in range(3, n + 1, 2):
            code = codes.bch_generator(m, delta)
            g = oracles.bch_generator_by_roots(m, delta)
            assert code.generator == g, (m, delta)
            assert code.k == n - gf2m.degree(g)


def test_low_dimension_code_forms_only_non_root_minimal_polynomials(monkeypatch):
    # k = 17 at m = 16 leaves {0} and one coset of 16: one minimal
    # polynomial, where the roots' product would need 4,113
    formed, real = [], gf2m.minimal_polynomial
    monkeypatch.setattr(gf2m, "minimal_polynomial",
                        lambda e, m: formed.append(e) or real(e, m))
    delta = codes.delta_for_dimension(16, 17)
    code = codes.bch_generator(16, delta)
    assert code.k == 17
    assert len(formed) == 1 and formed[0] >= delta
    assert gf2m.degree(code.generator) == (1 << 16) - 1 - 17


def test_wrong_degree_minimal_polynomial_rejected(monkeypatch):
    # alpha^21 has a coset of size 2 at m = 6, so a generator built from its
    # minimal polynomial in place of alpha^3's still divides x^63 + 1, and
    # has dimension 55 where the cosets {1, ..} and {3, ..} leave 51
    real = gf2m.minimal_polynomial
    monkeypatch.setattr(gf2m, "minimal_polynomial",
                        lambda e, m: real(21 if (e, m) == (3, 6) else e, m))
    with pytest.raises(ArithmeticCorruptionError, match="51"):
        codes.bch_generator(6, 5)


def test_even_delta_promoted():
    with pytest.warns(UserWarning):
        even = codes.bch_generator(4, 4)
    odd = codes.bch_generator(4, 5)
    assert even.generator == odd.generator
    assert even.delta == 5


def test_degenerate_code_rejected():
    with pytest.raises(DegenerateCodeError):
        codes.bch_generator(4, 31)  # delta way past n = 15
    with pytest.raises(InvalidInputError):
        codes.bch_generator(4, 2)


def _outcome(build, m, delta):
    """(exception class or None, delta) of one construction attempt."""
    try:
        return None, build(m, delta)
    except InvalidInputError as exc:
        return type(exc), None


@pytest.mark.filterwarnings("ignore:even designed distance")
def test_designed_distance_owns_bch_rules():
    # designed_distance raises exactly when bch_generator does, with the
    # same class, and otherwise returns the delta the code is built with
    for m in range(1, 9):
        n = (1 << m) - 1
        for delta in range(-1, n + 4):
            checked = _outcome(codes.designed_distance, m, delta)
            built = _outcome(lambda m, d: codes.bch_generator(m, d).delta, m, delta)
            assert checked == built, (m, delta)
            if checked[0] is None:
                assert checked[1] == delta + 1 - delta % 2 <= n
            else:
                assert checked[0] is (
                    InvalidInputError if delta < 3 else DegenerateCodeError)


def test_designed_distance_range_of_m():
    for m in (-1, 0, 21):
        with pytest.raises(UnsupportedDegreeError):
            codes.designed_distance(m, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only bch_generator warns on promotion
        assert codes.designed_distance(14, 30) == 31
    assert codes.designed_distance(3, 7) == 7  # delta = n: the repetition code, k = 1


def test_generator_divides_xn_plus_1(bch_15_7):
    n = bch_15_7.n
    assert gf2m.poly_mod((1 << n) | 1, bch_15_7.generator) == 0


@pytest.mark.parametrize("generator, error", [
    (1 << 16 | 1, InvalidInputError),        # degree 16 > n = 15
    (0b100110, InvalidInputError),           # even: x * (x^4 + x + 1)
    (0b10101, InvalidInputError),            # (x^2 + x + 1)^2 does not divide
    (0, InvalidInputError),
    (-0b10011, InvalidInputError),           # not a polynomial
    (1 << 15 | 1, DegenerateCodeError),      # x^n + 1 itself: k = 0
], ids=["degree-above-n", "even", "non-divisor", "zero", "negative", "x^n+1"])
def test_cyclic_code_generator_edge_cases(generator, error):
    with pytest.raises(error):
        codes.CyclicCode(m=4, generator=generator)


@pytest.mark.parametrize("m", [-1, 0, 21])
def test_cyclic_code_unsupported_degree(m):
    with pytest.raises(UnsupportedDegreeError):
        codes.CyclicCode(m=m, generator=0b11)


def test_cyclic_code_cofactor():
    assert codes.CyclicCode(m=4, generator=1)._cofactor == 1 << 15 | 1
    # (x^15 + 1) / (x^4 + x + 1) = x^11 + x^8 + x^7 + x^5 + x^3 + x^2 + x + 1
    code = codes.CyclicCode(m=4, generator=0b10011)
    assert code._cofactor == 0b100110101111


@pytest.mark.parametrize("m", [10, 20])
def test_low_dimension_code_walks_its_short_cofactor(monkeypatch, m):
    # k = 1: g = 1 + x + ... + x^(n-1) has n bits and h = x + 1 has 2, so
    # the check h * g = x^n + 1 must walk h, never g; walking g's windows
    # costs n/4 shifts of an n-bit word, seconds rather than milliseconds
    # at m = 20 (built from g there, not from the product of 52,486
    # minimal polynomials).  With two set bits in h, poly_mul takes the
    # bit-serial route, two shifts of g; a walk of windows must be of the
    # shorter operand
    walked, real = [], gf2m.window_mul  # (tabulated, walked) bit lengths
    monkeypatch.setattr(gf2m, "window_mul", lambda table, b: (
        walked.append((table[1].bit_length(), b.bit_length())) or real(table, b)))
    n = (1 << m) - 1
    code = (codes.bch_generator(m, codes.delta_for_dimension(m, 1)) if m == 10
            else codes.CyclicCode(m=m, generator=(1 << n) - 1))
    assert code.generator == (1 << n) - 1 and code.k == 1
    assert code._cofactor == 0b11
    assert all(b <= a for a, b in walked)
    dual = codes.dual_code(code)
    assert dual.generator == 0b11 and dual.k_dual == n - 1


# --- duals -------------------------------------------------------------------

def test_dual_of_hamming_is_simplex(hamming_7_4):
    dual = codes.dual_code(hamming_7_4)
    # h = (x^7+1)/(x^3+x+1) = x^4+x^2+x+1, reciprocal x^4+x^3+x^2+1
    assert dual.generator == 0b11101
    assert dual.k_dual == 3
    words = all_codewords(dual)
    assert len(set(words)) == 8
    assert all(weight(w) == 4 for w in words if w)
    # orthogonality against every base codeword
    for w in words:
        for b in all_codewords(hamming_7_4):
            assert weight(w & b) % 2 == 0


def test_dual_dimension(bch_15_7):
    assert codes.dual_code(bch_15_7).k_dual == 8


def test_dual_of_full_space_degenerate():
    full = codes.CyclicCode(m=3, generator=1)
    with pytest.raises(DegenerateCodeError):
        codes.dual_code(full)


def test_sampled_duality_random_pairs():
    code = codes.bch_generator(6, 7)
    dual = codes.dual_code(code)
    words = list(codes.sample_codewords(dual, 50, seed=5))
    base_words = [gf2m.poly_mul(msg, code.generator) for msg in (1, 0b1011)]
    for w in words:
        for b in base_words:
            assert weight(w & b) % 2 == 0


# --- encoding ----------------------------------------------------------------

def test_encode_basics(hamming_7_4):
    dual = codes.dual_code(hamming_7_4)
    assert codes.encode(dual, 0) == 0
    assert codes.encode(dual, 1) == dual.generator
    with pytest.raises(InvalidInputError):
        codes.encode(dual, 1 << dual.k_dual)


def test_encode_length_gives_codeword_prefix():
    dual = codes.dual_code(codes.bch_generator(8, 7))
    for message in (1, 0xDEADBEEF & ((1 << dual.k_dual) - 1), (1 << dual.k_dual) - 1):
        word = codes.encode(dual, message)
        for length in (1, 7, 8, 100, dual.n - dual.k_dual, dual.n):
            assert codes.encode(dual, message, length) == word & ((1 << length) - 1)
    for length in (0, dual.n + 1):
        with pytest.raises(InvalidInputError):
            codes.encode(dual, 1, length)
    with pytest.raises(InvalidInputError):  # the message range check stays
        codes.encode(dual, 1 << dual.k_dual, 8)


@pytest.fixture(scope="module")
def windowed_duals():
    """Duals at m = 4, 10 and 14, the last the full-scale m=14 code."""
    return {m: codes.dual_code(codes.bch_generator(m, delta))
            for m, delta in ((4, 5), (10, 15), (14, 31))}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_windowed_encode_matches_serial_product(windowed_duals, data):
    # the 4-bit windowed prefix, and at length n the whole codeword, against
    # the bit-serial product, masked
    dual = windowed_duals[data.draw(st.sampled_from([4, 10, 14]), label="m")]
    k, n = dual.k_dual, dual.n
    message = data.draw(st.one_of(st.just(0), st.just((1 << k) - 1),
                                  st.integers(0, (1 << k) - 1)), label="message")
    length = data.draw(st.one_of(st.just(n), st.integers(1, 8),
                                 st.integers(1, n)), label="length")
    mask = (1 << length) - 1
    expected = gf2m.poly_mul(message, dual.generator & mask) & mask
    assert codes.encode(dual, message, length) == expected
    if length == n:
        assert codes.encode(dual, message) == expected


def test_encode_linearity_and_uniqueness(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    seen = set()
    for m1 in range(1 << dual.k_dual):
        seen.add(codes.encode(dual, m1))
    assert len(seen) == 1 << dual.k_dual  # injective, so uniform at the source
    for m1, m2 in [(3, 12), (100, 200), (255, 1)]:
        assert codes.encode(dual, m1 ^ m2) == codes.encode(dual, m1) ^ codes.encode(
            dual, m2
        )


def test_codewords_divisible_by_generator(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    for w in codes.sample_codewords(dual, 3, seed=42):
        assert gf2m.poly_mod(w, dual.generator) == 0


# --- seeded sampling ----------------------------------------------------------

def test_sampling_deterministic(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    a = list(codes.sample_codewords(dual, 20, seed=7))
    b = list(codes.sample_codewords(dual, 20, seed=7))
    assert a == b
    # prefix property: the first 5 of a longer run match a shorter run
    assert list(codes.sample_codewords(dual, 5, seed=7)) == a[:5]
    assert list(codes.sample_codewords(dual, 20, seed=8)) != a


def test_message_for_index_is_per_index():
    m1 = codes.message_for_index(64, seed=1, index=0)
    m2 = codes.message_for_index(64, seed=1, index=1)
    assert m1 != m2
    assert codes.message_for_index(64, seed=1, index=0) == m1


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 5, 15, 64, 70, 210, 320]),
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3, 2**96]),
        st.integers(0, 2**160),
    ),
    where=st.sampled_from(["zero", "cross", "end", "any"]),
    size=st.integers(1, 12),
    anywhere=st.integers(0, 2**32 - 12),
    far=st.one_of(st.sampled_from([2**32, 2**64 - 1, 2**64]),
                  st.integers(2**32, 2**96)),
)
def test_message_bits_matches_message_for_index(k, seed, where, size, anywhere, far):
    # blocks at 0, across the 4,096 batch boundary, ending exactly at 2^32
    # (the last one-word index), and anywhere in between; both paths
    # against default_rng itself
    start = {"zero": 0, "cross": 4096 - size // 2, "end": 2**32 - size,
             "any": anywhere}[where]
    bits = codes.message_bits(k, seed, start, start + size)
    assert bits.shape == (size, k) and bits.dtype == np.uint8
    for j, row in enumerate(bits):
        message = oracles.message_for_index(k, seed, start + j)
        assert codes.message_for_index(k, seed, start + j) == message
        assert row.tolist() == codes.word_to_bits(message, k).tolist()
    # indices of two and three entropy words, which only the scalar path
    # takes, seeds of one to six
    assert codes.message_for_index(k, seed, far) == oracles.message_for_index(k, seed, far)


# (k_bits, seed, index, message as hex), recorded with numpy 2.4.6's
# default_rng, so the message stream does not rest on the installed numpy
PINNED_MESSAGES = [
    (70, 1, 0, "0e45c40855fd75bab3"),
    (210, 1, 0, "2e58cb61666a13f38123a0444d60afbcc04ce45c40855fd75bab3"),
    (70, 2**32 + 5, 0, "152e59afcfa89d4997"),
    (64, 2**32 - 1, 4095, "66990c4c1a75cd08"),
    (5, 0, 2**40 + 7, "16"),
    (320, 2**70, 2**32, "cee425fd589e3b6e4634ae5f2fd24cc1e70439187809e04d"
                        "8613b6cfd12c2c36978728c16185454f"),
]


@pytest.mark.parametrize("k, seed, index, message", PINNED_MESSAGES)
def test_message_for_index_pinned(k, seed, index, message):
    assert codes.message_for_index(k, seed, index) == int(message, 16)
    if index < 2**32:
        row = codes.message_bits(k, seed, index, index + 1)[0]
        assert row.tolist() == codes.word_to_bits(int(message, 16), k).tolist()


def test_message_for_index_validation():
    # a negative seed or index has no entropy words; it is refused, not
    # hashed as some other nonnegative one
    for seed, index in ((-1, 0), (0, -1), (-(2**40), 3)):
        with pytest.raises(InvalidInputError):
            codes.message_for_index(8, seed, index)
    assert codes.message_for_index(0, 1, 2) == 0


def test_message_bits_validation():
    assert codes.message_bits(8, 1, 2**32, 2**32).shape == (0, 8)
    with pytest.raises(InvalidInputError):
        codes.message_bits(8, 1, 2**32 - 1, 2**32 + 1)
    with pytest.raises(InvalidInputError):
        codes.message_bits(8, 1, 5, 4)
    with pytest.raises(InvalidInputError):
        codes.message_bits(8, -1, 0, 4)


# message widths around whole bytes and whole outputs of 64 bits, and the
# dual dimensions of the m = 10 and m = 14 codes; block sizes around one
# uint64 word of messages, up to a full MESSAGE_BLOCK
WORD_MAJOR_KS = (1, 7, 8, 9, 63, 64, 65, 70, 210, 320)
WORD_MAJOR_BLOCKS = [(start, size) for size in (1, 63, 64, 65, 130, 4096)
                     for start in (0, 12_345, 2**32 - size)]


@pytest.mark.parametrize("start, size", WORD_MAJOR_BLOCKS)
def test_message_words_match_message_for_index(start, size):
    # bit j of a message is draw j of one stream, so the message at k is
    # the low k bits of the message at 320; the first and last message of
    # the block are also drawn at k itself
    seed, widest = 5, max(WORD_MAJOR_KS)
    reference = [codes.message_for_index(widest, seed, start + i) for i in range(size)]
    raw = np.random.default_rng((seed, start)).bit_generator.random_raw(widest // 8)
    for k in WORD_MAJOR_KS:
        words = codes.message_words(k, seed, start, start + size)
        assert words.shape == ((k + 7) // 8, size) and words.dtype == np.dtype("<u8")
        assert words[:, 0].tolist() == raw[: (k + 7) // 8].tolist()  # row j: output j
        top = np.ascontiguousarray(words.T).view(np.uint8)[:, :k] >> 7
        packed = np.packbits(top, axis=1, bitorder="little").tobytes()
        width = (k + 7) // 8
        messages = [int.from_bytes(packed[i : i + width], "little")
                    for i in range(0, len(packed), width)]
        assert messages == [m & ((1 << k) - 1) for m in reference]
        for i in (0, size - 1):
            assert messages[i] == codes.message_for_index(k, seed, start + i)
        assert np.array_equal(codes.message_bits(k, seed, start, start + size), top)


def test_sample_codewords_cross_a_block(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    words = list(codes.sample_codewords(dual, 4096 + 3, seed=2**32))
    for i in (0, 4095, 4096, 4098):
        message = codes.message_for_index(dual.k_dual, 2**32, i)
        assert words[i] == codes.encode(dual, message)


def test_sample_count_validation(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    with pytest.raises(InvalidInputError):
        codes.sample_codewords(dual, 0, seed=1)
    with pytest.raises(InvalidInputError):
        codes.sample_codewords(dual, 1, seed=-1)


# --- exact minimum distance -----------------------------------------------

def test_min_distance_oracles(bch_15_7, hamming_7_4):
    assert oracles.min_distance_exact(bch_15_7) == 5
    assert oracles.min_distance_exact(hamming_7_4) == 3
    assert oracles.min_distance_exact(codes.dual_code(hamming_7_4)) == 4


def test_min_distance_matches_designed_lower_bound():
    for m, delta in [(4, 5), (5, 5), (5, 7), (6, 15)]:
        code = codes.bch_generator(m, delta)
        if code.k <= 16:
            assert oracles.min_distance_exact(code) >= delta


def test_min_distance_budget():
    code = codes.bch_generator(10, 15)  # k = 953
    with pytest.raises(oracles.EnumerationBudgetError):
        oracles.min_distance_exact(code)


def test_min_distance_agrees_with_bruteforce_weights(hamming_7_4):
    # independent enumeration through the generator matrix
    G = oracles.generator_matrix(hamming_7_4)
    best = min(
        int(np.mod(np.array(msg) @ G, 2).sum())
        for msg in itertools.product((0, 1), repeat=G.shape[0])
        if any(msg)
    )
    assert oracles.min_distance_exact(hamming_7_4) == best


# --- bit conversion and serialization ---------------------------------------

def test_word_to_bits_order():
    bits = codes.word_to_bits(0b1101, 6)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0]  # x^0 first


def test_generator_matrix_rows_are_shifts(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    G = oracles.generator_matrix(dual)
    assert G.shape == (dual.k_dual, dual.n)
    for j in range(dual.k_dual):
        row_word = int.from_bytes(
            np.packbits(G[j], bitorder="little").tobytes(), "little"
        )
        assert row_word == dual.generator << j


def test_codeword_file_roundtrip(tmp_path, bch_15_7):
    dual = codes.dual_code(bch_15_7)
    words = list(codes.sample_codewords(dual, 7, seed=9))
    path = tmp_path / "words.bin"
    codes.save_codewords(path, words, dual.n)
    assert oracles.read_codewords(path) == (dual.n, words)
    raw = path.read_bytes()
    assert raw[:8] == (15).to_bytes(4, "little") + (7).to_bytes(4, "little")


def test_codeword_file_length_checked(tmp_path):
    # what the writer promises a reader: exactly `count` records of
    # ceil(n/8) bytes after the header, none with a bit at or above x^n,
    # for records of 1 to 32 bytes (n = 7 .. 255) and for an empty batch
    for m, delta, count in ((3, 3, 4), (4, 5, 9), (6, 5, 5), (8, 7, 3), (4, 5, 0)):
        dual = codes.dual_code(codes.bch_generator(m, delta))
        path = tmp_path / f"{m}-{count}.bin"
        words = codes.sample_codewords(dual, count, seed=2) if count else []
        codes.save_codewords(path, words, dual.n)
        assert path.stat().st_size == 8 + count * ((dual.n + 7) // 8)
        n, back = oracles.read_codewords(path)
        assert (n, len(back)) == (dual.n, count)
        assert all(word >> n == 0 for word in back)
    assert path.with_name("6-5.bin").stat().st_size == 8 + 5 * 8


def test_json_dict_fields(bch_15_7):
    d = codes.dual_code(bch_15_7).to_json_dict()
    assert d["m"] == 4 and d["n"] == 15 and d["k"] == 7 and d["k_dual"] == 8
    assert oracles.poly_from_hex(d["generator_hex"]) == bch_15_7.generator
