"""BCH construction, duals, encoding, sampling, exact distances."""

import itertools
import warnings

import numpy as np
import pytest

from pseudospec import codes, gf2m
from pseudospec.errors import (
    DegenerateCodeError,
    InvalidInputError,
    ResourceLimitError,
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
    words = codes.sample_codewords(dual, 50, seed=5)
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
    a = codes.sample_codewords(dual, 20, seed=7)
    b = codes.sample_codewords(dual, 20, seed=7)
    assert a == b
    # prefix property: the first 5 of a longer run match a shorter run
    assert codes.sample_codewords(dual, 5, seed=7) == a[:5]
    assert codes.sample_codewords(dual, 20, seed=8) != a


def test_message_for_index_is_per_index():
    m1 = codes.message_for_index(64, seed=1, index=0)
    m2 = codes.message_for_index(64, seed=1, index=1)
    assert m1 != m2
    assert codes.message_for_index(64, seed=1, index=0) == m1


def test_sample_count_validation(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    with pytest.raises(InvalidInputError):
        codes.sample_codewords(dual, 0, seed=1)
    with pytest.raises(InvalidInputError):
        codes.sample_codewords(dual, 1, seed=-1)


# --- exact minimum distance -----------------------------------------------

def test_min_distance_oracles(bch_15_7, hamming_7_4):
    assert codes.min_distance_exact(bch_15_7) == 5
    assert codes.min_distance_exact(hamming_7_4) == 3
    assert codes.min_distance_exact(codes.dual_code(hamming_7_4)) == 4


def test_min_distance_matches_designed_lower_bound():
    for m, delta in [(4, 5), (5, 5), (5, 7), (6, 15)]:
        code = codes.bch_generator(m, delta)
        if code.k <= 16:
            assert codes.min_distance_exact(code) >= delta


def test_min_distance_budget():
    code = codes.bch_generator(10, 15)  # k = 953
    with pytest.raises(ResourceLimitError):
        codes.min_distance_exact(code)


def test_min_distance_agrees_with_bruteforce_weights(hamming_7_4):
    # independent enumeration through the generator matrix
    G = codes.generator_matrix(hamming_7_4)
    best = min(
        int(np.mod(np.array(msg) @ G, 2).sum())
        for msg in itertools.product((0, 1), repeat=G.shape[0])
        if any(msg)
    )
    assert codes.min_distance_exact(hamming_7_4) == best


# --- bit conversion and serialization ---------------------------------------

def test_word_to_bits_order():
    bits = codes.word_to_bits(0b1101, 6)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0]  # x^0 first


def test_generator_matrix_rows_are_shifts(bch_15_7):
    dual = codes.dual_code(bch_15_7)
    G = codes.generator_matrix(dual)
    assert G.shape == (dual.k_dual, dual.n)
    for j in range(dual.k_dual):
        row_word = int.from_bytes(
            np.packbits(G[j], bitorder="little").tobytes(), "little"
        )
        assert row_word == dual.generator << j


def test_codeword_file_roundtrip(tmp_path, bch_15_7):
    dual = codes.dual_code(bch_15_7)
    words = codes.sample_codewords(dual, 7, seed=9)
    path = tmp_path / "words.bin"
    codes.save_codewords(path, words, dual.n)
    n, back = codes.load_codewords(path)
    assert n == dual.n
    assert back == words
    raw = path.read_bytes()
    assert raw[:8] == (15).to_bytes(4, "little") + (7).to_bytes(4, "little")


def test_codeword_file_length_checked(tmp_path):
    dual = codes.dual_code(codes.bch_generator(6, 5))
    path = tmp_path / "words.bin"
    codes.save_codewords(path, codes.sample_codewords(dual, 5, seed=2), dual.n)
    raw = path.read_bytes()
    assert len(raw) == 8 + 5 * 8
    for bad in (raw[:5], raw[:-9], raw + b"\x00"):  # short header, cut body, extra
        path.write_bytes(bad)
        with pytest.raises(InvalidInputError):
            codes.load_codewords(path)


def test_json_dict_fields(bch_15_7):
    d = codes.dual_code(bch_15_7).to_json_dict()
    assert d["m"] == 4 and d["n"] == 15 and d["k"] == 7 and d["k_dual"] == 8
    assert gf2m.poly_from_hex(d["generator_hex"]) == bch_15_7.generator
