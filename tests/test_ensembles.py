"""Packing layout, scaling identities, random baselines, packed samples."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import codes, ensembles, laws, spectral
from pseudospec.errors import DegenerateCodeError, InvalidInputError


def wigner(N):
    return ensembles.EnsembleSpec("random-wigner", N=N)


def mp(N, p):
    return ensembles.EnsembleSpec("random-mp", N=N, p=p)


def signs(W):
    """The int8 sign pattern of a packed Wigner matrix."""
    return np.where(W < 0, -1, 1).astype(np.int8)


def sample(spec, index=0):
    return ensembles.pack(spec, ensembles.sample_bits(spec, index))


# --- packing -----------------------------------------------------------------

def test_pack_symmetric_layout():
    W = ensembles.pack(wigner(2), np.array([1, 0, 1]))
    assert signs(W).tolist() == [[-1, 1], [1, -1]]
    assert W.dtype == np.float64


def test_pack_symmetric_all_zero_bits():
    W = ensembles.pack(wigner(3), np.zeros(6, dtype=np.uint8))
    assert np.all(W == 1 / (2 * math.sqrt(3)))


def test_pack_symmetric_row_major_order():
    # bits fill (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
    bits = np.array([1, 0, 0, 0, 0, 0])
    M = signs(ensembles.pack(wigner(3), bits))
    assert M[0, 0] == -1 and np.all(M.ravel()[1:] == 1)
    bits = np.array([0, 0, 0, 0, 1, 0])
    M = signs(ensembles.pack(wigner(3), bits))
    assert M[1, 2] == -1 and M[2, 1] == -1 and M.sum() == 9 - 4


def test_pack_symmetric_is_symmetric_and_discards_surplus():
    rng = np.random.default_rng(31)
    for N in (2, 7, 20):
        bits = rng.integers(0, 2, size=N * (N + 1) // 2 + 13)
        W = ensembles.pack(wigner(N), bits)
        assert np.array_equal(W, W.T)
        assert set(np.unique(signs(W))) <= {-1, 1}


def test_pack_injectivity():
    rng = np.random.default_rng(32)
    N = 6
    used = N * (N + 1) // 2
    seen = set()
    for _ in range(60):
        bits = rng.integers(0, 2, size=used)
        seen.add(ensembles.pack(wigner(N), bits).tobytes())
    bits = rng.integers(0, 2, size=used)
    flipped = bits.copy()
    flipped[4] ^= 1
    assert (
        ensembles.pack(wigner(N), bits).tobytes()
        != ensembles.pack(wigner(N), flipped).tobytes()
    )


def test_pack_too_short():
    with pytest.raises(InvalidInputError):
        ensembles.pack(wigner(2), np.array([1, 0]))
    with pytest.raises(InvalidInputError):
        ensembles.pack(mp(2, 2), np.array([1, 0, 1]))


def test_pack_rect_layout():
    # Y = [[1, -1], [-1, 1]] / sqrt(2)
    G = ensembles.pack(mp(2, 2), np.array([0, 1, 1, 0]))
    assert G.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    # rows fill first: Y = [[1, -1], [-1, -1], [1, 1]] / sqrt(3); a column
    # fill would give [[1, -1], [-1, 1]]
    G = ensembles.pack(mp(3, 2), np.array([0, 1, 1, 1, 0, 0]))
    assert G.tolist() == [[1.0, 1 / 3], [1 / 3, 1.0]]


def naive_pack(kind, N, p, bits):
    """The documented layout, one entry at a time."""
    sign = [(-1) ** int(b) for b in bits]
    if kind in ensembles.WIGNER_KINDS:
        M = np.zeros((N, N))
        k = 0
        for i in range(N):
            for j in range(i, N):
                M[i, j] = M[j, i] = sign[k] / (2 * math.sqrt(N))
                k += 1
        return M
    G = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            G[a, b] = sum(sign[i * p + a] * sign[i * p + b] for i in range(N)) / N
    return G


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ensembles.RANDOM_KINDS),
    N=st.integers(1, 12),
    surplus=st.integers(0, 9),
    dtype=st.sampled_from([np.uint8, np.int64]),
    data=st.data(),
)
def test_pack_matches_naive_layout(kind, N, surplus, dtype, data):
    p = data.draw(st.integers(1, N)) if kind in ensembles.MP_KINDS else None
    used = N * (N + 1) // 2 if p is None else N * p
    bits = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=used + surplus,
                           max_size=used + surplus)),
        dtype=dtype,
    )
    got = ensembles.pack(ensembles.EnsembleSpec(kind, N=N, p=p), bits)
    assert got.dtype == np.float64
    assert np.array_equal(got, naive_pack(kind, N, p, bits))
    if p is not None:
        assert np.all(np.diag(got) == 1.0)


def test_pack_symmetric_equals_quotient_bit_for_bit():
    # one gather times the reciprocal against the gathered signs divided by
    # 2 sqrt(N), compared as raw float64 bit patterns
    rng = np.random.default_rng(35)
    for N in [*range(1, 71), 180]:
        bits = rng.integers(0, 2, N * (N + 1) // 2 + 3, dtype=np.uint8)
        signs = 1 - 2 * bits[: N * (N + 1) // 2].astype(np.int8)
        quotient = signs[ensembles._upper_map(N)] / (2.0 * math.sqrt(N))
        got = ensembles.pack_symmetric(bits, N)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), quotient.view(np.int64))


def test_full_scale_packing_fits():
    # 180 x 180 symmetric needs 16290 of the 16383 codeword bits at m=14
    assert 180 * 181 // 2 == 16290 <= (1 << 14) - 1
    spec = ensembles.EnsembleSpec("pseudo-wigner", N=180, m=14, delta=31, seed=0)
    assert spec.r == 30


# --- scaling ------------------------------------------------------------------

def test_scaled_wigner_values():
    assert ensembles.pack(wigner(1), np.array([0])).tolist() == [[0.5]]
    W = ensembles.pack(wigner(2), np.array([1, 0, 1]))
    assert np.allclose(np.abs(W), 1 / (2 * math.sqrt(2)))
    # Frobenius norm^2 is exactly N/4 for any sign pattern
    for N in (2, 9, 30):
        W = sample(ensembles.EnsembleSpec("random-wigner", N=N, seed=33))
        assert (W**2).sum() == pytest.approx(N / 4, rel=1e-12)


def test_scm_unit_diagonal_and_trace():
    for N, p in ((2, 1), (10, 7), (40, 25)):
        G = sample(ensembles.EnsembleSpec("random-mp", N=N, p=p, seed=34))
        assert np.all(np.diag(G) == 1.0)
        assert np.trace(G) == p
        assert np.array_equal(G, G.T)


def test_exact_moment_identities_through_eigenvalues():
    spec_w = ensembles.EnsembleSpec("random-wigner", N=24, seed=35)
    spec_g = ensembles.EnsembleSpec("random-mp", N=24, p=15, seed=35)
    for i in range(10):
        W = sample(spec_w, i)
        assert np.mean(spectral.eigenvalues_unchecked(W) ** 2) == pytest.approx(
            0.25, abs=1e-12
        )
        G = sample(spec_g, i)
        assert np.mean(spectral.eigenvalues_unchecked(G)) == pytest.approx(
            1.0, abs=1e-12
        )


# --- ensemble specs --------------------------------------------------------------

def test_spec_derived_fields():
    spec = ensembles.EnsembleSpec("pseudo-mp", N=40, p=25, m=10, delta=15, seed=3)
    assert spec.gamma == 0.625
    assert spec.r == 14
    assert spec.rho == pytest.approx(math.log(14) / math.log(40))
    assert list(spec.to_json_dict()) == [
        "kind", "N", "p", "m", "delta", "seed", "gamma", "r", "rho"]
    for derived in ("r", "rho"):  # derived, never passed in
        with pytest.raises(TypeError):
            ensembles.EnsembleSpec("random-wigner", N=10, **{derived: 3})
    spec = ensembles.EnsembleSpec("random-wigner", N=16, seed=1)
    assert spec.r is None and spec.rho is None and spec.gamma is None


def test_spec_gamma_to_p():
    # gamma is read as the decimal given: the floats 0.29 and 0.7 lie just
    # below 29/100 and 7/10, so floor(gamma * N) in floats gives 28 and 125
    for gamma, N, p in ((0.625, 40, 25), (0.29, 100, 29), (0.7, 180, 126)):
        spec = ensembles.EnsembleSpec("random-mp", N=N, gamma=gamma)
        assert (spec.p, spec.gamma) == (p, p / N), gamma


def test_spec_even_delta_guarantee():
    spec = ensembles.EnsembleSpec("pseudo-wigner", N=10, m=6, delta=6, seed=0)
    assert spec.r == 6  # promoted designed distance 7, guarantee r = 6


def test_spec_validation_errors():
    cases = [
        (dict(kind="pseudo-wigner", N=45, m=10, delta=15),  # 1035 > 1023
         "packing needs 1035 bits but codewords have n=1023"),
        (dict(kind="pseudo-mp", N=40, p=41, m=10, delta=15),
         r"need 1 <= p <= N, got p=41, N=40"),
        (dict(kind="random-wigner", N=10, p=5),
         "random-wigner takes neither p nor gamma"),
        (dict(kind="random-wigner", N=10, gamma=0.5), "takes neither p nor gamma"),
        (dict(kind="random-mp", N=10), "MP kinds need exactly one of p and gamma"),
        (dict(kind="random-mp", N=10, p=5, gamma=0.5), "exactly one of p and gamma"),
        (dict(kind="random-mp", N=10, gamma=math.nan), "gamma must be finite, got nan"),
        (dict(kind="ginibre", N=10), "kind must be one of .* got 'ginibre'"),
        (dict(kind="random-wigner", N=0), "N must be >= 1"),
        (dict(kind="pseudo-wigner", N=10, m=6, delta=5, seed=-1),
         "seed must be a nonnegative integer"),
        (dict(kind="pseudo-mp", N=10, p=5, m=6), "pseudo-mp needs m and delta"),
        (dict(kind="random-mp", N=10, p=5, m=6, delta=5),
         "random-mp does not take m or delta"),
    ]
    for params, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            ensembles.EnsembleSpec(**params)
    for delta in (-3, 0, 1, 2):
        with pytest.raises(InvalidInputError, match="must be >= 3"):
            ensembles.EnsembleSpec("pseudo-wigner", N=8, m=6, delta=delta)
    with pytest.raises(DegenerateCodeError):
        ensembles.EnsembleSpec("pseudo-wigner", N=8, m=6, delta=200)


# --- random baselines --------------------------------------------------------------

def test_random_baseline_deterministic():
    spec = ensembles.EnsembleSpec("random-wigner", N=12, seed=9)
    A = sample(spec, index=4)
    B = sample(spec, index=4)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, sample(spec, index=5))
    assert np.array_equal(A, A.T)


# sha256 prefixes of the int8 sign matrix of sample `index`, recorded with
# numpy 2.4.6 from rng = np.random.default_rng((seed, index)) drawing
# rng.integers(0, 2) once per upper-triangle entry, row-major, or once per
# entry of the N x p grid.  No replay of a pseudo kind covers these streams.
PINNED_SIGN_STREAMS = [
    (dict(kind="random-wigner", N=9, seed=44), 0, "203fa78dfe6d1f38"),
    (dict(kind="random-wigner", N=9, seed=44), 3, "9ff1973df9297fe6"),
    (dict(kind="random-mp", N=7, p=4, seed=45), 0, "8cb5bae7033921f6"),
    (dict(kind="random-mp", N=7, p=4, seed=45), 3, "5c40b936202db0ba"),
]


@pytest.mark.parametrize("params, index, prefix", PINNED_SIGN_STREAMS)
def test_random_baseline_pinned_sign_streams(params, index, prefix):
    spec = ensembles.EnsembleSpec(**params)
    if spec.kind in ensembles.WIGNER_KINDS:
        M = signs(sample(spec, index))
    else:  # the N x p row fill of the sample's bits
        bits = ensembles.sample_bits(spec, index)
        M = np.where(bits == 1, -1, 1).astype(np.int8).reshape(spec.N, spec.p)
    assert hashlib.sha256(M.tobytes()).hexdigest().startswith(prefix)


def test_spec_owns_its_dual_code():
    # the sample path reads the code from the spec, so it cannot be handed
    # the dual of some other (m, delta)
    built = codes.dual_code(codes.bch_generator(6, 5))
    for kind, N, p in (("pseudo-wigner", 10, None), ("pseudo-mp", 7, 5)):
        spec = ensembles.EnsembleSpec(kind, N=N, p=p, m=6, delta=5, seed=9)
        dual = spec.dual
        assert (dual.generator, dual.k_dual) == (built.generator, built.k_dual)
        assert spec.dual is dual  # built once, kept for the spec's life
        for i in (0, 1, 5):
            word = list(codes.sample_codewords(dual, i + 1, spec.seed))[i]
            expected = codes.word_to_bits(word, dual.n)[:spec.bits_used]
            assert np.array_equal(ensembles.sample_bits(spec, i), expected)
    assert wigner(5).dual is None and mp(6, 4).dual is None


def test_random_entries_mean_concentrates():
    # binomial 3-sigma band on the upper-triangle mean at N = 2000
    N = 2000
    spec = ensembles.EnsembleSpec("random-wigner", N=N, seed=81)
    bits = ensembles.sample_bits(spec, 0)
    mean = np.where(bits == 1, -1.0, 1.0).mean()
    assert abs(mean) <= 3.0 / math.sqrt(N * (N + 1) / 2)


def test_random_wigner_esd_close_to_semicircle():
    W = sample(ensembles.EnsembleSpec("random-wigner", N=1024, seed=17))
    eigs = spectral.eigenvalues_unchecked(W)
    assert spectral.ks_distance(eigs, laws.SemicircleLaw()) < 0.05


# --- packed samples -----------------------------------------------------------------

def test_pseudo_wigner_samples_deterministic():
    spec = ensembles.EnsembleSpec("pseudo-wigner", N=12, m=8, delta=7, seed=5)
    batch1 = [sample(spec, i) for i in range(4)]
    batch2 = [sample(spec, i) for i in range(4)]
    assert all(np.array_equal(a, b) for a, b in zip(batch1, batch2))
    assert batch1[0].shape == (12, 12)
    assert np.allclose(np.abs(batch1[0]), 1 / (2 * math.sqrt(12)))


def test_pseudo_sample_packs_sampled_codeword():
    spec = ensembles.EnsembleSpec("pseudo-mp", N=10, p=6, m=8, delta=7, seed=6)
    dual = codes.dual_code(codes.bch_generator(8, 7))
    word = next(codes.sample_codewords(dual, 1, seed=6))
    expected = ensembles.pack(spec, codes.word_to_bits(word, dual.n))
    assert np.array_equal(sample(spec), expected)


def test_random_mp_samples_unit_diagonal():
    spec = ensembles.EnsembleSpec("random-mp", N=14, p=9, seed=2)
    mats = [sample(spec, i) for i in range(3)]
    assert all(m.shape == (9, 9) for m in mats)
    assert all(np.all(np.diag(m) == 1.0) for m in mats)


def test_sample_bits_lengths():
    bits = ensembles.sample_bits(wigner(5), 0)
    assert bits.dtype == np.uint8 and bits.size == 15
    assert ensembles.sample_bits(mp(6, 4), 0).size == 24
    # pseudo kinds too give only the bits pack uses, not the whole codeword
    spec = ensembles.EnsembleSpec("pseudo-wigner", N=10, m=6, delta=5)
    assert ensembles.sample_bits(spec, 0).size == 55 < spec.dual.n
    spec = ensembles.EnsembleSpec("pseudo-mp", N=7, p=5, m=6, delta=5)
    assert ensembles.sample_bits(spec, 0).size == 35


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pseudo_sample_bits_are_codeword_prefix(data):
    m = data.draw(st.integers(4, 10), label="m")
    delta = data.draw(st.sampled_from([3, 5, 7]), label="delta")
    n = (1 << m) - 1
    kind = data.draw(st.sampled_from(ensembles.PSEUDO_KINDS), label="kind")
    if kind == "pseudo-wigner":
        N = data.draw(st.integers(1, (math.isqrt(8 * n + 1) - 1) // 2), label="N")
        p = None
    else:
        N = data.draw(st.integers(1, min(n, 40)), label="N")
        p = data.draw(st.integers(1, min(N, n // N)), label="p")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    index = data.draw(st.integers(0, 1000), label="index")
    spec = ensembles.EnsembleSpec(kind, N=N, p=p, m=m, delta=delta, seed=seed)
    dual = codes.dual_code(codes.bch_generator(m, delta))
    used = N * (N + 1) // 2 if p is None else N * p
    word = codes.encode(dual, codes.message_for_index(dual.k_dual, seed, index))
    expected = codes.word_to_bits(word, n)[:used]
    assert np.array_equal(ensembles.sample_bits(spec, index), expected)


# odd N, and bit counts N(N+1)/2 or N*p that are not multiples of 8
SAMPLE_SHAPES = [
    (kind, N, p)
    for kind in ensembles.KINDS
    for N, p in ([(1, None), (7, None), (9, None)] if kind in ensembles.WIGNER_KINDS
                 else [(7, 5), (9, 1), (5, 5)])
]


@pytest.mark.parametrize("kind, N, p", SAMPLE_SHAPES)
def test_samples_exactly_symmetric_and_finite(kind, N, p):
    # the batch loop relies on this instead of re-checking every matrix
    code = dict(m=6, delta=5) if kind in ensembles.PSEUDO_KINDS else {}
    spec = ensembles.EnsembleSpec(kind, N=N, p=p, seed=21, **code)
    for i in range(5):
        M = sample(spec, i)
        assert M.dtype == np.float64
        assert np.array_equal(M, M.T)
        assert np.isfinite(M).all()
