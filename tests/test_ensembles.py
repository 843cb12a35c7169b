"""Packing layout, scaling identities, random baselines, batch streams."""

import hashlib
import math

import numpy as np
import pytest

from pseudospec import codes, ensembles, laws, spectral
from pseudospec.errors import InvalidInputError


# --- packing -----------------------------------------------------------------

def test_pack_symmetric_layout():
    M = ensembles.pack_symmetric(np.array([1, 0, 1]), 2)
    assert M.tolist() == [[-1, 1], [1, -1]]
    assert M.dtype == np.int8


def test_pack_symmetric_all_zero_bits():
    M = ensembles.pack_symmetric(np.zeros(6, dtype=np.uint8), 3)
    assert np.all(M == 1)


def test_pack_symmetric_row_major_order():
    # bits fill (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
    bits = np.array([1, 0, 0, 0, 0, 0])
    M = ensembles.pack_symmetric(bits, 3)
    assert M[0, 0] == -1 and np.all(M.ravel()[1:] == 1)
    bits = np.array([0, 0, 0, 0, 1, 0])
    M = ensembles.pack_symmetric(bits, 3)
    assert M[1, 2] == -1 and M[2, 1] == -1 and M.sum() == 9 - 4


def test_pack_symmetric_is_symmetric_and_discards_surplus():
    rng = np.random.default_rng(31)
    for N in (2, 7, 20):
        bits = rng.integers(0, 2, size=N * (N + 1) // 2 + 13)
        M = ensembles.pack_symmetric(bits, N)
        assert np.array_equal(M, M.T)
        assert set(np.unique(M)) <= {-1, 1}


def test_pack_injectivity():
    rng = np.random.default_rng(32)
    N = 6
    used = N * (N + 1) // 2
    seen = set()
    for _ in range(60):
        bits = rng.integers(0, 2, size=used)
        seen.add(ensembles.pack_symmetric(bits, N).tobytes())
    bits = rng.integers(0, 2, size=used)
    flipped = bits.copy()
    flipped[4] ^= 1
    assert (
        ensembles.pack_symmetric(bits, N).tobytes()
        != ensembles.pack_symmetric(flipped, N).tobytes()
    )


def test_pack_too_short():
    with pytest.raises(InvalidInputError):
        ensembles.pack_symmetric(np.array([1, 0]), 2)
    with pytest.raises(InvalidInputError):
        ensembles.pack_rect(np.array([1, 0, 1]), 2, 2)
    with pytest.raises(InvalidInputError):
        ensembles.pack_rect(np.zeros(12), 3, 4)  # p > N


def test_pack_rect_layout():
    R = ensembles.pack_rect(np.array([0, 1, 1, 0]), 2, 2)
    assert R.tolist() == [[1, -1], [-1, 1]]


def test_full_scale_packing_fits():
    # 180 x 180 symmetric needs 16290 of the 16383 codeword bits at m=14
    assert 180 * 181 // 2 == 16290 <= (1 << 14) - 1
    spec = ensembles.ensemble_spec("pseudo-wigner", N=180, m=14, delta=31, seed=0)
    assert spec.r == 30


# --- scaling ------------------------------------------------------------------

def test_scaled_wigner_values():
    one = ensembles.pack_symmetric(np.array([0]), 1)
    assert ensembles.scaled_wigner(one).tolist() == [[0.5]]
    M = ensembles.pack_symmetric(np.array([1, 0, 1]), 2)
    W = ensembles.scaled_wigner(M)
    assert np.allclose(np.abs(W), 1 / (2 * math.sqrt(2)))
    # Frobenius norm^2 is exactly N/4 for any sign pattern
    for N in (2, 9, 30):
        spec = ensembles.ensemble_spec("random-wigner", N=N, seed=33)
        W = ensembles.scaled_wigner(ensembles.random_baseline(spec))
        assert (W**2).sum() == pytest.approx(N / 4, rel=1e-12)


def test_scm_unit_diagonal_and_trace():
    for N, p in ((2, 1), (10, 7), (40, 25)):
        spec = ensembles.ensemble_spec("random-mp", N=N, p=p, seed=34)
        G = ensembles.scm(ensembles.random_baseline(spec))
        assert np.all(np.diag(G) == 1.0)
        assert np.trace(G) == p
        assert np.array_equal(G, G.T)


def test_exact_moment_identities_through_eigenvalues():
    spec_w = ensembles.ensemble_spec("random-wigner", N=24, seed=35)
    spec_g = ensembles.ensemble_spec("random-mp", N=24, p=15, seed=35)
    for i in range(10):
        W = ensembles.scaled_wigner(ensembles.random_baseline(spec_w, i))
        assert spectral.symmetric_eigen(W).trace_moment(2) == pytest.approx(
            0.25, abs=1e-12
        )
        G = ensembles.scm(ensembles.random_baseline(spec_g, i))
        assert spectral.symmetric_eigen(G).trace_moment(1) == pytest.approx(
            1.0, abs=1e-12
        )


# --- ensemble specs --------------------------------------------------------------

def test_spec_derived_fields():
    spec = ensembles.ensemble_spec("pseudo-mp", N=40, p=25, m=10, delta=15, seed=3)
    assert spec.gamma == 0.625
    assert spec.r == 14
    assert spec.rho == pytest.approx(math.log(14) / math.log(40))
    spec = ensembles.ensemble_spec("random-wigner", N=16, seed=1)
    assert spec.r is None and spec.rho is None and spec.gamma is None


def test_spec_gamma_to_p():
    spec = ensembles.ensemble_spec("random-mp", N=40, gamma=0.625)
    assert spec.p == 25


def test_spec_even_delta_guarantee():
    spec = ensembles.ensemble_spec("pseudo-wigner", N=10, m=6, delta=6, seed=0)
    assert spec.r == 6  # promoted designed distance 7, guarantee r = 6


def test_spec_validation_errors():
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("pseudo-wigner", N=45, m=10, delta=15)  # 1035 > 1023
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("pseudo-mp", N=40, p=41, m=10, delta=15)
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("random-wigner", N=10, p=5)
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("random-mp", N=10)
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("ginibre", N=10)
    with pytest.raises(InvalidInputError):
        ensembles.ensemble_spec("pseudo-wigner", N=10, m=6, delta=5, seed=-1)


# --- random baselines --------------------------------------------------------------

def test_random_baseline_deterministic():
    spec = ensembles.ensemble_spec("random-wigner", N=12, seed=9)
    A = ensembles.random_baseline(spec, index=4)
    B = ensembles.random_baseline(spec, index=4)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, ensembles.random_baseline(spec, index=5))
    assert np.array_equal(A, A.T)


# sha256 prefixes of random_baseline(spec, index).tobytes() (int8 signs),
# recorded with numpy 2.4.6 from rng = np.random.default_rng((seed, index))
# drawing rng.integers(0, 2) once per upper-triangle entry, row-major, or
# once per entry of the N x p grid.  No replay of a pseudo kind covers
# these streams.
PINNED_SIGN_STREAMS = [
    (dict(kind="random-wigner", N=9, seed=44), 0, "203fa78dfe6d1f38"),
    (dict(kind="random-wigner", N=9, seed=44), 3, "9ff1973df9297fe6"),
    (dict(kind="random-mp", N=7, p=4, seed=45), 0, "8cb5bae7033921f6"),
    (dict(kind="random-mp", N=7, p=4, seed=45), 3, "5c40b936202db0ba"),
]


@pytest.mark.parametrize("params, index, prefix", PINNED_SIGN_STREAMS)
def test_random_baseline_pinned_sign_streams(params, index, prefix):
    M = ensembles.random_baseline(ensembles.ensemble_spec(**params), index)
    assert M.dtype == np.int8
    assert hashlib.sha256(M.tobytes()).hexdigest().startswith(prefix)


def test_random_baseline_kind_check():
    spec = ensembles.ensemble_spec("pseudo-wigner", N=10, m=6, delta=5)
    with pytest.raises(InvalidInputError):
        ensembles.random_baseline(spec)


def test_random_entries_mean_concentrates():
    # binomial 3-sigma band on the upper-triangle mean at N = 2000
    N = 2000
    M = ensembles.random_baseline(ensembles.ensemble_spec("random-wigner", N=N, seed=81))
    iu = np.triu_indices(N)
    mean = M[iu].astype(np.float64).mean()
    assert abs(mean) <= 3.0 / math.sqrt(N * (N + 1) / 2)


def test_random_wigner_esd_close_to_semicircle():
    spec = ensembles.ensemble_spec("random-wigner", N=1024, seed=17)
    W = ensembles.scaled_wigner(ensembles.random_baseline(spec))
    summary = spectral.symmetric_eigen(W)
    assert spectral.ks_distance(summary, laws.SemicircleLaw()) < 0.05


# --- batch streams ------------------------------------------------------------------

def test_matrix_stream_pseudo_wigner_deterministic():
    spec = ensembles.ensemble_spec("pseudo-wigner", N=12, m=8, delta=7, seed=5)
    batch1 = list(ensembles.matrix_stream(spec, 4))
    batch2 = list(ensembles.matrix_stream(spec, 4))
    assert all(np.array_equal(a, b) for a, b in zip(batch1, batch2))
    assert batch1[0].shape == (12, 12)
    assert np.allclose(np.abs(batch1[0]), 1 / (2 * math.sqrt(12)))


def test_matrix_stream_matches_manual_packing():
    spec = ensembles.ensemble_spec("pseudo-mp", N=10, p=6, m=8, delta=7, seed=6)
    got = next(iter(ensembles.matrix_stream(spec, 1)))
    dual = codes.dual_code(codes.bch_generator(8, 7))
    word = codes.sample_codewords(dual, 1, seed=6)[0]
    bits = codes.word_to_bits(word, dual.n)
    expected = ensembles.scm(ensembles.pack_rect(bits, 10, 6))
    assert np.array_equal(got, expected)


def test_matrix_stream_random_kinds():
    spec = ensembles.ensemble_spec("random-mp", N=14, p=9, seed=2)
    mats = list(ensembles.matrix_stream(spec, 3))
    assert all(m.shape == (9, 9) for m in mats)
    assert all(np.all(np.diag(m) == 1.0) for m in mats)
