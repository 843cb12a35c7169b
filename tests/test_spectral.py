"""Eigensolver contracts, ESD, trace moments, KS distances."""

import math

import mpmath
import numpy as np
import pytest

from pseudospec import ensembles, laws, spectral
from pseudospec.errors import InvalidInputError


def random_symmetric(n: int, rng) -> np.ndarray:
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2.0


def charpoly_coeffs(M: np.ndarray) -> list[float]:
    """Faddeev-LeVerrier coefficients of det(xI - M), highest power first.

    Uses traces of explicit matrix powers only, so it shares nothing with
    the symmetric eigensolver path.
    """
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = Mk @ M
        c = -sum(coeffs[j] * np.trace(np.linalg.matrix_power(M, k - j))
                 for j in range(k)) / k
        coeffs.append(float(c))
    return coeffs


def charpoly_roots(M: np.ndarray) -> np.ndarray:
    """High-precision roots of the characteristic polynomial."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots(charpoly_coeffs(M), maxsteps=200, extraprec=60)
    return np.sort(np.array([float(mpmath.re(r)) for r in roots]))


# --- symmetric_eigen ----------------------------------------------------------

def test_trivial_spectra():
    assert spectral.symmetric_eigen(np.diag([2.0, 3.0])).eigenvalues.tolist() == [2, 3]
    s = spectral.symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    s = spectral.symmetric_eigen(np.ones((3, 3)))
    assert np.allclose(s.eigenvalues, [0.0, 0.0, 3.0], atol=1e-12)
    assert s.norm == pytest.approx(3.0)


def test_eigenvalues_sorted_and_norm():
    rng = np.random.default_rng(21)
    for n in (3, 17, 40):
        s = spectral.symmetric_eigen(random_symmetric(n, rng))
        assert np.all(np.diff(s.eigenvalues) >= 0)
        assert s.norm == max(abs(s.eigenvalues[0]), abs(s.eigenvalues[-1]))


def test_reconstruction_and_orthogonality():
    rng = np.random.default_rng(22)
    for n in (5, 30, 120):
        M = random_symmetric(n, rng)
        summary, Q = spectral.symmetric_eigen(M, want_vectors=True)
        R = Q @ np.diag(summary.eigenvalues) @ Q.T
        assert np.linalg.norm(R - M) <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-10 * n


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(23)
    for n in (4, 25, 80):
        M = random_symmetric(n, rng)
        eigs = spectral.symmetric_eigen(M).eigenvalues
        assert eigs.sum() == pytest.approx(np.trace(M), rel=1e-9, abs=1e-9)
        assert (eigs**2).sum() == pytest.approx(
            np.linalg.norm(M, "fro") ** 2, rel=1e-9
        )


def test_asymmetric_rejected():
    M = np.array([[1.0, 2.0], [2.00001, 1.0]])
    with pytest.raises(InvalidInputError):
        spectral.symmetric_eigen(M)
    with pytest.raises(InvalidInputError):
        spectral.symmetric_eigen(np.ones((2, 3)))


def test_non_finite_rejected():
    for i, j, bad in ((0, 2, np.nan), (2, 0, np.nan), (1, 2, np.inf)):
        M = np.eye(3)
        M[i, j] = bad
        with pytest.raises(InvalidInputError):
            spectral.symmetric_eigen(M)
        with pytest.raises(InvalidInputError):
            spectral.lanczos_norm(M)


def test_empty_input_rejected():
    empty = np.zeros((0, 0))
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.symmetric_eigen(empty)
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.lanczos_norm(empty)
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.esd_cdf([], 0.0)
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.esd_cdf(np.array([]), np.array([-1.0, 1.0]))


def test_agrees_with_charpoly_oracle():
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        for _ in range(20):
            M = random_symmetric(n, rng)
            direct = spectral.symmetric_eigen(M).eigenvalues
            assert np.abs(direct - charpoly_roots(M)).max() <= 1e-9


# --- spectral norm, two routes -------------------------------------------------

def test_norm_examples():
    M = np.ones((2, 2)) / (2 * math.sqrt(2))
    for norm in (spectral.lanczos_norm, lambda A: spectral.symmetric_eigen(A).norm):
        assert norm(M) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert norm(np.eye(7)) == pytest.approx(1.0)
        assert norm(np.diag([0.5, -3.0, 2.0])) == pytest.approx(3.0)


def test_norm_routes_agree():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 10, 50, 150):
        M = random_symmetric(n, rng)
        a = spectral.symmetric_eigen(M).norm
        b = spectral.lanczos_norm(M)
        assert abs(a - b) <= 1e-8 * max(a, 1e-12)


# --- ESD -----------------------------------------------------------------------

def test_esd_cdf_examples():
    eigs = np.array([-1.0, 1.0])
    assert spectral.esd_cdf(eigs, 0.0) == 0.5
    assert spectral.esd_cdf(eigs, -1.5) == 0.0
    assert spectral.esd_cdf(eigs, 1.0) == 1.0
    assert spectral.esd_cdf(np.array([0.0, 0.0, 3.0]), 0.0) == pytest.approx(2 / 3)
    # right continuity: the jump belongs to the left limit point
    assert spectral.esd_cdf(eigs, -1.0) == 0.5
    vals = spectral.esd_cdf(eigs, np.array([-2.0, 0.0, 2.0]))
    assert vals.tolist() == [0.0, 0.5, 1.0]


# --- trace moments ---------------------------------------------------------------

def test_trace_moment_identity_examples():
    assert spectral.symmetric_eigen(np.eye(5)).trace_moment(3) == pytest.approx(1.0)
    spec = ensembles.ensemble_spec("random-wigner", N=2)
    M = ensembles.pack(spec, np.array([1, 0, 1]))
    assert spectral.symmetric_eigen(M).trace_moment(2) == pytest.approx(0.25, abs=1e-15)


def test_trace_moment_matches_power_trace():
    rng = np.random.default_rng(26)
    for _ in range(10):
        M = random_symmetric(20, rng)
        summary = spectral.symmetric_eigen(M)
        for s in (1, 2, 3, 4):
            direct = np.trace(np.linalg.matrix_power(M, s)) / 20
            assert summary.trace_moment(s) == pytest.approx(
                direct, rel=1e-9, abs=1e-9
            )


def test_trace_moment_validation():
    with pytest.raises(InvalidInputError):
        spectral.symmetric_eigen(np.eye(2)).trace_moment(0)


# --- KS distance -----------------------------------------------------------------

def test_ks_against_semicircle_two_atoms():
    assert spectral.ks_distance(np.array([-1.0, 1.0]), laws.SemicircleLaw()) == 0.5


def test_ks_quantile_construction():
    # eigenvalues at the law's (i - 1/2)/N quantiles: distance <= 1/(2N) + tol
    law = laws.SemicircleLaw()
    N = 64
    targets = (np.arange(N) + 0.5) / N
    lo, hi = np.full(N, -1.0), np.full(N, 1.0)
    for _ in range(60):  # bisection inversion of the cdf
        mid = (lo + hi) / 2
        below = law.cdf(mid) < targets
        lo[below] = mid[below]
        hi[~below] = mid[~below]
    eigs = (lo + hi) / 2
    assert spectral.ks_distance(eigs, law) <= 1 / (2 * N) + 1e-9


def test_ks_permutation_invariant_and_matches_grid():
    rng = np.random.default_rng(27)
    eigs = rng.uniform(-1.2, 1.2, size=40)
    law = laws.SemicircleLaw()
    d = spectral.ks_distance(eigs, law)
    assert d == spectral.ks_distance(rng.permutation(eigs), law)
    grid = np.linspace(-1.3, 1.3, 20_001)
    brute = np.abs(spectral.esd_cdf(eigs, grid) - law.cdf(grid)).max()
    assert d >= brute - 1e-12
    assert d <= brute + 1e-3  # grid resolution slack


def test_ks_accepts_summary():
    s = spectral.symmetric_eigen(np.zeros((4, 4)))
    assert spectral.ks_distance(s, laws.SemicircleLaw()) == 0.5


def test_ks_two_sample():
    a = np.array([1.0, 2.0, 3.0])
    assert spectral.ks_two_sample(a, a) == 0.0
    assert spectral.ks_two_sample(a, a + 10.0) == 1.0
    rng = np.random.default_rng(28)
    x, y = rng.normal(size=4000), rng.normal(size=4000)
    assert spectral.ks_two_sample(x, y) < 0.06


def test_scm_eigenvalues_nonnegative():
    spec = ensembles.ensemble_spec("random-mp", N=30, p=18, seed=29)
    for i in range(20):
        G = ensembles.pack(spec, ensembles.sample_bits(spec, i))
        eigs = spectral.symmetric_eigen(G).eigenvalues
        assert eigs.min() >= -1e-10
