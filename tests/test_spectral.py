"""Eigensolver contracts, ESD, trace moments, KS distances."""

import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

import oracles

from pseudospec import codes, ensembles, laws, spectral
from pseudospec.errors import InvalidInputError, NumericalFailureError


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


# --- all eigenvalues, and the validated full solve of the oracles --------------

def test_trivial_spectra():
    assert spectral.eigenvalues_unchecked(np.diag([2.0, 3.0])).tolist() == [2, 3]
    eigs = spectral.eigenvalues_unchecked(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eigs, [-1.0, 1.0])
    eigs = spectral.eigenvalues_unchecked(np.ones((3, 3)))
    assert np.allclose(eigs, [0.0, 0.0, 3.0], atol=1e-12)
    assert spectral.norm_unchecked(np.ones((3, 3))) == pytest.approx(3.0)


def test_eigenvalues_sorted_and_norm():
    rng = np.random.default_rng(21)
    for n in (3, 17, 40):
        M = random_symmetric(n, rng)
        eigs = spectral.eigenvalues_unchecked(M.copy())
        assert np.all(np.diff(eigs) >= 0)
        assert oracles.dense_norm(M) == max(abs(eigs[0]), abs(eigs[-1]))


def test_reconstruction_and_orthogonality():
    rng = np.random.default_rng(22)
    for n in (5, 30, 120):
        M = random_symmetric(n, rng)
        eigs, Q = oracles.symmetric_eigen(M, want_vectors=True)
        R = Q @ np.diag(eigs) @ Q.T
        assert np.linalg.norm(R - M) <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-10 * n


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(23)
    for n in (4, 25, 80):
        M = random_symmetric(n, rng)
        eigs = spectral.eigenvalues_unchecked(M.copy())
        assert eigs.sum() == pytest.approx(np.trace(M), rel=1e-9, abs=1e-9)
        assert (eigs**2).sum() == pytest.approx(
            np.linalg.norm(M, "fro") ** 2, rel=1e-9
        )


def test_asymmetric_rejected():
    M = np.array([[1.0, 2.0], [2.00001, 1.0]])
    with pytest.raises(InvalidInputError):
        oracles.symmetric_eigen(M)
    with pytest.raises(InvalidInputError):
        oracles.symmetric_eigen(np.ones((2, 3)))


def test_non_finite_rejected():
    for i, j, bad in ((0, 2, np.nan), (2, 0, np.nan), (1, 2, np.inf)):
        M = np.eye(3)
        M[i, j] = bad
        with pytest.raises(InvalidInputError):
            oracles.symmetric_eigen(M)
        with pytest.raises(InvalidInputError):
            oracles.lanczos_norm(M)


def test_empty_input_rejected():
    empty = np.zeros((0, 0))
    with pytest.raises(InvalidInputError, match="empty"):
        oracles.symmetric_eigen(empty)
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.eigenvalues_unchecked(empty)
    with pytest.raises(InvalidInputError, match="empty"):
        oracles.lanczos_norm(empty)
    with pytest.raises(InvalidInputError, match="empty"):
        oracles.esd_cdf([], 0.0)
    with pytest.raises(InvalidInputError, match="empty"):
        oracles.esd_cdf(np.array([]), np.array([-1.0, 1.0]))
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.ks_distance([], laws.SemicircleLaw())
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.ks_distance(np.zeros((3, 0)), laws.SemicircleLaw())
    with pytest.raises(InvalidInputError, match="empty"):
        spectral.ks_two_sample([], [0.1])


def test_ks_non_finite_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="non-finite"):
            spectral.ks_distance(np.array([0.1, bad, 0.5]), laws.SemicircleLaw())
        for row in range(3):  # a block of spectra with one bad row
            block = np.zeros((3, 5))
            block[row, 2] = bad
            with pytest.raises(InvalidInputError, match="non-finite"):
                spectral.ks_distance(block, laws.SemicircleLaw())
        with pytest.raises(InvalidInputError, match="non-finite"):
            spectral.ks_two_sample([0.1, bad, 0.5], [0.1, 0.2])
        with pytest.raises(InvalidInputError, match="non-finite"):
            spectral.ks_two_sample([0.1, 0.2], [0.1, bad, 0.5])


def test_agrees_with_charpoly_oracle():
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        for _ in range(20):
            M = random_symmetric(n, rng)
            direct = spectral.eigenvalues_unchecked(M.copy())
            assert np.abs(direct - charpoly_roots(M)).max() <= 1e-9


# --- spectral norm, two routes -------------------------------------------------

def test_norm_examples():
    M = np.ones((2, 2)) / (2 * math.sqrt(2))
    for norm in (oracles.lanczos_norm, oracles.dense_norm):
        assert norm(M) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert norm(np.eye(7)) == pytest.approx(1.0)
        assert norm(np.diag([0.5, -3.0, 2.0])) == pytest.approx(3.0)


def test_norm_routes_agree():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 10, 50, 150):
        M = random_symmetric(n, rng)
        a = oracles.dense_norm(M)
        b = oracles.lanczos_norm(M)
        assert abs(a - b) <= 1e-8 * max(a, 1e-12)


# --- norm-only route -------------------------------------------------------------

def packed_matrices():
    """Three packed matrices of each kind at N = 2, 3, 44 and 180."""
    for kind in ensembles.KINDS:
        for N in (2, 3, 44, 180):
            p = (N + 1) // 2 if kind in ensembles.MP_KINDS else None
            code = {}
            if kind in ensembles.PSEUDO_KINDS:
                code = dict(m=14, delta=31) if N == 180 else dict(m=10, delta=15)
            spec = ensembles.EnsembleSpec(kind, N=N, p=p, seed=N, **code)
            for i in range(3):
                yield ensembles.pack(spec, ensembles.sample_bits(spec, i))


def test_norm_route_matches_full_solve(norm_route):
    # the full eigvalsh norm is the oracle: 1e-13 relative on the LAPACK
    # route, bit for bit on the fallback, which is that same solve
    edges = [np.zeros((4, 4)), np.eye(5), np.ones((3, 3))]
    rng = np.random.default_rng(30)
    for M in [*packed_matrices(), *edges, random_symmetric(60, rng)]:
        expected = oracles.dense_norm(M)
        got = spectral.norm_unchecked(M.copy())
        assert isinstance(got, float)
        if norm_route == "eigvalsh":
            assert got == expected
        else:
            assert abs(got - expected) <= 1e-13 * expected


def test_norm_route_input_layouts(norm_route):
    rng = np.random.default_rng(31)
    M = random_symmetric(9, rng)
    expected = spectral.norm_unchecked(M.copy())
    frozen = M.copy()
    frozen.flags.writeable = False
    assert spectral.norm_unchecked(frozen) == expected
    assert np.array_equal(frozen, M)  # copied, not reduced in place
    assert spectral.norm_unchecked(np.asfortranarray(M)) == expected
    with pytest.raises(InvalidInputError):
        spectral.norm_unchecked(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError):
        spectral.norm_unchecked(np.ones((2, 3)))


def test_norm_route_failure_raises(monkeypatch):
    if spectral._LAPACK is None:
        pytest.skip("numpy exports no dsytrd/dstebz under a known name")
    dsytrd, _ = spectral._LAPACK

    def finds_nothing(*args):
        pass  # leaves M = 0 eigenvalues found

    monkeypatch.setattr(spectral, "_LAPACK", (dsytrd, finds_nothing))
    with pytest.raises(NumericalFailureError, match="0 eigenvalues"):
        spectral.norm_unchecked(np.eye(3))


def test_norm_route_failure_raises_after_success_at_same_order(monkeypatch):
    # the workspace of an order is reused, INFO and the found count with it;
    # a LAPACK call that writes nothing must not pass for the previous result
    if spectral._LAPACK is None:
        pytest.skip("numpy exports no dsytrd/dstebz under a known name")
    dsytrd, dstebz = spectral._LAPACK

    def does_nothing(*args):
        pass

    assert spectral.norm_unchecked(2.0 * np.eye(3)) == 2.0
    monkeypatch.setattr(spectral, "_LAPACK", (dsytrd, does_nothing))
    with pytest.raises(NumericalFailureError, match="0 eigenvalues"):
        spectral.norm_unchecked(np.eye(3))
    monkeypatch.setattr(spectral, "_LAPACK", (does_nothing, dstebz))
    with pytest.raises(NumericalFailureError, match="dsytrd failed"):
        spectral.norm_unchecked(np.eye(3))
    monkeypatch.setattr(spectral, "_LAPACK", (dsytrd, dstebz))
    assert spectral.norm_unchecked(np.eye(3)) == 1.0


def first_packed(N: int) -> np.ndarray:
    spec = ensembles.EnsembleSpec("random-wigner", N=N, seed=N)
    return ensembles.pack(spec, ensembles.sample_bits(spec, 0))


def test_norm_route_orders_in_turn_match_fresh_processes():
    # 44, 180, 44 in one process: each norm equals the norm a fresh
    # interpreter computes at that order, bit for bit
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = {}
    for N in (44, 180):
        code = ("from pseudospec import ensembles, spectral\n"
                f"spec = ensembles.EnsembleSpec('random-wigner', N={N}, seed={N})\n"
                "M = ensembles.pack(spec, ensembles.sample_bits(spec, 0))\n"
                "print(spectral.norm_unchecked(M).hex())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        fresh[N] = float.fromhex(out.strip())
    for N in (44, 180, 44):
        assert spectral.norm_unchecked(first_packed(N)) == fresh[N]


def test_trace_moments_after_norm_at_same_order(norm_route):
    # both read the order's shared d and e; neither may disturb the other
    rng = np.random.default_rng(33)
    M, other = random_symmetric(44, rng), random_symmetric(44, rng)
    spectral.norm_unchecked(random_symmetric(45, rng))  # evict the order
    expected = spectral.trace_moments_unchecked(M.copy(), 12)
    expected_norm = spectral.norm_unchecked(other.copy())
    assert np.array_equal(spectral.trace_moments_unchecked(M.copy(), 12), expected)
    assert spectral.norm_unchecked(other.copy()) == expected_norm


def test_norm_route_threads_run_at_once(norm_route):
    # threads at one order, more than there are cores, released together
    # and switched often, each with its own matrices: every thread's norms
    # and moments equal one thread's, bit for bit, so no thread reads
    # another's d, e or w (each has its own workspace)
    rng = np.random.default_rng(35)
    lanes = 4
    mats = [random_symmetric(64, rng) for _ in range(16 * lanes)]
    start = threading.Barrier(lanes)

    def both(M):
        return (spectral.norm_unchecked(M.copy()),
                spectral.trace_moments_unchecked(M.copy(), 8))

    def lane(share):
        start.wait(timeout=60)
        return [both(M) for M in share]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with spectral.one_blas_thread():
            expected = [both(M) for M in mats]
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=lanes) as pool:
                    shares = list(pool.map(lane, [mats[i::lanes] for i in range(lanes)],
                                           timeout=60))
                for i, share in enumerate(shares):
                    for (norm, moments), (norm_1, moments_1) in zip(
                            share, expected[i::lanes], strict=True):
                        assert norm == norm_1
                        assert np.array_equal(moments, moments_1)
    finally:
        sys.setswitchinterval(interval)


def test_one_blas_thread_pins_and_restores():
    # one thread inside the block, the count found before it after, also
    # when the block raises; without the OpenBLAS symbols nothing changes
    before = spectral.environment()["blas_threads"]
    with spectral.one_blas_thread():
        assert spectral.environment()["blas_threads"] == (1 if spectral.CAN_PIN else before)
    assert spectral.environment()["blas_threads"] == before
    with pytest.raises(KeyError), spectral.one_blas_thread():
        raise KeyError
    assert spectral.environment()["blas_threads"] == before


def _fail(share):
    raise ValueError(f"share {share} fails")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked needs os.fork")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case", ["normal", "child raises", "block raises"])
def test_forked_closes_every_pipe_end(case, no_child_left):
    # however the block is left, both ends of every child's pipe are
    # closed: the process holds as many descriptors after it as before
    ranges = [range(0, 3), range(3, 5), range(5, 6)]
    before = len(os.listdir("/proc/self/fd"))
    if case == "normal":
        with spectral.forked(list, ranges) as results:
            assert list(results) == [list(r) for r in ranges]
    elif case == "child raises":
        with pytest.raises(RuntimeError, match="exited with status 1"):
            with spectral.forked(_fail, ranges) as results:
                list(results)
    else:
        with pytest.raises(KeyError), spectral.forked(list, ranges):
            raise KeyError
    assert len(os.listdir("/proc/self/fd")) == before
    no_child_left()


def test_extremes_match_full_solve(norm_route):
    # eigvalsh's ends are the oracle: 1e-13 of the norm on the LAPACK route,
    # bit for bit on the fallback, which is that same solve
    edges = [np.zeros((4, 4)), np.eye(5), np.ones((3, 3)), np.diag([-3.0, 0.5, 2.0])]
    rng = np.random.default_rng(34)
    for M in [*packed_matrices(), *edges, random_symmetric(60, rng)]:
        eigs = oracles.symmetric_eigen(M)
        lo, hi = spectral.extremes_unchecked(M.copy())
        assert isinstance(lo, float) and isinstance(hi, float)
        assert spectral.norm_unchecked(M.copy()) == max(abs(lo), abs(hi))
        if norm_route == "eigvalsh":
            assert (lo, hi) == (eigs[0], eigs[-1])
        else:
            scale = max(abs(eigs[0]), abs(eigs[-1]))
            assert abs(lo - eigs[0]) <= 1e-13 * scale
            assert abs(hi - eigs[-1]) <= 1e-13 * scale


def test_environment_names_the_route():
    env = spectral.environment()
    assert set(env) == {"blas", "blas_threads", "norm_route"}
    assert env["norm_route"] == (
        "eigvalsh" if spectral._LAPACK is None else "lapack-bisection")
    if env["blas"] is not None:
        assert "OpenBLAS" in env["blas"]
        assert env["blas_threads"] >= 1


# --- ESD -----------------------------------------------------------------------

def test_esd_cdf_examples():
    eigs = np.array([-1.0, 1.0])
    assert oracles.esd_cdf(eigs, 0.0) == 0.5
    assert oracles.esd_cdf(eigs, -1.5) == 0.0
    assert oracles.esd_cdf(eigs, 1.0) == 1.0
    assert oracles.esd_cdf(np.array([0.0, 0.0, 3.0]), 0.0) == pytest.approx(2 / 3)
    # right continuity: the jump belongs to the left limit point
    assert oracles.esd_cdf(eigs, -1.0) == 0.5
    vals = oracles.esd_cdf(eigs, np.array([-2.0, 0.0, 2.0]))
    assert vals.tolist() == [0.0, 0.5, 1.0]


# --- trace moments ---------------------------------------------------------------

def test_trace_moment_identity_examples():
    assert spectral.trace_moments_unchecked(np.eye(5), 3)[2] == pytest.approx(1.0)
    spec = ensembles.EnsembleSpec("random-wigner", N=2)
    M = ensembles.pack(spec, np.array([1, 0, 1]))
    assert spectral.trace_moments_unchecked(M, 2)[1] == pytest.approx(0.25, abs=1e-15)


def test_trace_moment_matches_power_trace():
    rng = np.random.default_rng(26)
    for _ in range(10):
        M = random_symmetric(20, rng)
        moments = spectral.trace_moments_unchecked(M.copy(), 4)
        for s in (1, 2, 3, 4):
            direct = np.trace(np.linalg.matrix_power(M, s)) / 20
            assert moments[s - 1] == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_trace_moment_validation():
    with pytest.raises(InvalidInputError):
        spectral.trace_moments_unchecked(np.eye(2), 0)


def order_n_matrices(N):
    """Two packed matrices of each kind, all of order N (p = N for MP kinds)."""
    for kind in ensembles.KINDS:
        p = N if kind in ensembles.MP_KINDS else None
        code = {}
        if kind in ensembles.PSEUDO_KINDS:
            code = dict(m=15, delta=5) if N == 180 else dict(m=10, delta=15)
        spec = ensembles.EnsembleSpec(kind, N=N, p=p, seed=N, **code)
        for i in range(2):
            yield ensembles.pack(spec, ensembles.sample_bits(spec, i))


def test_trace_moments_match_power_traces_and_power_sums(norm_route):
    # oracles: traces of dense powers of M, and power sums of its eigvalsh
    # eigenvalues; errors are measured against the scale mean(|lambda|^s)
    for N in (1, 2, 3, 7, 180):
        top = N + 1  # an s_max above N
        for M in order_n_matrices(N):
            assert M.shape == (N, N)
            eigs = np.linalg.eigvalsh(M)
            orders = np.arange(1, top + 1)
            power_sums = np.array([np.mean(eigs**s) for s in orders])
            scale = np.array([np.mean(np.abs(eigs) ** s) for s in orders])
            dense, power = [], np.eye(N)
            for _ in orders:
                power = power @ M
                dense.append(np.trace(power) / N)
            for s_max in (1, 2, 5, 16, top):
                got = spectral.trace_moments_unchecked(M.copy(), s_max)
                assert got.shape == (s_max,)
                k = min(s_max, top)
                if norm_route == "eigvalsh":
                    assert np.array_equal(got[:k], power_sums[:k])
                else:
                    assert np.all(np.abs(got[:k] - power_sums[:k]) <= 1e-12 * scale[:k])
                assert np.all(np.abs(got[:k] - dense[:k]) <= 1e-12 * scale[:k])


def test_trace_moments_input_layouts(norm_route):
    rng = np.random.default_rng(32)
    M = random_symmetric(9, rng)
    expected = spectral.trace_moments_unchecked(M.copy(), 12)
    frozen = M.copy()
    frozen.flags.writeable = False
    assert np.array_equal(spectral.trace_moments_unchecked(frozen, 12), expected)
    assert np.array_equal(frozen, M)  # copied, not reduced in place
    assert np.array_equal(
        spectral.trace_moments_unchecked(np.asfortranarray(M), 12), expected)
    for bad in (np.zeros((0, 0)), np.ones((2, 3))):
        with pytest.raises(InvalidInputError):
            spectral.trace_moments_unchecked(bad, 4)
    with pytest.raises(InvalidInputError):
        spectral.trace_moments_unchecked(M.copy(), -1)


def test_trace_moments_overflow_reads_inf_not_nan(norm_route):
    # positive definite, nonnegative entries: Tr(M^s) overflows from s = 4 on,
    # to +inf; a zero pad times an overflowed entry would make NaN instead
    M = 1e100 * (3.0 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        got = spectral.trace_moments_unchecked(M, 10)
    assert np.all(np.isfinite(got[:3]))
    assert np.all(got[3:] == np.inf)


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
    brute = np.abs(oracles.esd_cdf(eigs, grid) - law.cdf(grid)).max()
    assert d >= brute - 1e-12
    assert d <= brute + 1e-3  # grid resolution slack


def test_ks_accepts_summary():
    # what cli.iter_summaries yields for esd: eigenvalues_unchecked's array
    s = spectral.eigenvalues_unchecked(np.zeros((4, 4)))
    assert spectral.ks_distance(s, laws.SemicircleLaw()) == 0.5


@pytest.mark.parametrize("law", [laws.SemicircleLaw(), laws.MarchenkoPasturLaw(0.625),
                                 laws.MarchenkoPasturLaw(1.0)],
                         ids=["semicircle", "mp-0.625", "mp-1"])
def test_ks_block_matches_row_calls(law):
    # esd scores a (B, n) block of spectra in one call
    a, b = law.support
    block = np.random.default_rng(29).uniform(a - 0.2, b + 0.2, size=(5, 40))
    block[0, :2] = [a, b]
    got = spectral.ks_distance(block, law)
    assert isinstance(got, np.ndarray) and got.shape == (5,)
    want = [spectral.ks_distance(row, law) for row in block]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want
    assert spectral.ks_distance(block[3:4], law).tolist() == want[3:4]


def test_ks_two_sample():
    a = np.array([1.0, 2.0, 3.0])
    assert spectral.ks_two_sample(a, a) == 0.0
    assert spectral.ks_two_sample(a, a + 10.0) == 1.0
    rng = np.random.default_rng(28)
    x, y = rng.normal(size=4000), rng.normal(size=4000)
    assert spectral.ks_two_sample(x, y) < 0.06


def test_scm_eigenvalues_nonnegative():
    spec = ensembles.EnsembleSpec("random-mp", N=30, p=18, seed=29)
    for i in range(20):
        G = ensembles.pack(spec, ensembles.sample_bits(spec, i))
        eigs = spectral.eigenvalues_unchecked(G)
        assert eigs.min() >= -1e-10
