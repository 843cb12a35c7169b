"""Acceptance battery: one test per verification criterion, one printed
PASS/FAIL line each (run with ``pytest -s`` to see them inline).

All tolerances are pinned here.  Criterion 6 compares N=1024 trace
moments with the Stirling form sqrt(8/(pi s^3)) N of the semicircle
moment, with its finite-s factor kappa(s) = C_{s/2} 2^{-s} /
sqrt(8/(pi s^3)) put in (0.627 at s=4, 0.775 at s=8, 0.875 at s=16),
inside a +-20% band.  It also checks that kappa(s) tends to 1 at the
rate of the first Stirling-series term and that the measured moments
approach the bare Stirling form as s grows.  The supplementary
(unnumbered) test below it checks the substantive claim -- the
code-built ensemble reproduces the truly random moments -- which holds
to a fraction of a percent.
"""

import functools
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import integrate

import oracles

from pseudospec import cli, codes, ensembles, independence, laws, spectral


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] criterion {num} ({name}): {status}"
    if detail:
        line += f" | {detail}"
    print("\n" + line, flush=True)


def _norms(kind, count, seed, **kw):
    spec = ensembles.EnsembleSpec(kind, seed=seed, **kw)
    edge = spec.law.support[1]
    return spec, np.array(
        [v / edge for v in cli.iter_summaries(spec, count, spectral.norm_unchecked)]
    )


# -------------------------------------------------------------------------
# 1. code-construction oracle
# -------------------------------------------------------------------------

def test_criterion_1_code_construction():
    t0 = time.time()
    c_15_7 = codes.bch_generator(4, 5)
    ok = (c_15_7.n, c_15_7.k) == (15, 7) and oracles.min_distance_exact(c_15_7) == 5
    c_15_11 = codes.bch_generator(4, 3)
    ok &= (c_15_11.n, c_15_11.k) == (15, 11) and oracles.min_distance_exact(c_15_11) == 3
    simplex = codes.dual_code(codes.bch_generator(3, 3))
    ok &= (simplex.n, simplex.k_dual) == (7, 3)
    ok &= oracles.min_distance_exact(simplex) == 4
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(1, "code-construction oracle", ok, f"elapsed {elapsed:.2f}s")
    assert ok


# -------------------------------------------------------------------------
# 2. dual-code independence (exact)
# -------------------------------------------------------------------------

def test_criterion_2_independence_verification():
    t0 = time.time()
    dual = codes.dual_code(codes.bch_generator(4, 5))
    rep4 = independence.verify_r_independence(dual, 4)
    simplex = codes.dual_code(codes.bch_generator(3, 3))
    rep3 = independence.verify_r_independence(simplex, 3)
    elapsed = time.time() - t0
    ok = (
        rep4.verdict == "pass"
        and rep4.max_total_variation == 0.0
        and rep4.subsets_checked == 1365
        and rep3.verdict == "fail"
        and elapsed < 10.0
    )
    _report(2, "dual independence at r = distance-1", ok,
            f"1365 subsets TV=0; simplex r=3 TV={rep3.max_total_variation}; "
            f"elapsed {elapsed:.1f}s")
    assert ok


# -------------------------------------------------------------------------
# 3. exact trace-moment identities
# -------------------------------------------------------------------------

def _moments_solver(s_max):
    """The per-sample solver of the ``moments`` command."""
    return functools.partial(spectral.trace_moments_unchecked, s_max=s_max)


def test_criterion_3_exact_moment_identities():
    spec_w = ensembles.EnsembleSpec("pseudo-wigner", N=44, m=10, delta=15, seed=3001)
    worst_w = max(
        abs(m[1] - 0.25) for m in cli.iter_summaries(spec_w, 500, _moments_solver(2))
    )
    spec_g = ensembles.EnsembleSpec(
        "pseudo-mp", N=40, p=25, m=10, delta=15, seed=3002
    )
    worst_g = max(
        abs(m[0] - 1.0) for m in cli.iter_summaries(spec_g, 500, _moments_solver(1))
    )
    ok = worst_w <= 1e-12 and worst_g <= 1e-12
    _report(3, "exact second/first moment identities", ok,
            f"1000 instances; worst |Tr(A^2)/N - 1/4| = {worst_w:.2e}, "
            f"worst |Tr(G)/p - 1| = {worst_g:.2e}")
    assert ok


# -------------------------------------------------------------------------
# 4. KS band at desk scale
# -------------------------------------------------------------------------

def test_criterion_4_ks_band():
    results = []
    for kind, kw, seed in [
        ("pseudo-wigner", dict(N=44, m=10, delta=15), 41),
        ("pseudo-mp", dict(N=40, p=25, m=10, delta=15), 42),
    ]:
        spec = ensembles.EnsembleSpec(kind, seed=seed, **kw)
        law = spec.law
        band = cli.ks_band(spec)  # max(1/r, 2/sqrt(N)) with r = 14
        ks = np.array(
            [spectral.ks_distance(s, law)
             for s in cli.iter_summaries(spec, 500, spectral.eigenvalues_unchecked)]
        )
        results.append((kind, band, float(np.mean(ks <= band)), float(ks.max())))
    ok = all(frac >= 0.95 for _, _, frac, _ in results)
    detail = "; ".join(
        f"{kind}: {100 * frac:.1f}% within {band:.3f} (max KS {mx:.3f})"
        for kind, band, frac, mx in results
    )
    _report(4, "KS distance within max(1/r, 2/sqrt(N))", ok, detail)
    assert ok


# -------------------------------------------------------------------------
# 5. norm concentration at 1, and no upward trend when N doubles
# -------------------------------------------------------------------------

def test_criterion_5_norm_concentration():
    epsilon = 0.1
    runs = {
        "wig10": ("pseudo-wigner", dict(N=44, m=10, delta=15), 51),
        "wig12": ("pseudo-wigner", dict(N=88, m=12, delta=25), 52),
        "mp10": ("pseudo-mp", dict(N=40, p=25, m=10, delta=15), 53),
        "mp12": ("pseudo-mp", dict(N=80, p=50, m=12, delta=25), 54),
    }
    stats = {}
    in_band = {}
    for label, (kind, kw, seed) in runs.items():
        spec, norms = _norms(kind, 2000, seed, **kw)
        half = 5.0 * math.log(spec.N) ** 1.1 / spec.N ** (2.0 / 3.0)
        devs = np.abs([cli.norm_deviation(spec, v, epsilon) for v in norms])
        stats[label] = (float(norms.mean()), float(devs.mean()), half)
        in_band[label] = abs(norms.mean() - 1.0) <= half
    trend_w = stats["wig12"][1] <= stats["wig10"][1]
    trend_mp = stats["mp12"][1] <= stats["mp10"][1]
    ok = all(in_band.values()) and trend_w and trend_mp
    detail = (
        f"mean norms: wig {stats['wig10'][0]:.4f}->{stats['wig12'][0]:.4f}, "
        f"mp {stats['mp10'][0]:.4f}->{stats['mp12'][0]:.4f}; "
        f"mean|dev|: wig {stats['wig10'][1]:.3f}->{stats['wig12'][1]:.3f}, "
        f"mp {stats['mp10'][1]:.3f}->{stats['mp12'][1]:.3f}"
    )
    _report(5, "norm concentration and deviation trend", ok, detail)
    assert ok


# -------------------------------------------------------------------------
# 6. high-order moment asymptotics against the finite-s Stirling form
# -------------------------------------------------------------------------

CRIT6_COUNT = 200
CRIT6_EVEN = (4, 8, 16)
CRIT6_ODD = (5, 9, 15)


@pytest.fixture(scope="module")
def n1024_traces():
    out = {}
    for kind, kw, seed in [
        ("random-wigner", {}, 61),
        ("pseudo-wigner", dict(m=20, delta=33), 62),
    ]:
        spec = ensembles.EnsembleSpec(kind, N=1024, seed=seed, **kw)
        traces = {s: [] for s in CRIT6_EVEN + CRIT6_ODD}
        solve = _moments_solver(max(traces))
        for moments in cli.iter_summaries(spec, CRIT6_COUNT, solve):
            for s in traces:
                traces[s].append(1024.0 * moments[s - 1])
        out[kind] = {s: np.asarray(v) for s, v in traces.items()}
    return out


def _stirling(s):
    """Large-s form of the semicircle moment C_{s/2} 2^{-s}, s even."""
    return math.sqrt(8.0 / (math.pi * s**3))


def _kappa(s):
    """Finite-s factor C_{s/2} 2^{-s} / sqrt(8/(pi s^3)), from math.comb."""
    catalan = math.comb(s, s // 2) // (s // 2 + 1)
    return catalan / 2**s / _stirling(s)


def test_criterion_6_moment_asymptotics(n1024_traces):
    failures = []
    details = []
    kappas = [_kappa(s) for s in CRIT6_EVEN]
    # The reference tends to the Stirling form: C_k = 4^k / (sqrt(pi) k^{3/2})
    # (1 - 9/(8k) + O(k^-2)) gives 0 < 1 - kappa(s) < 9/(4s), kappa rising.
    if not all(a < b for a, b in zip(kappas, kappas[1:])):
        failures.append(f"kappa not increasing over s={CRIT6_EVEN}: {kappas}")
    for s, kappa in zip(CRIT6_EVEN, kappas):
        if not 0.0 < 1.0 - kappa < 9.0 / (4.0 * s):
            failures.append(f"1 - kappa({s}) = {1.0 - kappa:.4f} outside (0, 9/(4s))")
    for kind, traces in n1024_traces.items():
        bare = []
        for s, kappa in zip(CRIT6_EVEN, kappas):
            bare.append(traces[s].mean() / (_stirling(s) * 1024.0))
            ratio = bare[-1] / kappa
            details.append(f"{kind} s={s}: ratio {bare[-1]:.3f}, kappa {kappa:.3f}")
            if not 0.8 <= ratio <= 1.2:
                failures.append(
                    f"{kind} s={s} ratio to finite-s Stirling {ratio:.4f} "
                    "outside [0.8, 1.2]"
                )
        if not all(a < b for a, b in zip(bare, bare[1:])):
            failures.append(
                f"{kind} ratio to bare Stirling form not rising over "
                f"s={CRIT6_EVEN}: " + ", ".join(f"{r:.4f}" for r in bare)
            )
        for s in CRIT6_ODD:
            mean = traces[s].mean()
            se = traces[s].std(ddof=1) / math.sqrt(CRIT6_COUNT)
            if abs(mean) > 4.0 * se:
                failures.append(f"{kind} s={s} odd mean {mean:.4f} > 4 SE {4 * se:.4f}")
    ok = not failures
    _report(6, "trace moments vs finite-s Stirling form", ok, "; ".join(details))
    assert ok, (
        "trace moments off N sqrt(8/(pi s^3)) kappa(s): " + "; ".join(failures)
    )


def test_pseudo_matches_random_moments(n1024_traces):
    """Unnumbered supplement: the substantive mimicry claim, exact-law scale."""
    worst = 0.0
    law_moments = list(laws.SemicircleLaw().moments(max(CRIT6_EVEN)))
    for s in CRIT6_EVEN:
        exact = float(law_moments[s - 1]) * 1024.0
        for kind in n1024_traces:
            worst = max(worst, abs(n1024_traces[kind][s].mean() / exact - 1.0))
        rel = abs(
            n1024_traces["pseudo-wigner"][s].mean()
            / n1024_traces["random-wigner"][s].mean()
            - 1.0
        )
        assert rel <= 0.05, f"pseudo/random mismatch {rel:.4f} at s={s}"
    assert worst <= 0.05
    _report("6s", "pseudo tracks random and exact-law moments", True,
            f"worst relative gap to N*mu_s: {worst:.4f}")


# -------------------------------------------------------------------------
# 7. eigensolver contracts
# -------------------------------------------------------------------------

def test_criterion_7_eigensolver_properties():
    rng = np.random.default_rng(71)
    worst = {"recon": 0.0, "ortho": 0.0, "trace": 0.0, "frob": 0.0}
    for n, count in ((5, 70), (50, 70), (200, 60)):
        for _ in range(count):
            A = rng.normal(size=(n, n))
            M = (A + A.T) / 2.0
            # Q and its eigenvalues from the oracle; the trace and Frobenius
            # checks read the program's own eigenvalues
            vals, Q = oracles.symmetric_eigen(M, want_vectors=True)
            eigs = spectral.eigenvalues_unchecked(M.copy())
            assert np.array_equal(eigs, oracles.symmetric_eigen(M))
            fro = np.linalg.norm(M)
            worst["recon"] = max(
                worst["recon"],
                np.linalg.norm(Q @ np.diag(vals) @ Q.T - M) / fro,
            )
            worst["ortho"] = max(
                worst["ortho"], np.linalg.norm(Q.T @ Q - np.eye(n)) / n
            )
            worst["trace"] = max(
                worst["trace"], abs(eigs.sum() - np.trace(M)) / max(abs(np.trace(M)), 1.0)
            )
            worst["frob"] = max(worst["frob"], abs((eigs**2).sum() - fro**2) / fro**2)
    ok = (
        worst["recon"] <= 1e-10
        and worst["ortho"] <= 1e-10
        and worst["trace"] <= 1e-9
        and worst["frob"] <= 1e-9
    )

    # characteristic-polynomial root oracle at N <= 4 (Faddeev-LeVerrier
    # coefficients from explicit matrix powers, mpmath root finding)
    rng2 = np.random.default_rng(72)
    worst_roots = 0.0
    for n in (2, 3, 4):
        for _ in range(20):
            A = rng2.normal(size=(n, n))
            M = (A + A.T) / 2.0
            coeffs = [1.0]
            for k in range(1, n + 1):
                c = -sum(
                    coeffs[j] * np.trace(np.linalg.matrix_power(M, k - j))
                    for j in range(k)
                ) / k
                coeffs.append(float(c))
            with mpmath.workdps(40):
                roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60)
            oracle = np.sort([float(mpmath.re(r)) for r in roots])
            direct = spectral.eigenvalues_unchecked(M.copy())
            worst_roots = max(worst_roots, float(np.abs(direct - oracle).max()))
    ok &= worst_roots <= 1e-9
    _report(7, "eigensolver reconstruction/orthogonality/oracles", ok,
            f"worst recon {worst['recon']:.1e}, ortho {worst['ortho']:.1e}, "
            f"roots {worst_roots:.1e}")
    assert ok


# -------------------------------------------------------------------------
# 8. law evaluators
# -------------------------------------------------------------------------

def test_criterion_8_law_evaluators():
    gammas = (0.25, 0.5, 0.625, 1.0)
    worst_mom = 0.0
    worst_mass = 0.0
    for gamma in gammas:
        law = laws.MarchenkoPasturLaw(gamma)
        a, b = law.support
        for s, moment in enumerate(law.moments(8), start=1):
            quad_val, _ = integrate.quad(
                lambda x: x**s * oracles.mp_pdf(x, gamma), a, b,
                epsabs=1e-12, limit=200,
            )
            worst_mom = max(worst_mom, abs(float(moment) - quad_val))
        mass, _ = integrate.quad(
            lambda x: oracles.mp_pdf(x, gamma), a, b, epsabs=1e-12, limit=200
        )
        worst_mass = max(worst_mass, abs(mass - 1.0))
    sc_mass, _ = integrate.quad(oracles.semicircle_pdf, -1, 1, epsabs=1e-12)
    worst_mass = max(worst_mass, abs(sc_mass - 1.0))
    ok = (
        worst_mom <= 1e-8
        and laws.SemicircleLaw().cdf(0.0) == 0.5
        and worst_mass <= 1e-8
    )
    _report(8, "law moments vs quadrature, unit mass, cdf(0)", ok,
            f"worst moment gap {worst_mom:.1e}, worst mass gap {worst_mass:.1e}")
    assert ok


# -------------------------------------------------------------------------
# 9. pseudo vs random norm histograms
# -------------------------------------------------------------------------

def test_criterion_9_norm_histogram_match():
    _, pseudo = _norms("pseudo-wigner", 2000, 91, N=44, m=10, delta=15)
    _, random_ = _norms("random-wigner", 2000, 92, N=44)
    d = spectral.ks_two_sample(pseudo, random_)
    ok = d <= 0.1
    _report(9, "pseudo/random norm distribution match", ok,
            f"two-sample KS {d:.4f} over 2000+2000 samples")
    assert ok
