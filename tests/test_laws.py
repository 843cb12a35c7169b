"""Limit-law evaluators against quadrature and closed-form oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import oracles

from pseudospec import laws
from pseudospec.errors import InvalidInputError

GAMMAS = (0.25, 0.5, 0.625, 1.0)
SC = laws.SemicircleLaw()
MP = laws.MarchenkoPasturLaw


# --- semicircle --------------------------------------------------------------

def test_semicircle_pdf_values():
    assert oracles.semicircle_pdf(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert oracles.semicircle_pdf(1.0) == 0.0
    assert oracles.semicircle_pdf(1.5) == 0.0
    assert oracles.semicircle_pdf(-2.0) == 0.0


def test_semicircle_cdf_values():
    assert SC.cdf(0.0) == 0.5
    assert SC.cdf(1.0) == 1.0
    assert SC.cdf(-1.0) == 0.0
    assert SC.cdf(5.0) == 1.0
    assert SC.cdf(-5.0) == 0.0


def test_semicircle_pdf_integrates_to_one():
    val, _ = integrate.quad(oracles.semicircle_pdf, -1, 1, epsabs=1e-12)
    assert abs(val - 1.0) <= 1e-8


def test_semicircle_cdf_matches_pdf_integral():
    for x in (-0.9, -0.3, 0.2, 0.7):
        val, _ = integrate.quad(oracles.semicircle_pdf, -1, x, epsabs=1e-12)
        assert SC.cdf(x) == pytest.approx(val, abs=1e-10)


def test_semicircle_moments_exact_values():
    assert list(SC.moments(4)) == [0, Fraction(1, 4), 0, Fraction(1, 8)]


def test_semicircle_moments_vs_quadrature():
    # order 0 is the total mass, 1 by definition
    for s, moment in enumerate([1, *SC.moments(12)]):
        val, _ = integrate.quad(
            lambda x: x**s * oracles.semicircle_pdf(x), -1, 1, epsabs=1e-13
        )
        assert abs(float(moment) - val) <= 1e-10


def test_semicircle_moment_stirling_sanity():
    # even moments approach sqrt(8 / (pi s^3)); at s = 60 within 5%
    s = 60
    *_, moment = SC.moments(s)
    ratio = float(moment) * math.sqrt(math.pi * s**3 / 8.0)
    assert abs(ratio - 1.0) <= 0.05


def test_catalan_values():
    assert [oracles.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert oracles.catalan(30) == 3814986502092304


# --- Marchenko-Pastur ---------------------------------------------------------

def test_mp_support_values():
    a, b = MP(0.625).support
    # frozen from the defining formulas (1 -+ sqrt(gamma))^2
    assert a == pytest.approx(0.04386116991581031, abs=1e-15)
    assert b == pytest.approx(3.20613883008419, abs=1e-14)
    assert MP(1.0).support == (0.0, 4.0)


def test_mp_pdf_values():
    # at gamma=1: f(x) = sqrt(x (4 - x)) / (2 pi x); f(2) = 1/(2 pi)
    assert oracles.mp_pdf(2.0, 1.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)
    a, b = MP(0.5).support
    assert oracles.mp_pdf(a - 1e-9, 0.5) == 0.0
    assert oracles.mp_pdf(b + 1e-9, 0.5) == 0.0


def test_mp_pdf_integrates_to_one():
    for gamma in GAMMAS:
        a, b = MP(gamma).support
        val, _ = integrate.quad(
            lambda x: oracles.mp_pdf(x, gamma), a, b, epsabs=1e-12, limit=200
        )
        assert abs(val - 1.0) <= 1e-8, f"gamma={gamma}: integral {val}"


def test_mp_cdf_endpoints_and_monotone():
    for gamma in GAMMAS + (1 / 40,):
        law = MP(gamma)
        a, b = law.support
        assert law.cdf(a) == 0.0
        assert law.cdf(b) == 1.0
        near_b = b - np.logspace(-14, -2, 25)
        xs = np.sort(np.concatenate([np.linspace(a - 0.2, b + 0.2, 400), near_b]))
        vals = law.cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(vals[xs <= a] == 0.0) and np.all(vals[xs >= b] == 1.0)


def test_mp_cdf_monotone_dense_grid():
    xs = np.linspace(-0.5, 4.5, 10_000)
    vals = MP(0.625).cdf(xs)
    assert np.all(np.diff(vals) >= 0.0)
    sc = SC.cdf(np.linspace(-1.2, 1.2, 10_000))
    assert np.all(np.diff(sc) >= 0.0)


def test_mp_cdf_vector_matches_scalar():
    edge = np.array([0.0, 1e-12, 1e-6, 1e-3])
    for gamma in GAMMAS:
        law = MP(gamma)
        a, b = law.support
        xs = np.concatenate(
            [[0.3, 1.0, 2.5, 0.1, 0.509], a + edge, b - edge, [a - 0.1, b + 0.1]]
        )
        xs = np.random.default_rng(7).permutation(xs)
        vec = law.cdf(xs)
        for x, v in zip(xs, vec):
            assert law.cdf(float(x)) == pytest.approx(v, abs=1e-10), (gamma, x)


@pytest.mark.parametrize("law", [MP(0.625), MP(1 / 40), MP(1.0), SC],
                         ids=["mp-0.625", "mp-1/40", "mp-1", "semicircle"])
def test_cdf_rows_match_1d_calls(law):
    # what esd's blocks pass: each row of a (B, n) array is its own spectrum
    a, b = law.support
    block = np.random.default_rng(12).uniform(a - 0.3, b + 0.3, size=(6, 33))
    block[0, :4] = [b, a, b, a]              # both edges, twice each
    block[1, 6:12] = block[1, :6]            # ties within a row
    block[2] = a - 1.0                       # a whole row below the support
    block[3, ::2] = b + 1.0                  # half a row above it
    vals = law.cdf(block)
    assert vals.shape == block.shape
    for row, got in zip(block, vals):
        assert got.tobytes() == law.cdf(row).tobytes()
    sorted_vals = np.take_along_axis(vals, np.argsort(block, axis=-1), axis=-1)
    assert np.all(np.diff(sorted_vals, axis=-1) >= 0.0)
    assert np.all(vals[block <= a] == 0.0) and np.all(vals[block >= b] == 1.0)
    for x in (a, 0.5 * (a + b), np.float64(b)):
        assert type(law.cdf(x)) is float


def _quad_mp_cdf(x, gamma):
    # split at the midpoint so each quad call has one square-root edge
    a, b = MP(gamma).support
    mid = 0.5 * (a + b)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for lo, hi in ((a, min(x, mid)), (mid, x)):
            if hi > lo:
                val, _ = integrate.quad(
                    lambda t: oracles.mp_pdf(t, gamma), lo, hi,
                    epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                total += val
    return total


def test_mp_cdf_matches_quadrature():
    offsets = np.logspace(-14, -2, 7)
    for gamma in GAMMAS + (1 / 40,):
        a, b = MP(gamma).support
        xs = np.concatenate([np.linspace(a, b, 9)[1:-1], a + offsets, b - offsets])
        vals = MP(gamma).cdf(xs)
        for x, v in zip(xs, vals):
            assert abs(v - _quad_mp_cdf(x, gamma)) <= 1e-12, (gamma, x)


def test_mp_moments_exact_values():
    assert next(MP(0.3).moments(1)) == 1
    assert list(MP(1.0).moments(2))[1] == 2   # Catalan C_2: MP(1) is squared-semicircle
    assert list(MP(0.5).moments(2))[1] == Fraction(3, 2)
    assert list(MP(Fraction(5, 8)).moments(2))[1] == 1 + Fraction(5, 8)


def test_mp_moments_vs_quadrature():
    for gamma in GAMMAS:
        law = MP(gamma)
        a, b = law.support
        for s, moment in enumerate(law.moments(8), start=1):
            val, _ = integrate.quad(
                lambda x: x**s * oracles.mp_pdf(x, gamma), a, b,
                epsabs=1e-12, limit=200,
            )
            exact = float(moment)
            assert abs(exact - val) <= 1e-8, f"s={s} gamma={gamma}"


def test_mp_gamma_one_moments_are_catalan():
    assert list(MP(1).moments(7)) == [oracles.catalan(s) for s in range(1, 8)]


def test_narayana_values():
    assert oracles.narayana(4, 2) == 6
    assert sum(oracles.narayana(4, k) for k in range(1, 5)) == oracles.catalan(4)


def test_mp_moment_recurrence_matches_narayana_sum():
    for gamma in (1, 0.5, 0.625, 1 / 3, Fraction(1, 3), 0.3, 1e-3):
        for s, moment in enumerate(MP(gamma).moments(60), start=1):
            assert moment == float(oracles.mp_moment(s, gamma)), (s, gamma)


def test_law_moments_match_closed_form():
    expected = [0.0 if s % 2 else float(Fraction(oracles.catalan(s // 2), 2**s))
                for s in range(1, 61)]
    assert list(SC.moments(60)) == expected
    for gamma in GAMMAS + (Fraction(1, 3), 0.3):
        expected = [float(oracles.mp_moment(s, gamma)) for s in range(1, 61)]
        assert list(MP(gamma).moments(60)) == expected, gamma
    # floats, so the law column of moments.csv prints 0.0, not 0
    assert all(type(m) is float for m in [*SC.moments(60), *MP(1).moments(60)])


def test_gamma_validation():
    for bad in (0.0, -0.1, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            oracles.mp_pdf(1.0, bad)
        with pytest.raises(InvalidInputError):
            MP(bad)
    with pytest.raises(InvalidInputError):
        MP(gamma=2.0)
    # above 1 exactly, though it rounds to the float 1.0
    with pytest.raises(InvalidInputError):
        MP(Fraction(10**20 + 1, 10**20))


def test_moments_start_at_order_one():
    assert list(SC.moments(0)) == [] and list(MP(0.5).moments(0)) == []
    assert next(SC.moments(1)) == 0 and next(MP(0.5).moments(1)) == 1


# --- law objects ---------------------------------------------------------------

def test_law_objects_surface():
    assert SC.kind == "semicircle"
    assert SC.support == (-1.0, 1.0)
    assert SC.cdf(0.0) == 0.5
    mp = MP(0.625)
    assert mp.kind == "marchenko-pastur"
    sq = math.sqrt(0.625)
    assert mp.support == ((1.0 - sq) ** 2, (1.0 + sq) ** 2)
    assert next(mp.moments(1)) == 1
