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


# --- semicircle --------------------------------------------------------------

def test_semicircle_pdf_values():
    assert oracles.semicircle_pdf(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert oracles.semicircle_pdf(1.0) == 0.0
    assert oracles.semicircle_pdf(1.5) == 0.0
    assert oracles.semicircle_pdf(-2.0) == 0.0


def test_semicircle_cdf_values():
    assert laws.semicircle_cdf(0.0) == 0.5
    assert laws.semicircle_cdf(1.0) == 1.0
    assert laws.semicircle_cdf(-1.0) == 0.0
    assert laws.semicircle_cdf(5.0) == 1.0
    assert laws.semicircle_cdf(-5.0) == 0.0


def test_semicircle_pdf_integrates_to_one():
    val, _ = integrate.quad(oracles.semicircle_pdf, -1, 1, epsabs=1e-12)
    assert abs(val - 1.0) <= 1e-8


def test_semicircle_cdf_matches_pdf_integral():
    for x in (-0.9, -0.3, 0.2, 0.7):
        val, _ = integrate.quad(oracles.semicircle_pdf, -1, x, epsabs=1e-12)
        assert laws.semicircle_cdf(x) == pytest.approx(val, abs=1e-10)


def test_semicircle_moments_exact_values():
    assert laws.semicircle_moment(0) == 1
    assert laws.semicircle_moment(2) == Fraction(1, 4)
    assert laws.semicircle_moment(4) == Fraction(1, 8)
    assert laws.semicircle_moment(3) == 0
    assert laws.semicircle_moment(1) == 0


def test_semicircle_moments_vs_quadrature():
    for s in range(13):
        val, _ = integrate.quad(
            lambda x: x**s * oracles.semicircle_pdf(x), -1, 1, epsabs=1e-13
        )
        assert abs(float(laws.semicircle_moment(s)) - val) <= 1e-10


def test_semicircle_moment_stirling_sanity():
    # even moments approach sqrt(8 / (pi s^3)); at s = 60 within 5%
    s = 60
    ratio = float(laws.semicircle_moment(s)) * math.sqrt(math.pi * s**3 / 8.0)
    assert abs(ratio - 1.0) <= 0.05


def test_catalan_values():
    assert [laws.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert laws.catalan(30) == 3814986502092304


# --- Marchenko-Pastur ---------------------------------------------------------

def test_mp_support_values():
    a, b = laws.mp_support(0.625)
    # frozen from the defining formulas (1 -+ sqrt(gamma))^2
    assert a == pytest.approx(0.04386116991581031, abs=1e-15)
    assert b == pytest.approx(3.20613883008419, abs=1e-14)
    assert laws.mp_support(1.0) == (0.0, 4.0)


def test_mp_pdf_values():
    # at gamma=1: f(x) = sqrt(x (4 - x)) / (2 pi x); f(2) = 1/(2 pi)
    assert oracles.mp_pdf(2.0, 1.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)
    a, b = laws.mp_support(0.5)
    assert oracles.mp_pdf(a - 1e-9, 0.5) == 0.0
    assert oracles.mp_pdf(b + 1e-9, 0.5) == 0.0


def test_mp_pdf_integrates_to_one():
    for gamma in GAMMAS:
        a, b = laws.mp_support(gamma)
        val, _ = integrate.quad(
            lambda x: oracles.mp_pdf(x, gamma), a, b, epsabs=1e-12, limit=200
        )
        assert abs(val - 1.0) <= 1e-8, f"gamma={gamma}: integral {val}"


def test_mp_cdf_endpoints_and_monotone():
    for gamma in GAMMAS + (1 / 40,):
        a, b = laws.mp_support(gamma)
        assert laws.mp_cdf(a, gamma) == 0.0
        assert laws.mp_cdf(b, gamma) == 1.0
        near_b = b - np.logspace(-14, -2, 25)
        xs = np.sort(np.concatenate([np.linspace(a - 0.2, b + 0.2, 400), near_b]))
        vals = laws.mp_cdf(xs, gamma)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(vals[xs <= a] == 0.0) and np.all(vals[xs >= b] == 1.0)


def test_mp_cdf_monotone_dense_grid():
    xs = np.linspace(-0.5, 4.5, 10_000)
    vals = laws.mp_cdf(xs, 0.625)
    assert np.all(np.diff(vals) >= 0.0)
    sc = laws.semicircle_cdf(np.linspace(-1.2, 1.2, 10_000))
    assert np.all(np.diff(sc) >= 0.0)


def test_mp_cdf_vector_matches_scalar():
    edge = np.array([0.0, 1e-12, 1e-6, 1e-3])
    for gamma in GAMMAS:
        a, b = laws.mp_support(gamma)
        xs = np.concatenate(
            [[0.3, 1.0, 2.5, 0.1, 0.509], a + edge, b - edge, [a - 0.1, b + 0.1]]
        )
        xs = np.random.default_rng(7).permutation(xs)
        vec = laws.mp_cdf(xs, gamma)
        for x, v in zip(xs, vec):
            assert laws.mp_cdf(float(x), gamma) == pytest.approx(v, abs=1e-10), (gamma, x)


def _quad_mp_cdf(x, gamma):
    # split at the midpoint so each quad call has one square-root edge
    a, b = laws.mp_support(gamma)
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
        a, b = laws.mp_support(gamma)
        xs = np.concatenate([np.linspace(a, b, 9)[1:-1], a + offsets, b - offsets])
        vals = laws.mp_cdf(xs, gamma)
        for x, v in zip(xs, vals):
            assert abs(v - _quad_mp_cdf(x, gamma)) <= 1e-12, (gamma, x)


def test_mp_moments_exact_values():
    assert laws.mp_moment(1, 0.3) == 1
    assert laws.mp_moment(2, 1.0) == 2       # Catalan C_2: MP(1) is squared-semicircle
    assert laws.mp_moment(2, 0.5) == Fraction(3, 2)
    assert laws.mp_moment(2, Fraction(5, 8)) == 1 + Fraction(5, 8)


def test_mp_moments_vs_quadrature():
    for gamma in GAMMAS:
        a, b = laws.mp_support(gamma)
        for s in range(1, 9):
            val, _ = integrate.quad(
                lambda x: x**s * oracles.mp_pdf(x, gamma), a, b,
                epsabs=1e-12, limit=200,
            )
            exact = float(laws.mp_moment(s, gamma))
            assert abs(exact - val) <= 1e-8, f"s={s} gamma={gamma}"


def test_mp_gamma_one_moments_are_catalan():
    for s in range(1, 8):
        assert laws.mp_moment(s, 1) == laws.catalan(s)


def test_narayana_values():
    assert oracles.narayana(4, 2) == 6
    assert sum(oracles.narayana(4, k) for k in range(1, 5)) == laws.catalan(4)


def test_mp_moment_recurrence_matches_narayana_sum():
    for gamma in (1, 0.5, 0.625, 1 / 3, Fraction(1, 3), 0.3, 1e-3):
        for s in range(1, 61):
            assert laws.mp_moment(s, gamma) == oracles.mp_moment(s, gamma), (s, gamma)


def test_law_moments_one_pass_match_per_order():
    for gamma in GAMMAS:
        expected = [laws.mp_moment(s, gamma) for s in range(1, 61)]
        assert list(laws.mp_moments(60, gamma)) == expected, gamma
        assert list(laws.MarchenkoPasturLaw(gamma).moments(60)) == expected, gamma
    expected = [laws.semicircle_moment(s) for s in range(1, 61)]
    assert list(laws.semicircle_moments(60)) == expected
    assert list(laws.SemicircleLaw().moments(60)) == expected


def test_gamma_validation():
    for bad in (0.0, -0.1, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            oracles.mp_pdf(1.0, bad)
        with pytest.raises(InvalidInputError):
            laws.mp_moment(2, bad)
    with pytest.raises(InvalidInputError):
        laws.MarchenkoPasturLaw(gamma=2.0)


def test_moment_order_validation():
    with pytest.raises(InvalidInputError):
        laws.semicircle_moment(-1)
    with pytest.raises(InvalidInputError):
        laws.mp_moment(0, 0.5)


# --- law objects ---------------------------------------------------------------

def test_law_objects_surface():
    sc = laws.SemicircleLaw()
    assert sc.kind == "semicircle"
    assert sc.support == (-1.0, 1.0)
    assert sc.cdf(0.0) == 0.5
    mp = laws.MarchenkoPasturLaw(0.625)
    assert mp.kind == "marchenko-pastur"
    assert mp.support == laws.mp_support(0.625)
    assert mp.moment(1) == 1
