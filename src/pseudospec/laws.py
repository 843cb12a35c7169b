"""Semicircle and Marchenko-Pastur limit laws.

Cumulative distributions are evaluated in float64 in closed form (the
Marchenko-Pastur one in a half-angle atan2 form that keeps full precision
at the support edges; see mp_cdf); moments are exact rationals (Catalan
numbers for the semicircle, an integer recurrence for Marchenko-Pastur)
computed with big-integer arithmetic, since the Catalan numbers involved
overflow 64 bits well before s = 60.

The MP moment of order s at aspect ratio gamma is the Narayana sum

    sum_{k=1}^{s} gamma^(k-1) * N(s, k),   N(s, k) = (1/s) C(s, k) C(s, k-1),

which mp_moments evaluates for every order up to s in one pass of the
three-term recurrence of the Narayana polynomials.  The exponent
convention (gamma^(k-1), not gamma^k) is pinned by the exact trace
identity: the first moment of the spectrum of Y^T Y with unit-norm
columns is exactly 1 for every gamma, which only the k-1 convention
satisfies.

The densities, and the Narayana sum itself, live in ``tests/oracles.py``:
the tests integrate the densities by quadrature to check the CDFs and the
moments, and check the recurrence against the sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError


# ---------------------------------------------------------------------------
# semicircle law on [-1, 1]
# ---------------------------------------------------------------------------

def semicircle_cdf(x):
    """Closed-form CDF, clamped to {0, 1} outside the support."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, -1.0, 1.0)
    out = 0.5 + (xc * np.sqrt(1.0 - xc**2) + np.arcsin(xc)) / np.pi
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def catalan(k: int) -> int:
    """Catalan number C_k = (2k)! / (k! (k+1)!)."""
    return math.comb(2 * k, k) // (k + 1)


def semicircle_moment(s: int) -> Fraction:
    """Exact s-th moment: C_{s/2} / 2^s for even s, 0 for odd s."""
    if s < 0:
        raise InvalidInputError("moment order must be >= 0")
    if s % 2 == 1:
        return Fraction(0)
    return Fraction(catalan(s // 2), 1 << s)


def semicircle_moments(s_max: int):
    """``semicircle_moment`` of orders 1..s_max, yielded from one pass of
    the Catalan recurrence C_k = C_{k-1} (4k - 2) / (k + 1)."""
    catalan_k = 1  # C_0
    for s in range(1, s_max + 1):
        if s % 2 == 1:
            yield Fraction(0)
        else:
            k = s // 2
            catalan_k = catalan_k * (4 * k - 2) // (k + 1)
            yield Fraction(catalan_k, 1 << s)


# ---------------------------------------------------------------------------
# Marchenko-Pastur law on [(1-sqrt(gamma))^2, (1+sqrt(gamma))^2]
# ---------------------------------------------------------------------------

def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError(f"gamma must be in (0, 1], got {gamma}")
    return gamma


def mp_support(gamma: float) -> tuple[float, float]:
    """Support endpoints a = (1 - sqrt(gamma))^2, b = (1 + sqrt(gamma))^2."""
    gamma = _check_gamma(gamma)
    sq = math.sqrt(gamma)
    return (1.0 - sq) ** 2, (1.0 + sq) ** 2


def mp_cdf(x, gamma: float):
    """Closed-form CDF: the antiderivative of the density from the lower edge.

    With t = x clamped to [a, b] and u = sqrt(t - a), v = sqrt(b - t),

        F(t) = [u v + (a + b) atan2(u, v)
                - 2 sqrt(ab) atan2(sqrt(b) u, sqrt(a) v)] / (2 pi gamma).

    The textbook form writes these angles as arcsin of a ratio; the
    half-angle atan2 form is used because arcsin loses about the square
    root of the rounding error where its argument nears +-1, which here is
    every point near either edge.  At gamma = 1 the lower edge a = 0 is a
    hard edge and the sqrt(ab) term vanishes without a special case.

    The output is exactly 0 for x <= a and exactly 1 for x >= b.  Vector
    inputs, in any order, are evaluated over the sorted points with a
    running maximum, so the output is monotone in x even where rounding
    would put a value a few ulps below its left neighbour.
    """
    gamma = _check_gamma(gamma)
    a, b = mp_support(gamma)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    order = np.argsort(x_arr, kind="stable")
    t = np.clip(x_arr[order], a, b)
    u, v = np.sqrt(t - a), np.sqrt(b - t)
    vals = (
        u * v
        + (a + b) * np.arctan2(u, v)
        - 2.0 * math.sqrt(a * b) * np.arctan2(math.sqrt(b) * u, math.sqrt(a) * v)
    ) / (2.0 * np.pi * gamma)
    vals[t == b] = 1.0
    out = np.empty_like(vals)
    out[order] = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def mp_moments(s_max: int, gamma):
    """Exact MP moments of orders 1..s_max, yielded from one run of the
    integer recurrence below.

    gamma may be a Fraction or a float; floats convert exactly (binary
    rationals such as 0.625 stay exact).  With gamma = a/b in lowest terms,
    P_s = b^(s-1) * moment is the homogenised Narayana polynomial
    sum_k a^(k-1) b^(s-k) N(s, k), an integer, and it obeys the three-term
    recurrence of the Narayana polynomials (OEIS A001263):

        P_1 = 1,  P_2 = a + b,
        (j+1) P_j = (2j-1)(a+b) P_{j-1} - (j-2)(b-a)^2 P_{j-2},

    in which the division is exact.  That is O(s_max) integer operations,
    plus one Fraction per order.
    """
    _check_gamma(gamma)  # NaN and +-inf, before Fraction() trips on them
    g = Fraction(gamma)
    if not 0 < g <= 1:
        raise InvalidInputError(f"gamma must be in (0, 1], got {gamma}")
    a, b = g.as_integer_ratio()
    ab, d2 = a + b, (b - a) ** 2
    # prev starts as a stand-in P_0: the j = 2 step gives it weight j - 2 = 0
    prev, cur, scale = 0, 1, 1
    for j in range(1, s_max + 1):
        if j > 1:
            prev, cur = cur, ((2 * j - 1) * ab * cur - (j - 2) * d2 * prev) // (j + 1)
            scale *= b
        yield Fraction(cur, scale)


def mp_moment(s: int, gamma) -> Fraction:
    """Exact s-th MP moment, sum_k gamma^(k-1) N(s, k): the last of
    ``mp_moments(s, gamma)``."""
    if s < 1:
        raise InvalidInputError("moment order must be >= 1")
    for moment in mp_moments(s, gamma):
        pass
    return moment


# ---------------------------------------------------------------------------
# law objects with a common evaluator surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemicircleLaw:
    kind: str = field(default="semicircle", init=False)
    support: tuple[float, float] = field(default=(-1.0, 1.0), init=False)

    def cdf(self, x):
        return semicircle_cdf(x)

    def moment(self, s: int) -> Fraction:
        return semicircle_moment(s)

    def moments(self, s_max: int):
        return semicircle_moments(s_max)


@dataclass(frozen=True)
class MarchenkoPasturLaw:
    gamma: float
    kind: str = field(default="marchenko-pastur", init=False)

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)

    @property
    def support(self) -> tuple[float, float]:
        return mp_support(self.gamma)

    def cdf(self, x):
        return mp_cdf(x, self.gamma)

    def moment(self, s: int) -> Fraction:
        return mp_moment(s, self.gamma)

    def moments(self, s_max: int):
        return mp_moments(s_max, self.gamma)
