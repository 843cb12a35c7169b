"""Semicircle and Marchenko-Pastur limit laws: one object per law.

Each law is a frozen dataclass that holds its own math: ``kind`` (the name
written to ``ks.json``), ``support`` (the upper edge scales ``norms``),
``cdf(x)`` (the KS band of ``esd``) and ``moments(s_max)`` (the law column
of ``moments``).

Cumulative distributions are evaluated in float64 in closed form (the
Marchenko-Pastur one in a half-angle atan2 form that keeps full precision
at the support edges; see ``MarchenkoPasturLaw.cdf``).  Moments of orders
1..s_max come from one pass of an integer recurrence (Catalan numbers for
the semicircle, Narayana polynomials for Marchenko-Pastur), each as one
int true division of two exact integers: a correctly rounded float, or
OverflowError for an MP moment beyond the float range.

The MP moment of order s at aspect ratio gamma is the Narayana sum

    sum_{k=1}^{s} gamma^(k-1) * N(s, k),   N(s, k) = (1/s) C(s, k) C(s, k-1).

The exponent convention (gamma^(k-1), not gamma^k) is pinned by the exact
trace identity: the first moment of the spectrum of Y^T Y with unit-norm
columns is exactly 1 for every gamma, which only the k-1 convention
satisfies.

The densities, the Catalan closed form and the Narayana sum live in
``tests/oracles.py``: the tests integrate the densities by quadrature to
check the CDFs and the moments, and check each recurrence against its
closed form exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class SemicircleLaw:
    """The semicircle law on [-1, 1], density (2/pi) sqrt(1 - x^2)."""

    kind: str = field(default="semicircle", init=False)
    support: tuple[float, float] = field(default=(-1.0, 1.0), init=False)

    def cdf(self, x):
        """Closed-form CDF, elementwise over any array shape, clamped to
        {0, 1} outside the support."""
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x, -1.0, 1.0)
        out = 0.5 + (xc * np.sqrt(1.0 - xc**2) + np.arcsin(xc)) / np.pi
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def moments(self, s_max: int):
        """Moments of orders 1..s_max, correctly rounded: 0 for odd s,
        C_{s/2} / 2^s for even s, from one pass of the Catalan recurrence
        C_k = C_{k-1} (4k - 2) / (k + 1)."""
        catalan_k = 1  # C_0
        for s in range(1, s_max + 1):
            if s % 2 == 1:
                yield 0.0
            else:
                k = s // 2
                catalan_k = catalan_k * (4 * k - 2) // (k + 1)
                yield catalan_k / (1 << s)


@dataclass(frozen=True)
class MarchenkoPasturLaw:
    """The Marchenko-Pastur law of aspect ratio gamma in (0, 1], on
    [(1 - sqrt(gamma))^2, (1 + sqrt(gamma))^2].

    gamma may be a float or a Fraction; it is checked once, here, both as a
    float (NaN and +-inf) and exactly, as the Fraction the moments use.
    """

    gamma: float
    kind: str = field(default="marchenko-pastur", init=False)

    def __post_init__(self) -> None:
        if not (0.0 < float(self.gamma) <= 1.0 and 0 < Fraction(self.gamma) <= 1):
            raise InvalidInputError(f"gamma must be in (0, 1], got {self.gamma}")

    @property
    def support(self) -> tuple[float, float]:
        """Endpoints a = (1 - sqrt(gamma))^2, b = (1 + sqrt(gamma))^2."""
        sq = math.sqrt(float(self.gamma))
        return (1.0 - sq) ** 2, (1.0 + sq) ** 2

    def cdf(self, x):
        """Closed-form CDF: the antiderivative of the density from the lower
        edge.

        With t = x clamped to [a, b] and u = sqrt(t - a), v = sqrt(b - t),

            F(t) = [u v + (a + b) atan2(u, v)
                    - 2 sqrt(ab) atan2(sqrt(b) u, sqrt(a) v)] / (2 pi gamma).

        The textbook form writes these angles as arcsin of a ratio; the
        half-angle atan2 form is used because arcsin loses about the square
        root of the rounding error where its argument nears +-1, which here
        is every point near either edge.  At gamma = 1 the lower edge a = 0
        is a hard edge and the sqrt(ab) term vanishes without a special case.

        The output is exactly 0 for x <= a and exactly 1 for x >= b.  Array
        inputs, in any order, are evaluated over the points sorted along the
        last axis with a running maximum, so each row of the output is
        monotone in x even where rounding would put a value a few ulps below
        its left neighbour.  A (B, n) array is B independent rows, each
        bit for bit what a 1-D call on that row returns.
        """
        a, b = self.support
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        order = np.argsort(x_arr, axis=-1, kind="stable")
        t = np.clip(np.take_along_axis(x_arr, order, axis=-1), a, b)
        u, v = np.sqrt(t - a), np.sqrt(b - t)
        vals = (
            u * v
            + (a + b) * np.arctan2(u, v)
            - 2.0 * math.sqrt(a * b) * np.arctan2(math.sqrt(b) * u, math.sqrt(a) * v)
        ) / (2.0 * np.pi * float(self.gamma))
        vals[t == b] = 1.0
        out = np.empty_like(vals)
        np.put_along_axis(out, order,
                          np.maximum.accumulate(np.clip(vals, 0.0, 1.0), axis=-1), axis=-1)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out[0])
        return out

    def moments(self, s_max: int):
        """Moments of orders 1..s_max, correctly rounded, yielded from one
        run of the integer recurrence below.

        A float gamma converts exactly (binary rationals such as 0.625 stay
        exact), and a Fraction such as 1/3 is used as it is.  With
        gamma = a/b in lowest terms, P_s = b^(s-1) * moment is the
        homogenised Narayana polynomial sum_k a^(k-1) b^(s-k) N(s, k), an
        integer, and it obeys the three-term recurrence of the Narayana
        polynomials (OEIS A001263):

            P_1 = 1,  P_2 = a + b,
            (j+1) P_j = (2j-1)(a+b) P_{j-1} - (j-2)(b-a)^2 P_{j-2},

        in which the division is exact.  That is O(s_max) integer
        operations, plus one int true division P_s / b^(s-1) per order.
        """
        a, b = Fraction(self.gamma).as_integer_ratio()
        ab, d2 = a + b, (b - a) ** 2
        # prev starts as a stand-in P_0: the j = 2 step gives it weight j - 2 = 0
        prev, cur, scale = 0, 1, 1
        for j in range(1, s_max + 1):
            if j > 1:
                prev, cur = cur, ((2 * j - 1) * ab * cur - (j - 2) * d2 * prev) // (j + 1)
                scale *= b
            yield cur / scale
