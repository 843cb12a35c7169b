"""Reference implementations that the tests check the program against.

None of these is on a path that a ``pseudospec`` command runs; each is an
independent route to something the program computes, kept naive or kept
in its textbook form so that it shares as little as possible with the
code under test:

- ``symmetric_eigen`` / ``dense_norm``: numpy's full symmetric solve
  behind an input check (nonempty, finite, symmetric to 1e-12 relative),
  the reference for eigenvalues, eigenvectors and the norm that the
  readers of ``spectral`` are checked against.
- ``lanczos_norm``: the spectral norm by Lanczos iteration (scipy's
  ARPACK), against the dense solver and the norm-only route.  scipy is a
  test-only dependency, and this is its only user outside the tests.
- ``esd_cdf``: the empirical spectral distribution at arbitrary points,
  the brute-force grid check of ``spectral.ks_distance``.
- ``is_primitive`` / ``_prime_factors``: the certificate that every entry
  of ``gf2m.PRIMITIVE_POLYS`` is primitive.
- ``field_mul``, ``field_pow``, ``field_eval`` and ``_field_modulus``:
  GF(2^m) arithmetic by carry-less multiply and reduction, the root check
  of ``gf2m.minimal_polynomial``.
- ``minimal_polynomial``: the expansion of prod (x + alpha^j) over the
  cyclotomic coset of e, with coefficients in GF(2^m), against which the
  GF(2) elimination of ``gf2m.minimal_polynomial`` is checked.
- ``semicircle_pdf`` / ``mp_pdf``: the densities whose quadrature checks
  the law objects' closed-form CDFs and exact moments.
- ``catalan``: the closed form C(2k, k) / (k + 1), against which the
  Catalan recurrence of ``laws.SemicircleLaw.moments`` is checked.
- ``narayana`` / ``mp_moment``: the Marchenko-Pastur moment as the
  Narayana sum, in ``Fraction`` arithmetic, against which the integer
  recurrence of ``laws.MarchenkoPasturLaw.moments`` is checked.
- ``bch_generator_by_roots``: the generator of a BCH code as the product
  of the minimal polynomials (the expansion above) of its roots, one per
  coset leader below delta, against which ``codes.bch_generator`` is
  checked on both of its routes.
- ``delta_for_dimension_upward``: the least designed distance of a BCH
  dimension by walking every coset leader up from 1, values and error
  text both, against which ``codes.delta_for_dimension`` is checked on
  both of its walks.
- ``min_distance_exact``: a code's minimum distance by enumerating its
  codewords, against the designed distance (criterion 1).
- ``generator_matrix``: a code's dense k x n generator matrix, row j the
  shift x^j g, against which ``codes.column_reader`` and the GF(2) ranks of
  ``independence`` are checked.
- ``message_for_index``: message i of a seed as numpy's
  ``default_rng((seed, i))`` draws it, the definition that
  ``codes.message_for_index`` and ``codes.message_bytes`` repeat in Python
  ints and in numpy blocks.
- ``poly_from_hex``: the inverse of ``gf2m.poly_to_hex``.
- ``read_codewords``: a codeword batch file read whole by its format,
  the header (n, count) and then fixed-width little-endian records, with
  no checks, against which ``codes.save_codewords`` and ``sample`` are
  checked.
- ``square_by_string`` / ``reciprocal_by_string``: a GF(2) square and a
  bit reversal through the binary digit string of the polynomial, against
  which the byte tables of ``gf2m.poly_square`` and ``gf2m.reciprocal``
  are checked.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from pseudospec.codes import CyclicCode, DualCode, word_to_bits
from pseudospec.errors import (
    ArithmeticCorruptionError,
    InvalidInputError,
    NumericalFailureError,
)
from pseudospec.gf2m import (
    _x_pow_mod,
    alpha_pow,
    cyclotomic_coset,
    default_primitive_poly,
    degree,
    poly_mod,
    poly_mul,
)
from pseudospec.laws import MarchenkoPasturLaw
from pseudospec.spectral import _check_square

SYMMETRY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    _check_square(M)
    scale = np.abs(M).max()
    if not np.isfinite(scale):
        raise InvalidInputError("matrix has non-finite entries")
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidInputError("matrix is not symmetric within 1e-12 relative")
    return M


def symmetric_eigen(M, want_vectors: bool = False):
    """Ascending eigenvalues of a symmetric matrix, by numpy's full solve.

    Returns the eigenvalues, or (eigenvalues, Q) with orthonormal columns
    when vectors are requested.  Empty, non-square, asymmetric and
    non-finite input is rejected with InvalidInputError; non-convergence
    of the underlying iteration surfaces as NumericalFailureError.
    """
    M = _check_symmetric(M)
    try:
        return tuple(np.linalg.eigh(M)) if want_vectors else np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


def dense_norm(M) -> float:
    """max(|lambda_min|, |lambda_max|) from ``symmetric_eigen``."""
    eigs = symmetric_eigen(M)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def lanczos_norm(M) -> float:
    """Largest absolute eigenvalue by Lanczos, with a fixed start vector.

    A route to the norm independent of the dense solver, so each can check
    the other: it must agree with ``dense_norm(M)`` to 1e-8
    relative.  Orders 1 and 2 use closed forms.
    """
    M = _check_symmetric(M)
    n = M.shape[0]
    if n == 1:
        return float(abs(M[0, 0]))
    if n == 2:
        # closed form keeps this path independent of the dense solver
        a, b, c = M[0, 0], M[0, 1], M[1, 1]
        half_gap = math.hypot((a - c) / 2.0, b)
        mid = (a + c) / 2.0
        return float(max(abs(mid + half_gap), abs(mid - half_gap)))
    import scipy.sparse.linalg  # only this oracle route needs ARPACK

    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        vals = scipy.sparse.linalg.eigsh(
            M, k=1, which="LM", v0=v0, tol=1e-12, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailureError(f"Lanczos did not converge: {exc}") from exc
    return float(abs(vals[0]))


def esd_cdf(eigenvalues, x):
    """(1/N) #{i : lambda_i <= x}; ties counted with multiplicity."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if eigs.size == 0:
        raise InvalidInputError("empty spectrum")
    counts = np.searchsorted(eigs, x, side="right")
    out = np.asarray(counts, dtype=np.float64) / eigs.size
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# GF(2^m)
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_primitive(p: int, m: int) -> bool:
    """True when x has multiplicative order 2^m - 1 modulo p.

    Order exactly 2^m - 1 forces p to be irreducible (a reducible modulus
    has a strictly smaller unit group), so this single check certifies
    primitivity.
    """
    if degree(p) != m or not (p & 1):
        return False
    n = (1 << m) - 1
    if n == 1:
        return True
    if _x_pow_mod(n, p) != 1:
        return False
    return all(_x_pow_mod(n // q, p) != 1 for q in _prime_factors(n))


def _field_modulus(m: int, *elements: int) -> int:
    """PRIMITIVE_POLYS[m], once each element is checked to lie in GF(2^m)."""
    modulus = default_primitive_poly(m)
    for a in elements:
        if not 0 <= a < (1 << m):
            raise InvalidInputError(
                f"element {a:#x} is wider than {m} bits; wrong field?"
            )
    return modulus


def field_mul(a: int, b: int, m: int) -> int:
    """Product in GF(2^m): carry-less multiply followed by reduction."""
    return poly_mod(poly_mul(a, b), _field_modulus(m, a, b))


def field_pow(a: int, e: int, m: int) -> int:
    """a^e in GF(2^m) (e >= 0)."""
    _field_modulus(m, a)
    result = 1
    base = a
    while e:
        if e & 1:
            result = field_mul(result, base, m)
        base = field_mul(base, base, m)
        e >>= 1
    return result


def field_eval(poly: int, elem: int, m: int) -> int:
    """Evaluate a binary polynomial at an element of GF(2^m) (Horner)."""
    _field_modulus(m, elem)
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = field_mul(acc, elem, m) ^ ((poly >> i) & 1)
    return acc


def minimal_polynomial(e: int, m: int) -> int:
    """Minimal polynomial of alpha^e over GF(2), for 0 <= e < 2^m - 1.

    Expands prod_{j in coset(e)} (x + alpha^j) with coefficients in GF(2^m)
    and checks that every coefficient lands in {0, 1}; a wider coefficient
    means the field arithmetic is broken, which is reported as corruption
    rather than bad input.  The coset is walked as e, 2e, 4e, ..., so each
    root is the square of the one before.
    """
    modulus = default_primitive_poly(m)
    root = alpha_pow(e, m)
    # coeffs[i] is the GF(2^m) coefficient of x^i; every product of two
    # reduced elements is reduced again, so none is wider than m bits
    coeffs = [1]
    for _ in range(len(cyclotomic_coset(e, (1 << m) - 1))):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= poly_mod(poly_mul(c, root), modulus)
        coeffs = nxt
        root = poly_mod(poly_mul(root, root), modulus)
    result = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ArithmeticCorruptionError(
                f"minimal polynomial of alpha^{e} has non-binary coefficient "
                f"{c:#x} at x^{i}"
            )
        result |= c << i
    return result


# ---------------------------------------------------------------------------
# limit laws
# ---------------------------------------------------------------------------

def semicircle_pdf(x):
    """Density (2/pi) sqrt(1 - x^2) on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) <= 1.0
    out = np.zeros_like(x)
    out[inside] = (2.0 / np.pi) * np.sqrt(1.0 - x[inside] ** 2)
    return out if out.ndim else float(out)


def mp_pdf(x, gamma: float):
    """Density sqrt((b - x)(x - a)) / (2 pi gamma x) on [a, b], zero outside."""
    a, b = MarchenkoPasturLaw(gamma).support
    gamma = float(gamma)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (x >= a) & (x <= b) & (x > 0)
    xi = x[inside]
    out[inside] = np.sqrt(np.clip((b - xi) * (xi - a), 0.0, None)) / (
        2.0 * np.pi * gamma * xi
    )
    return out if out.ndim else float(out)


def catalan(k: int) -> int:
    """Catalan number C_k = C(2k, k) / (k + 1)."""
    return math.comb(2 * k, k) // (k + 1)


def narayana(s: int, k: int) -> Fraction:
    """Narayana number N(s, k) = (1/s) C(s, k) C(s, k-1)."""
    return Fraction(math.comb(s, k) * math.comb(s, k - 1), s)


def mp_moment(s: int, gamma) -> Fraction:
    """Exact s-th MP moment: sum_k gamma^(k-1) N(s, k).

    gamma may be a Fraction or a float; floats convert exactly (binary
    rationals such as 0.625 stay exact).
    """
    if s < 1:
        raise InvalidInputError("moment order must be >= 1")
    g = Fraction(gamma)
    if not 0 < g <= 1:
        raise InvalidInputError(f"gamma must be in (0, 1], got {gamma}")
    return sum((g ** (k - 1)) * narayana(s, k) for k in range(1, s + 1))


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

# min_distance_exact enumerates codewords and stops at 2^24 of them; exact
# r-independence uses column ranks and enumerates nothing.
ENUMERATION_BUDGET_BITS = 24


class EnumerationBudgetError(RuntimeError):
    """An exact enumeration would exceed its budget."""


def bch_generator_by_roots(m: int, delta: int) -> int:
    """g(x) of the BCH code of length 2^m - 1 and odd designed distance
    delta: the product of ``minimal_polynomial(e, m)`` over the coset
    leaders e of 1 .. delta - 1."""
    n = (1 << m) - 1
    g = 1
    for e in range(1, delta):
        if e == min(cyclotomic_coset(e, n)):
            g = poly_mul(g, minimal_polynomial(e, m))
    return g


def delta_for_dimension_upward(m: int, k: int) -> int:
    """The least odd designed distance whose BCH code of length 2^m - 1 has
    dimension k, 1 <= k < 2^m - 1: each coset leader e from 1 up drops the
    dimension by its coset's size, and e + 2 is the least odd delta with
    alpha^e as a root.  A skipped k raises, naming the nearest dimensions."""
    n = (1 << m) - 1
    dim, above = n, ""
    for e in range(1, n):
        coset = cyclotomic_coset(e, n)
        if e != min(coset):
            continue
        dim -= len(coset)
        if dim == k:
            return e + 2
        if dim < k:
            raise InvalidInputError(
                f"no BCH code of length {n} has dimension {k} "
                f"(nearest: {above}k={dim} at delta={e + 2} below)"
            )
        above = f"k={dim} at delta={e + 2} above, "


def min_distance_exact(code: Union[CyclicCode, DualCode]) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Walks messages in Gray-code order so each step is a single XOR with a
    shifted generator.  Refuses dimensions above the enumeration budget;
    callers should fall back to the designed distance there.
    """
    k = code.dimension
    if k > ENUMERATION_BUDGET_BITS:
        raise EnumerationBudgetError(
            f"dimension {k} exceeds the 2^{ENUMERATION_BUDGET_BITS} "
            "enumeration budget; use the designed distance instead"
        )
    basis = [code.generator << j for j in range(k)]
    word = 0
    best = code.n + 1
    for i in range(1, 1 << k):
        word ^= basis[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
    return best


def generator_matrix(code: Union[CyclicCode, DualCode]) -> np.ndarray:
    """k x n basis matrix over GF(2); row j is x^j * g(x)."""
    k, n = code.dimension, code.n
    rows = np.zeros((k, n), dtype=np.uint8)
    g_bits = word_to_bits(code.generator, n)
    deg = degree(code.generator)
    for j in range(k):
        rows[j, j : j + deg + 1] = g_bits[: deg + 1]
    return rows


def message_for_index(k_bits: int, seed: int, index: int) -> int:
    """Uniform k-bit message for (seed, index): bit j is draw j of
    ``default_rng((seed, index)).integers(0, 2, size=k_bits, dtype=uint8)``.
    """
    rng = np.random.default_rng((int(seed), int(index)))
    bits = rng.integers(0, 2, size=k_bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def poly_from_hex(s: str) -> int:
    """Inverse of poly_to_hex."""
    return int.from_bytes(bytes.fromhex(s), "little")


def read_codewords(path) -> tuple[int, list[int]]:
    """(n, records) of a codeword batch file (README, "File formats")."""
    raw = Path(path).read_bytes()
    n, count = struct.unpack_from("<II", raw)
    size = (n + 7) // 8
    return n, [int.from_bytes(raw[8 + i * size : 8 + (i + 1) * size], "little")
               for i in range(count)]


def square_by_string(f: int) -> int:
    """f(x)^2 = f(x^2): a 0 digit put between each two binary digits of f."""
    return int("0".join(format(f, "b")), 2)


def reciprocal_by_string(p: int) -> int:
    """x^deg(p) * p(1/x): the binary digits of p read backwards (0 for 0)."""
    return int(format(p, "b")[::-1], 2)
