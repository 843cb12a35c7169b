"""Dense symmetric spectra and the statistics derived from them.

The direct eigensolver is LAPACK's symmetric driver via numpy (Householder
tridiagonalization plus implicit-shift iterations under the hood), exposed
behind a validated interface, ``symmetric_eigen``: inputs must be nonempty,
finite and symmetric to 1e-12 relative, outputs are ascending.  Its core,
``symmetric_eigen_unchecked``, skips the validation; the batch runner calls
it on the matrices of ``ensembles.pack``, which are exactly symmetric and
finite by construction, so there the check would be one more pass over
every matrix that can never fail.  A second, independent route to the
spectral norm, ``lanczos_norm``, runs Lanczos iteration (ARPACK) with a
fixed start vector; it must agree with ``symmetric_eigen(M).norm`` to
1e-8 relative, which the test suite enforces on random inputs.

High-order trace moments are always formed from eigenvalues, never by
repeated matrix multiplication: powers up to s ~ N^(2/3) are needed and
matrix powers lose precision long before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted spectrum of one symmetric matrix."""

    eigenvalues: np.ndarray  # ascending
    norm: float              # max(|smallest|, |largest|)

    def trace_moment(self, s: int) -> float:
        """(1/N) Tr(M^s) from the stored eigenvalues."""
        if s < 1:
            raise InvalidInputError("moment order must be >= 1")
        return float(np.mean(self.eigenvalues**s))


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise InvalidInputError("empty matrix")
    scale = np.abs(M).max()
    if not np.isfinite(scale):
        raise InvalidInputError("matrix has non-finite entries")
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidInputError("matrix is not symmetric within 1e-12 relative")
    return M


def symmetric_eigen(M, want_vectors: bool = False):
    """Eigendecomposition of a symmetric matrix.

    Returns a SpectralSummary, or (summary, Q) with orthonormal columns
    when vectors are requested.  Empty, non-square, asymmetric and
    non-finite input is rejected with InvalidInputError; non-convergence
    of the underlying iteration surfaces as NumericalFailureError.
    """
    return symmetric_eigen_unchecked(_check_symmetric(M), want_vectors)


def symmetric_eigen_unchecked(M: np.ndarray, want_vectors: bool = False):
    """``symmetric_eigen`` without the input check.

    M must already be a square, exactly symmetric, finite float64 array;
    what LAPACK makes of anything else is undefined.
    """
    try:
        if want_vectors:
            eigs, vecs = np.linalg.eigh(M)
        else:
            eigs = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    norm = float(max(abs(eigs[0]), abs(eigs[-1]))) if eigs.size else 0.0
    summary = SpectralSummary(eigenvalues=eigs, norm=norm)
    return (summary, vecs) if want_vectors else summary


def lanczos_norm(M) -> float:
    """Largest absolute eigenvalue by Lanczos, with a fixed start vector.

    A route to the norm independent of the dense solver, so each can check
    the other: it must agree with ``symmetric_eigen(M).norm`` to 1e-8
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


def ks_distance(eigenvalues, law) -> float:
    """Sup-norm distance between the ESD and a continuous law's CDF.

    The supremum of |step function - continuous CDF| is attained at the
    jump points, so it suffices to compare law.cdf(lambda_i) against the
    ESD values i/N and (i-1)/N.  A SpectralSummary's eigenvalues are used
    as they are, being ascending by contract; a raw array is sorted.
    """
    if isinstance(eigenvalues, SpectralSummary):
        eigs = eigenvalues.eigenvalues
    else:
        eigs = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    n = eigs.size
    if n == 0:
        raise InvalidInputError("empty spectrum")
    cdf_vals = np.asarray(law.cdf(eigs), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - cdf_vals
    lower = cdf_vals - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_two_sample(a, b) -> float:
    """Sup-norm distance between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())
