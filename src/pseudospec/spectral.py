"""Dense symmetric spectra and the statistics derived from them.

Three readers, one per batch command.  None of them checks that M is
symmetric and finite: the matrices of ``ensembles.pack`` are so by
construction, and a check would be one more pass over every matrix that
can never fail.

- ``esd`` takes every eigenvalue, ascending, from ``eigenvalues_unchecked``,
  numpy's ``eigvalsh`` (LAPACK ``dsyevd`` without vectors).  It is the one
  place that calls ``eigvalsh``, and the fallback of the other two.  It
  scores the spectra against the limit law a block at a time:
  ``ks_distance`` takes the last axis as one spectrum, so a (B, N) block
  costs one law-CDF call instead of B, with every distance bit for bit
  that of a call on its row alone.
- ``norms`` takes the norm, max(|lambda_min|, |lambda_max|), from
  ``norm_unchecked``, the larger magnitude of the two ends that
  ``extremes_unchecked`` finds: one blocked Householder reduction to
  tridiagonal form T = Q^T M Q (LAPACK ``dsytrd``, workspace from an
  ``lwork = -1`` query; ``_tridiagonal``) and two bisections (``dstebz``)
  for the extreme eigenvalues of T, to an absolute tolerance of twice the
  safe minimum (Anderson et al., *LAPACK Users' Guide*, 3rd ed., 1999,
  sec. 2.4.4).  It skips the iterations over every other eigenvalue, and
  agrees with the ``eigvalsh`` norm to about 1e-14 relative (1e-13 is
  enforced by the tests), not bit for bit.
- ``moments`` takes the traces (1/N) Tr(M^s), s = 1..s_max, from
  ``trace_moments_unchecked``: the same tridiagonal form and no
  eigenvalue at all (below).

``dsytrd`` and ``dstebz`` are called through ``ctypes`` in the OpenBLAS
that numpy itself links, found by ``dlsym`` on the handle of numpy's
linalg extension, so no second LAPACK is loaded.  A numpy whose LAPACK is
not exported under a known spelling (a conda or MKL build, say) gets the
ends or the power sums of ``eigenvalues_unchecked``'s eigenvalues
instead, chosen once at import; ``environment()`` says which route is in
effect, with the BLAS build and thread count read from the same handle.
The test suite checks the norm against an independent route, the Lanczos
(ARPACK) ``lanczos_norm`` of ``tests/oracles.py``, to 1e-8 relative, and
the KS distance against the brute-force ``esd_cdf`` there.  ARPACK is
needed only by that oracle, so its package is a test dependency, not a
runtime one.

Everything those LAPACK calls take but the matrix -- the arrays d, e, tau,
the workspaces, the output w, the ``ctypes`` scalars and the argument
tuples of all three calls -- is built once per order and thread and kept
(``_workspace``), so a call costs its three foreign calls and little
else.  Each thread has its own workspace, so the readers are safe to call
from several threads at once, each with its own matrix; the package
itself calls them from one thread per process.  INFO and the found count
are reset before every call, so a call that fails to write them cannot
pass for the previous call's success.

``one_blas_thread`` pins numpy's OpenBLAS to one thread and restores the
count it found, through ``openblas_{get,set}_num_threads64_`` on the same
handle.  A BLAS without them cannot be pinned (``CAN_PIN`` is False).
``cpu_count`` is the one rule for how many CPUs the package's workers
use, and ``shares`` and ``forked`` are the one way they are started:
contiguous index ranges, one per CPU, every range but the caller's run in
a forked child that pickles its result back.  The batch commands of
``cli`` solve their samples this way at the orders where the BLAS is
pinned, and sampled ``verify-indep`` counts its message batches this way;
a ``taskset`` limits both alike.  Processes, not threads: a thread of the
batch loop hands the GIL over on every sample, and a thread of the
counting kernel on every small numpy call, while a forked range pays one
fork for all its work.

The traces need no eigenvalue: traces are invariant under the similarity
(Golub & Van Loan, *Matrix Computations*, sec. 8.3), and the banded powers
of T cost O(N s_max^2) flops, against the O(N^2) iterations that
find every eigenvalue.  Powers of the tridiagonal T, not of the dense M,
are multiplied: an entry of T^a is off by about a u ||T||^a, u the unit
roundoff, as the power lambda^s of an eigenvalue from the full solve is
off by about s u ||T||^s.  The two routes agree to within 2.3e-13 of
mean(|lambda|^s), measured up to s = 60 at N = 180 and s = 16 at N = 1024
(the tests enforce 1e-12).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import threading
import traceback

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, NumericalFailureError


def _check_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise InvalidInputError("empty matrix")


def _numpy_blas():
    """Handle of numpy's linalg extension; dlsym on it reaches numpy's BLAS."""
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None


def _blas_symbol(name: str):
    """`name` as numpy 2.x wheels (scipy_ prefix) or 1.2x wheels export it."""
    if _BLAS is None:
        return None
    for prefix in ("scipy_", ""):
        try:
            return getattr(_BLAS, prefix + name)
        except AttributeError:
            continue
    return None


def _load_lapack():
    """(dsytrd, dstebz) of numpy's ILP64 OpenBLAS, or None if either is absent.

    Both take int64 integers and a trailing size_t length per character
    argument; every other argument goes by pointer.
    """
    dsytrd, dstebz = _blas_symbol("dsytrd_64_"), _blas_symbol("dstebz_64_")
    if dsytrd is None or dstebz is None:
        return None
    ptr, char, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    # UPLO N A LDA D E TAU WORK LWORK INFO
    dsytrd.argtypes = [char] + [ptr] * 9 + [length]
    # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
    dstebz.argtypes = [char, char] + [ptr] * 16 + [length, length]
    dsytrd.restype = dstebz.restype = None
    return dsytrd, dstebz


def _load_threads():
    """(get, set) of OpenBLAS's thread count, or None if either is absent."""
    get, set_ = (_blas_symbol(f"openblas_{verb}_num_threads64_")
                 for verb in ("get", "set"))
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS = _numpy_blas()
_LAPACK = _load_lapack()
_THREADS = _load_threads()
CAN_PIN = _THREADS is not None  # whether one_blas_thread pins anything
_ABSTOL = 2.0 * np.finfo(np.float64).tiny  # LAPACK's safe minimum, twice


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, its earlier thread
    count restored on leaving it, however it is left; nothing changes
    when the BLAS cannot be pinned (``CAN_PIN``).  Call it from one thread
    at a time: the count is the whole process's."""
    if _THREADS is None:
        yield
        return
    get, set_ = _THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, so ``taskset`` limits it, else ``os.cpu_count()``, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shares(indices: range) -> list[range]:
    """`indices` in contiguous shares, in order: one per CPU (``cpu_count``)
    and at most one per index, or a single share where ``os.fork`` is
    missing."""
    n = len(indices)
    workers = max(1, min(cpu_count(), n)) if hasattr(os, "fork") else 1
    return [indices[n * i // workers : n * (i + 1) // workers] for i in range(workers)]


@contextlib.contextmanager
def forked(work, ranges):
    """Run ``work(r)`` in one forked child per range r of `ranges`; the
    block gets an iterator over their results, in order.

    The caller works on its own range inside the block, while the children
    run.  Each child pickles its result to a pipe and leaves by
    ``os._exit``; the iterator reads each pipe to its end only when that
    result is asked for, then reaps the child, so a child that finished
    early waits on its full pipe, not the caller on it.  A child exits 0
    only once its whole pickle is written, so a nonzero exit status, and
    only that, marks a short read; it raises RuntimeError naming the bytes
    written.  An exception in ``work`` is such a crash, its traceback on
    file descriptor 2.  Signals are blocked from each fork until its child
    is recorded, and however the block is left, a child still running is
    killed and reaped: no process outlives it.  ``work`` runs in the child
    only: it must be fork-safe (the module docstring of ``independence``
    says why the package's are) and return something picklable.
    """
    children: dict[int, int] = {}  # pid -> read end of its pipe, in order
    try:
        for share in ranges:
            read, write = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(work, share, write, mask, [read, *children.values()])
                children[pid] = read
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _results(children)
    finally:
        for pid, read in children.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _results(children: dict[int, int]):
    """Each child's unpickled result, in order, reaping it (``forked``)."""
    for pid in list(children):
        data = bytearray()
        while chunk := os.read(children[pid], 1 << 16):
            data += chunk
        status = os.waitpid(pid, 0)[1]
        os.close(children.pop(pid))
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(
                f"worker {pid} exited with status {code} after writing {len(data)} bytes")
        yield pickle.loads(data)


def _run_child(work, share, write: int, mask, reads: list[int]) -> None:
    """A forked child's whole life: close the pipe ends `reads` it
    inherited, so that it gets EPIPE, not a wait for ever, if the caller
    dies; restore the signal mask `mask`; write the pickle of
    ``work(share)`` to the pipe end `write` and leave by ``os._exit``,
    status 0 only if all of it was written.  It never returns into the
    caller's frames, so nothing of the parent's (its ``finally`` blocks,
    atexit hooks, buffered stdio) runs twice.  An exception's traceback
    goes to file descriptor 2, unbuffered."""
    status = 1
    try:
        for fd in reads:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        view = memoryview(pickle.dumps(work(share), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(write, view):]
        status = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def environment() -> dict:
    """The BLAS build, its thread count and the route that ``norms`` and
    ``moments`` take in this process (``norm_route``)."""
    get_config = _blas_symbol("openblas_get_config64_")
    if get_config is not None:
        get_config.restype = ctypes.c_char_p
    return {
        "blas": get_config().decode() if get_config is not None else None,
        "blas_threads": _THREADS[0]() if _THREADS is not None else None,
        "norm_route": "eigvalsh" if _LAPACK is None else "lapack-bisection",
    }


_UNSET = np.iinfo(np.int64).min  # INFO before a call; LAPACK writes 0 or a code


class _Workspace:
    """The arrays and by-reference arguments of ``dsytrd`` and of the two
    ``dstebz`` calls at one order n, built once, so a call passes only its
    matrix.

    dsytrd's workspace length comes from an ``lwork = -1`` query.  One
    thread uses it (``_workspace``): d and e are overwritten by that
    thread's next reduction.
    """

    def __init__(self, n: int):
        ref = ctypes.byref
        self.n = n
        self.info, self.found = ctypes.c_int64(_UNSET), ctypes.c_int64()
        order, query, size = ctypes.c_int64(n), ctypes.c_int64(-1), np.zeros(1)
        unused = size.ctypes.data  # the query reads neither A nor D, E and TAU
        _LAPACK[0](b"L", ref(order), unused, ref(order), unused, unused, unused,
                   unused, ref(query), ref(self.info), 1)
        if self.info.value != 0:
            raise NumericalFailureError(
                f"dsytrd workspace query failed, INFO={self.info.value}")
        lwork = ctypes.c_int64(max(int(size[0]), 1))
        self.d, self.e, self.w = np.empty(n), np.empty(n), np.empty(n)
        tau, work, scratch = np.empty(n), np.empty(lwork.value), np.empty(4 * n)
        iblock, isplit = np.empty(n, np.int64), np.empty(n, np.int64)
        iwork = np.empty(3 * n, np.int64)
        # ctypes keeps no reference to a buffer passed by address
        self._keep = (tau, work, scratch, iblock, isplit, iwork)
        bound, abstol = ctypes.c_double(0.0), ctypes.c_double(_ABSTOL)
        lowest, highest, nsplit = ctypes.c_int64(1), ctypes.c_int64(n), ctypes.c_int64()
        d, e = self.d.ctypes.data, self.e.ctypes.data
        # dsytrd's arguments before and after A
        self.head = (b"L", ref(order))
        self.tail = (ref(order), d, e, tau.ctypes.data, work.ctypes.data, ref(lwork),
                     ref(self.info), 1)
        # dstebz's arguments for eigenvalue k of T, IL = IU = k
        self.bisections = tuple(
            (b"I", b"E", ref(order), ref(bound), ref(bound), ref(k), ref(k),
             ref(abstol), d, e, ref(self.found), ref(nsplit), self.w.ctypes.data,
             iblock.ctypes.data, isplit.ctypes.data, scratch.ctypes.data,
             iwork.ctypes.data, ref(self.info), 1, 1)
            for k in (lowest, highest))


_local = threading.local()


def _workspace(n: int) -> _Workspace:
    """This thread's workspace at order n, built anew when the order changes."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.n != n:
        ws = _local.workspace = _Workspace(n)
    return ws


def _tridiagonal(M: np.ndarray) -> _Workspace | None:
    """T = Q^T M Q by one blocked Householder reduction, LAPACK ``dsytrd``,
    in numpy's own LAPACK; None when that LAPACK is not reachable.

    The result is this thread's workspace: T's diagonal is its d and T's
    off-diagonal the first n - 1 entries of its e, valid until the
    thread's next reduction.  Non-square and empty M raise
    InvalidInputError.  A float64, C-contiguous, writeable M is reduced in
    place; any other M is copied first.  A LAPACK failure raises
    NumericalFailureError.
    """
    _check_square(M)
    if _LAPACK is None:
        return None
    a = np.require(M, np.float64, ("C", "W"))
    ws = _workspace(M.shape[0])
    ws.info.value = _UNSET
    _LAPACK[0](*ws.head, a.ctypes.data, *ws.tail)
    if ws.info.value != 0:
        raise NumericalFailureError(f"dsytrd failed, INFO={ws.info.value}")
    return ws


def eigenvalues_unchecked(M: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a symmetric matrix, ascending, by numpy's
    ``eigvalsh``: the reader of ``esd`` and the fallback of the other two.

    M is not checked for symmetry or finiteness.  Non-square and empty M
    raise InvalidInputError; an ``eigvalsh`` that does not converge raises
    NumericalFailureError.
    """
    _check_square(M)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


def extremes_unchecked(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix.

    ``_tridiagonal`` and a ``dstebz`` bisection for each extreme eigenvalue
    of T, in numpy's own LAPACK, or the ends of ``eigenvalues_unchecked(M)``
    when that LAPACK is not reachable.  Safe to call from several threads
    at once, each with its own matrix.  Like ``eigenvalues_unchecked`` it
    does not check that M is symmetric and finite.  It may overwrite M: a
    float64, C-contiguous, writeable M is reduced in place, which suits the
    fresh matrices of ``ensembles.pack``.  A LAPACK failure raises
    NumericalFailureError.
    """
    ws = _tridiagonal(M)
    if ws is not None:
        dstebz = _LAPACK[1]
        extremes = []
        for index, args in zip((1, ws.n), ws.bisections):
            ws.info.value, ws.found.value = _UNSET, 0
            dstebz(*args)
            if ws.info.value != 0 or ws.found.value != 1:
                raise NumericalFailureError(
                    f"dstebz failed for eigenvalue {index} of {ws.n}: "
                    f"INFO={ws.info.value}, "
                    f"{ws.found.value} eigenvalues returned"
                )
            extremes.append(float(ws.w[0]))
        return extremes[0], extremes[1]
    eigs = eigenvalues_unchecked(M)
    return float(eigs[0]), float(eigs[-1])


def norm_unchecked(M: np.ndarray) -> float:
    """Spectral norm max(|lambda_min|, |lambda_max|) of a symmetric matrix,
    from ``extremes_unchecked``, whose contract it shares."""
    lo, hi = extremes_unchecked(M)
    return max(abs(lo), abs(hi))


def trace_moments_unchecked(M: np.ndarray, s_max: int) -> np.ndarray:
    """(1/N) Tr(M^s) for s = 1..s_max, as an array, of a symmetric matrix M.

    Traces are invariant under the orthogonal similarity of ``_tridiagonal``,
    Tr(M^s) = Tr(T^s), so only ``dsytrd`` runs and no eigenvalue is found.
    The banded powers T^a, a <= ceil(s_max/2), are formed by repeated
    multiplication with T, each held by its 2h + 1 diagonals, h = min(a,
    N - 1), and Tr(T^s) = <T^a, T^(s-a)>, the elementwise inner product
    at a = floor(s/2): O(N s_max^2) flops in all.  Orders whose traces
    leave the float range read inf or nan.  When numpy's LAPACK is not
    reachable, the moments are power sums of ``eigenvalues_unchecked(M)``.
    The input and thread contract is ``norm_unchecked``'s: M is not checked
    for symmetry or finiteness and may be overwritten.  s_max < 1 raises
    InvalidInputError.
    """
    if s_max < 1:
        raise InvalidInputError(f"moment order must be >= 1, got s_max={s_max}")
    ws = _tridiagonal(M)
    if ws is None:
        eigs = eigenvalues_unchecked(M)
        return np.array([np.mean(eigs**s) for s in range(1, s_max + 1)])
    n, d, e = ws.n, ws.d, ws.e[: ws.n - 1]
    top = (s_max + 1) // 2  # the highest power formed
    w = min(top, n - 1)
    # Column w + 1 + k of row i holds entry (i, i + k).  Columns 0 and
    # 2w + 2 stay zero, so the shifted reads below stay in bounds.
    width = 2 * w + 3

    def by_offset(values):
        padded = np.zeros(n + width - 1)
        padded[w + 1 : w + 1 + values.size] = values
        return sliding_window_view(padded, width).copy()

    diag, upper = by_offset(d), by_offset(e)  # T[j, j] and T[j, j + 1], j = i + k
    outside = by_offset(np.ones(n)) == 0.0   # j beyond the matrix
    traces = np.empty(s_max)
    prev, cur = np.zeros((n, width)), np.zeros((n, width))
    prev[:, w + 1] = 1.0  # T^0
    lo, hi = w + 1, w + 2  # the band's columns
    for a in range(1, top + 1):
        # cur = prev T; a buffer's stale columns lie inside its new band
        lo_prev, hi_prev = lo, hi
        h = min(a, w)
        lo, hi = w + 1 - h, w + 2 + h
        band = cur[:, lo:hi]
        band[...] = (prev[:, lo - 1 : hi - 1] * upper[:, lo - 1 : hi - 1]
                     + prev[:, lo:hi] * diag[:, lo:hi]
                     + prev[:, lo + 1 : hi + 1] * upper[:, lo:hi])
        # an overflowed entry times a zero pad would be NaN, not zero
        band[outside[:, lo:hi]] = 0.0
        traces[2 * a - 2] = np.sum(prev[:, lo_prev:hi_prev] * cur[:, lo_prev:hi_prev])
        if 2 * a <= s_max:
            traces[2 * a - 1] = np.sum(band * band)
        prev, cur = cur, prev
    return traces / n


def _sorted_finite(values) -> np.ndarray:
    """values as a float64 array, ascending along its last axis; NaN and
    +-inf in any row are rejected."""
    x = np.sort(np.asarray(values, dtype=np.float64), axis=-1)
    if not np.isfinite(x).all():
        raise InvalidInputError("sample has non-finite values")
    return x


def ks_distance(eigenvalues, law) -> float | np.ndarray:
    """Sup-norm distance between the ESD and a continuous law's CDF.

    The supremum of |step function - continuous CDF| is attained at the
    jump points, so it suffices to compare law.cdf(lambda_i) against the
    ESD values i/N and (i-1)/N.  The last axis is one spectrum: a 1-D
    array gives a float, a (B, N) block an array of B distances, each bit
    for bit what a 1-D call on its row gives when the block is
    C-contiguous.  The eigenvalues are sorted, and rejected if any is not
    finite or if a spectrum is empty.
    """
    eigs = _sorted_finite(eigenvalues)
    n = eigs.shape[-1]
    if n == 0:
        raise InvalidInputError("empty spectrum")
    cdf_vals = np.asarray(law.cdf(eigs), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - cdf_vals
    lower = cdf_vals - np.arange(0, n) / n
    dist = np.maximum(upper, lower).max(axis=-1)
    return dist if dist.ndim else float(dist)


def ks_two_sample(a, b) -> float:
    """Sup-norm distance between two empirical CDFs of finite samples."""
    a, b = _sorted_finite(a), _sorted_finite(b)
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())
