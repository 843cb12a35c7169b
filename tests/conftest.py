"""Fixtures shared by the test modules."""

import os
import signal

import pytest

from pseudospec import spectral


# seconds a test may run, fixtures of its own scope included: well above
# the slowest test, so only a hang (a pipe of ``spectral.forked`` that never
# reaches its end, say) meets it, and fails the test instead of the suite
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT: SIGALRM raises
    TimeoutError in the main thread, which interrupts a blocking read."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=["lapack-bisection", "eigvalsh"])
def norm_route(request, monkeypatch):
    """Run a test on the LAPACK norm route and again on the eigvalsh fallback."""
    if request.param == "lapack-bisection" and spectral._LAPACK is None:
        pytest.skip("numpy exports no dsytrd/dstebz under a known name")
    if request.param == "eigvalsh":
        monkeypatch.setattr(spectral, "_LAPACK", None)
    assert spectral.environment()["norm_route"] == request.param
    return request.param


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls the test makes, as a one-item list."""
    made, real = [0], os.fork

    def fork():
        made[0] += 1
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def no_child_left():
    """A check that this process has no child, running or unreaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
