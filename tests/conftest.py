"""Fixtures shared by the test modules."""

import os

import pytest

from pseudospec import spectral


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
