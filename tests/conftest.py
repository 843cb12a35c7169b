"""Fixtures shared by the test modules."""

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
