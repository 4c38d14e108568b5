"""Shared test setup.

`timeflip` is imported here, before any test module loads numpy, so the
suite runs with the package's one-thread BLAS default (a user's own
OPENBLAS_NUM_THREADS still wins).
"""

import timeflip  # noqa: F401  (must precede the first numpy import)

import pytest

from timeflip import sdp


@pytest.fixture
def admm_runs(monkeypatch):
    """Record every splitting run that starts."""
    runs = []

    class Recording(sdp._Admm):
        def __init__(self, prog):
            super().__init__(prog)
            runs.append(self)

    monkeypatch.setattr(sdp, "_Admm", Recording)
    return runs
