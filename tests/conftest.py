import pytest

from xvapde import _kernel


@pytest.fixture
def both_marches(monkeypatch):
    """Run a test body on both marches: ``for path in both_marches(): ...``
    marches in the compiled kernel, then in the numpy fallback
    (``solver._march_numpy``), which must give the same bits. The switch
    is restored when the test ends."""
    monkeypatch.setattr(_kernel, "enabled", True)

    def paths():
        for path in ("kernel", "numpy"):
            _kernel.enabled = path == "kernel"
            yield path
        _kernel.enabled = True
    return paths
