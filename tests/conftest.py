import pytest

from xvapde import _kernel, solver

from helpers import no_bounds


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


@pytest.fixture
def unguarded(monkeypatch):
    """Plan the whole test body without the stability guard: every member's
    own nsub is 1 (``helpers.no_bounds``); ties still raise tied members to
    their largest. ``helpers.unguarded_planning`` is its context-manager form."""
    monkeypatch.setattr(solver, "_stability_bounds", no_bounds)
