"""The four demos print the recorded bytes on both marches."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

from xvapde import ModelAssumptionWarning

DEMOS = Path(__file__).resolve().parents[1] / "demos"
RECORDED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_a_demo_prints_its_recorded_bytes(both_marches, demo):
    """Each demo runs end to end with ModelAssumptionWarning as an error,
    in the compiled kernel and in the numpy fallback, and its stdout is
    the bytes in ``demo_output/<demo>.txt``."""
    want = (RECORDED / f"{demo}.txt").read_bytes()
    for path in both_marches():
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("error", ModelAssumptionWarning)
            runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
        assert out.getvalue().encode() == want, path
