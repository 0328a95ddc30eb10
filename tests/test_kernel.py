"""The compiled march: the same bits as the numpy row march, and how it loads."""

import math
import os
import shutil
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xvapde
from xvapde import (
    EngineError,
    GridSpec,
    Instrument,
    ModelAssumptionWarning,
    ModelVariant,
    NonFiniteValue,
    Problem,
    solve,
    turnover_factor,
)
from xvapde import _kernel, solver
from xvapde.instrument import curve_values

from helpers import STRIKE, X_MINUS, X_PLUS, desk_grid, desk_params, desk_problem

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def _bits(outcome):
    """An outcome as something == compares bit for bit."""
    if isinstance(outcome, NonFiniteValue):
        return "NonFiniteValue", outcome.step, outcome.node
    if isinstance(outcome, EngineError):
        return type(outcome).__name__, str(outcome)
    return outcome.shape, outcome.tobytes()


@st.composite
def marches(draw):
    """Problems on one small grid, with the arguments of ``_solve_stack``.

    Members mix nsub, variants, payoffs (custom ones too) and drift
    modes. Some are zero-source (recoveries of 1, s_F = 0), some have
    a -0.0 rate (BKTC with lambda_B = 0 < r*C_B as well), some blow up in
    the source or at an overflowing wall, and some break condition 1; ties
    march pairs at their larger nsub."""
    n_space, n_time = draw(st.integers(3, 30)), draw(st.integers(0, 6))
    spec = GridSpec(x_minus=X_MINUS, x_plus=X_PLUS, x_star=math.log(STRIKE),
                    alpha=(X_PLUS - X_MINUS) / draw(st.floats(2.0, 20.0)),
                    n_space=n_space, n_time=n_time, horizon=draw(st.floats(0.1, 2.0)))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        sigma, dt = draw(st.floats(0.05, 0.5)), draw(st.floats(1e-3, 0.05))
        overrides = dict(
            r=draw(st.floats(0.0, 0.1)), q_S=draw(st.floats(0.0, 0.08)),
            gamma_S=draw(st.floats(0.0, 0.08)), sigma=sigma, dt=dt,
            s_F=draw(st.sampled_from((0.0, 0.02))), lambda_B=draw(st.sampled_from((0.0, 0.05))),
            lambda_C=draw(st.floats(0.0, 0.1)), R_B=draw(st.sampled_from((1.0, 0.4))),
            R_C=draw(st.sampled_from((1.0, 0.4))), C_B=draw(st.floats(0.0, 0.01)),
            C_C=draw(st.floats(0.0, 0.01)),
            C_S=draw(st.floats(0.0, 0.9)) * sigma / turnover_factor(dt))
        variant = draw(st.sampled_from(ModelVariant))
        trouble = draw(st.sampled_from((None, None, None, "-0.0", "source", "wall", "ill-posed")))
        if trouble == "-0.0":  # source rates (+0.0, -0.0, +0.0)
            overrides.update(R_B=1.0, R_C=1.0, s_F=0.0, lambda_B=0.0, r=0.05, C_B=0.01)
            variant = ModelVariant.BKTC
        elif trouble == "source":  # overflows within a few sub-steps
            overrides.update(s_F=1e200, lambda_B=1e200)
        elif trouble == "wall":  # exp(g_s*tau) overflows once tau passes about 0.9
            overrides.update(q_S=800.0)
        elif trouble == "ill-posed":
            overrides.update(sigma=0.02, C_S=0.002)
        kind = draw(st.sampled_from(("call", "put", "custom")))
        custom = None
        if kind == "custom":
            custom = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n_space + 1,
                                            max_size=n_space + 1)))
        members.append(Problem(
            params=desk_params(**overrides), variant=variant,
            grid=spec, instrument=Instrument(kind, STRIKE, custom),
            drift_discretization=draw(st.sampled_from(("forward", "upwind")))))
    index = st.integers(0, len(members) - 1)
    ties = draw(st.lists(st.tuples(index, index), max_size=2))
    time_index = draw(st.none() | st.integers(-(n_time + 1), n_time))
    return members, time_index, draw(st.booleans()), ties


@given(march=marches())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_kernel_equals_the_numpy_march_bit_for_bit(both_marches, march):
    """Every outcome of ``_solve_stack``, values or error, is the same in the
    kernel and in ``_march_numpy``: the same bits, or the same (step, node)
    of a blow-up."""
    members, time_index, substep, ties = march
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        for _ in both_marches():
            outcomes.append([_bits(out) for out in
                             solver._solve_stack(members, time_index, substep, ties)])
    assert outcomes[0] == outcomes[1]


@needs_cc
@given(walls=st.lists(st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0)), min_size=8,
                      max_size=8),
       exponents=st.lists(st.floats(-800.0, 800.0) | st.just(0.0), min_size=4, max_size=4),
       taus=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_compiled_walls_equal_the_python_walls_bit_for_bit(walls, exponents, taus):
    """P*exp(p*tau) - Q*exp(q*tau) in C equals ``curve_values`` bit for bit,
    overflowing exponentials (inf) included."""
    walls[1], walls[3], walls[5], walls[7] = exponents
    curves = (tuple(walls[:4]), tuple(walls[4:]))
    coef, at = np.array(walls), np.array(taus)
    out = np.empty((len(taus), 2))
    _kernel.library().walls_into(coef.ctypes.data, at.ctypes.data, len(taus), out.ctypes.data)
    with np.errstate(invalid="ignore"):
        want = np.column_stack(curve_values(curves, taus))
    assert out.tobytes() == want.tobytes()


@needs_cc
def test_the_march_runs_in_the_kernel_where_a_compiler_is_found(monkeypatch):
    """With a compiler on PATH the kernel must build and load, so a silent
    fallback to the numpy march cannot hide."""
    assert _kernel.library() is not None

    def fallback(*args):
        raise AssertionError("the numpy march ran")

    monkeypatch.setattr(solver, "_march_numpy", fallback)
    solve(desk_problem(grid=desk_grid(n_time=4)))


@needs_cc
def test_processes_building_at_once_each_load_a_whole_library(tmp_path):
    """Two processes that build into one empty cache at once each load a
    working library; the cache ends with that library and no temporary."""
    cache = tmp_path / "cache"
    cache.mkdir()
    script = ("import sys, zlib\n"
              "from xvapde import _kernel, solver\n"
              "_kernel._cache_dir = sys.argv[1]\n"
              f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
              "from helpers import desk_grid, desk_problem\n"
              "assert _kernel.library() is not None\n"
              "values = solver.solve(desk_problem(grid=desk_grid(n_time=4))).values\n"
              "print(zlib.crc32(values.tobytes()))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xvapde.__file__)))
    children = [subprocess.Popen([sys.executable, "-c", script, str(cache)], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for _ in range(2)]
    done = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], done
    want = solve(desk_problem(grid=desk_grid(n_time=4))).values
    assert [int(out) for out, _ in done] == [zlib.crc32(want.tobytes())] * 2
    names = os.listdir(cache)
    assert len(names) == 1 and names[0].startswith("_march-") and names[0].endswith(".so")


def test_the_address_passed_to_the_kernel_is_the_arrays_data():
    """The kernel reads its arrays at ``_kernel.address``: the address numpy
    reports, for writable, read-only, sliced and empty arrays alike."""
    data = np.arange(12.0).reshape(3, 4)
    frozen = data.copy()
    frozen.flags.writeable = False
    for array in (data, data[1:], frozen, np.empty(0)):
        assert _kernel.address(array) == array.ctypes.data


def test_a_missing_compiler_falls_back_to_the_numpy_march(tmp_path, monkeypatch):
    """No compiler, no library: the march runs in numpy, with the same values,
    and the failed build leaves nothing behind."""
    prob = desk_problem(grid=desk_grid(n_time=20))
    want = solve(prob).values
    monkeypatch.setattr(_kernel, "_compiler", "no-such-cc")
    monkeypatch.setattr(_kernel, "_cache_dir", str(tmp_path))
    monkeypatch.setattr(_kernel, "_loaded", [])
    assert _kernel.library() is None
    assert solve(prob).values.tobytes() == want.tobytes()
    assert os.listdir(tmp_path) == []
