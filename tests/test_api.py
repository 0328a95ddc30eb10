"""The package's public surface, and the names the benchmark reads off it."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import xvapde
from xvapde import analytics, greeks, grid, instrument, model, solver

from helpers import desk_grid, desk_problem

PUBLIC = [
    "ConditionReport", "ConfigError", "EngineError", "GreeksReport", "GridSpec",
    "HedgeNotionals", "Instrument", "InvalidSpec", "MissingPayoff",
    "ModelAssumptionWarning", "ModelParams", "ModelVariant", "NonFiniteValue", "Problem",
    "SpaceGrid", "Surface", "SweepResult", "WellPosednessViolation", "build_space_grid",
    "check_condition1", "closed_form_call", "closed_form_call_delta", "compare_models",
    "cpty_cost_rate", "cva_profile", "greeks_report", "hedge_notionals",
    "modified_variance", "solve", "solve_stack", "stability_bound", "sweep",
    "turnover_factor", "validity_checks",
]

# internals: imported from the submodule that defines them
INTERNAL = {
    "cva_rows": analytics,
    "boundary_values": instrument, "payoff": instrument,
    "build_time_grid": grid,
    "bump_greek": greeks, "delta_gamma": greeks,
    "check_condition2": model, "check_condition4": model, "condition2_value": model,
    "condition4_bound": model, "effective_rates": model, "negative_exposure_rate": model,
    "positive_exposure_rate": model, "variance_and_drift": model,
    "nonlinear_source": solver, "step": solver, "step_coefficients": solver,
}

# the parameters of every public function (fields of every public dataclass),
# so an option no caller sets cannot come back unnoticed
PARAMETERS = {
    "ConditionReport": ["name", "passed", "detail"],
    "GreeksReport": ["spots", "delta", "gamma", "vega", "rho", "tau"],
    "GridSpec": ["x_minus", "x_plus", "x_star", "alpha", "n_space", "n_time", "horizon"],
    "HedgeNotionals": ["delta_shares", "own_bond_value", "cpty_bond_value"],
    "Instrument": ["kind", "strike", "custom_payoff"],
    "ModelParams": ["r", "q_S", "gamma_S", "sigma", "s_F", "lambda_B", "lambda_C", "R_B",
                    "R_C", "C_S", "C_B", "C_C", "dt"],
    "Problem": ["params", "variant", "grid", "instrument", "drift_discretization",
                "condition2_c"],
    "SpaceGrid": ["nodes", "h", "h_plus", "h_minus"],
    "Surface": ["values", "grid", "taus"],
    "Surface.value_near_spot": ["self", "spot"],
    "SweepResult": ["parameter", "values", "prices", "cvas", "spots", "variant", "errors"],
    "build_space_grid": ["spec"],
    "bump_greek": ["prob", "which", "eps"],
    "check_condition1": ["p"],
    "closed_form_call": ["S", "K", "r", "carry", "sigma", "tau"],
    "closed_form_call_delta": ["S", "K", "r", "carry", "sigma", "tau"],
    "compare_models": ["prob"],
    "cpty_cost_rate": ["p"],
    "cva_profile": ["prob"],
    "greeks_report": ["prob", "eps_sigma", "eps_r"],
    "hedge_notionals": ["surface", "p", "time_index"],
    "modified_variance": ["p"],
    "solve": ["prob"],
    "solve_stack": ["problems", "time_index"],
    "solver.plan": ["prob"],
    "solver.step": ["row", "m", "prob"],
    "stability_bound": ["grid", "p"],
    "sweep": ["base", "parameter", "values"],
    "turnover_factor": ["dt"],
    "validity_checks": ["p", "S_max", "c"],
}

BENCH = Path(__file__).resolve().parents[1] / "bench"


def fresh(script: str):
    """Run ``script`` in a new interpreter on this source tree; the JSON of
    its last stdout line. The test session has loaded the package already."""
    src = str(Path(xvapde.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_top_level_is_exactly_the_public_surface():
    assert sorted(xvapde.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(xvapde, name), name


def test_public_functions_take_exactly_the_pinned_parameters():
    objects = {name: getattr(xvapde, name) for name in xvapde.__all__}
    objects = {name: obj for name, obj in objects.items()
               if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)}
    objects["bump_greek"] = greeks.bump_greek
    objects["Surface.value_near_spot"] = xvapde.Surface.value_near_spot
    objects["solver.plan"] = solver.plan
    objects["solver.step"] = solver.step
    assert {name: [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj)
            else list(inspect.signature(obj).parameters)
            for name, obj in objects.items()} == PARAMETERS


def test_internals_live_in_their_submodules_only():
    for name, module in INTERNAL.items():
        obj = getattr(module, name)
        assert name in module.__all__
        assert obj.__module__ == module.__name__, name
        assert not hasattr(xvapde, name), name


def test_every_traced_function_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, names in tracer.TARGETS.items():
        module = importlib.import_module(f"xvapde.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"


def test_every_package_attribute_the_workloads_read_exists():
    """``xv.NAME`` reads, and the entry points named to ``_request``."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if ((isinstance(base, ast.Name) and base.id in ("xv", "xvapde"))
                    or (isinstance(base, ast.Attribute) and base.attr == "xv")):
                names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_request"):
            names.add(ast.literal_eval(node.args[3]))
    assert {"Problem", "solve", "cva_profile", "greeks_report", "sweep"} <= names
    for name in sorted(names):
        assert hasattr(xvapde, name), name


def test_import_loads_no_numpy_and_leaves_the_environment():
    loaded, same = fresh(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import xvapde\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),\n"
        "                  dict(os.environ) == before]))\n")
    assert loaded == []
    assert same


def test_importing_the_cli_leaves_the_environment():
    """The CLI's one-thread BLAS default is set only when it runs as a program."""
    assert fresh("import json, os\n"
                 "before = dict(os.environ)\n"
                 "import xvapde.cli\n"
                 "print(json.dumps(dict(os.environ) == before))\n")


def test_the_first_public_read_binds_every_public_name():
    before, listed, after, foreign = fresh(
        "import importlib, json, xvapde\n"
        "names = xvapde.__all__\n"
        "before = [n for n in names if n in vars(xvapde)]\n"
        "listed = [n for n in names if n not in dir(xvapde)]\n"
        "xvapde.solve\n"
        "after = [n for n in names if n not in vars(xvapde)]\n"
        "foreign = [n for n in names if getattr(importlib.import_module(\n"
        "    vars(xvapde)[n].__module__), n) is not vars(xvapde)[n]]\n"
        "print(json.dumps([before, listed, after, foreign]))\n")
    assert before == []
    assert listed == []
    assert after == []
    assert foreign == []


def test_library_warnings_name_the_callers_line():
    """Every entry point that plans emits its ModelAssumptionWarnings at the
    first frame outside the package: here, this file's calling line."""
    prob = desk_problem(C_C=0.1, grid=desk_grid(n_space=10, n_time=20))
    calls = {
        "solve": lambda: xvapde.solve(prob),
        "solve_stack": lambda: xvapde.solve_stack([prob, prob]),
        "greeks_report": lambda: xvapde.greeks_report(prob),
        "bump_greek": lambda: greeks.bump_greek(prob, "vega"),
        "cva_profile": lambda: xvapde.cva_profile(prob),
        "compare_models": lambda: xvapde.compare_models(prob),
        "sweep": lambda: xvapde.sweep(prob, "lambda_C", [0.01, 0.02]),
        "plan": lambda: solver.plan(prob),
        "step": lambda: solver.step(np.zeros(11), 0, prob),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught, name
        assert {(w.category, w.filename) for w in caught} == {
            (xvapde.ModelAssumptionWarning, __file__)}, name
