"""Command line front end: validate, price, greeks, cva, sweep.

A run takes one JSON config and an output directory. Unknown config keys
are rejected, missing keys are filled from the documented defaults (the
desk-scale call scenario), and the fully resolved config is written beside
the outputs as resolved_config.json so any run can be reproduced exactly.
Outputs are deterministic byte for byte.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # The CLI program runs numpy's OpenBLAS on one thread unless its caller
    # set a count: the engine's only BLAS calls are 4x4 solves, and idle
    # pool workers spin at start-up. This must run before numpy loads, and
    # only here: importing the module leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .analytics import cva_rows, sweep
from .csvio import write_rows
from .errors import ConfigError, EngineError, InvalidSpec
from .greeks import DEFAULT_EPS, greeks_report
from .grid import GridSpec, build_space_grid
from .instrument import Instrument
from .model import ModelParams, ModelVariant, _finite
from .solver import DRIFT_MODES, Problem, solve

__all__ = ["resolve_config", "build_problem", "main"]

PARAM_DEFAULTS = {
    "r": 0.05, "q_S": 0.05, "gamma_S": 0.03, "sigma": 0.1, "s_F": 0.0,
    "lambda_B": 0.05, "lambda_C": 0.01, "R_B": 0.4, "R_C": 0.4,
    "C_S": 0.002, "C_B": 0.001, "C_C": 0.001, "dt": 1.0 / 261.0,
}
GRID_DEFAULTS = {
    "x_minus": math.log(2.0), "x_plus": math.log(32.0),
    "x_star": None,   # resolved to log(strike)
    "alpha": None,    # resolved to (x_plus - x_minus) / 10
    "n_space": 200, "n_time": 261, "horizon": 1.0,
}
INSTRUMENT_DEFAULTS = {"kind": "call", "strike": 8.0, "custom_payoff": None}
GREEKS_DEFAULTS = {"eps_sigma": DEFAULT_EPS["vega"], "eps_r": DEFAULT_EPS["rho"]}
TOP_DEFAULTS = {
    "variant": "BKTC",
    # one legal value: the key stays so every resolved_config.json written re-runs
    "boundary_mode": "model_consistent",
    "drift_discretization": "forward",
    "condition2_c": 1.0,
    "sweep": None,
}
VARIANT_TAGS = tuple(v.value for v in ModelVariant)


def _merge(section: str, given, defaults: dict) -> dict:
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be an object")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown key {section}.{key}" if section else f"unknown key {key}")
    out = dict(defaults)
    out.update(given)
    return out


def _number(path: str, value) -> float:
    """A config number as a float: a JSON number only. Strings, booleans,
    NaN, +-Infinity (which JSON input may hold) and integers too large for
    a float name their path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if not _finite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _positive(path: str, value) -> float:
    x = _number(path, value)
    if not x > 0.0:
        raise ConfigError(f"{path} must be positive, got {value!r}")
    return x


def _integer(path: str, value) -> int:
    """A config count; a number with a fractional part is rejected, not truncated."""
    x = _number(path, value)
    if not x.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(x)


def resolve_config(cfg: dict) -> dict:
    """Fill defaults and reject unknown keys; returns plain JSON-ready data.

    Resolving is idempotent: resolve_config(resolve_config(cfg)) round-trips.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    top = _merge("", cfg, {"params": None, "grid": None, "instrument": None,
                           "greeks": None, **TOP_DEFAULTS})
    params = _merge("params", top["params"], PARAM_DEFAULTS)
    grid = _merge("grid", top["grid"], GRID_DEFAULTS)
    instrument = _merge("instrument", top["instrument"], INSTRUMENT_DEFAULTS)
    greeks = _merge("greeks", top["greeks"], GREEKS_DEFAULTS)
    if grid["x_star"] is None:
        grid["x_star"] = math.log(_positive("instrument.strike", instrument["strike"]))
    if grid["alpha"] is None:
        grid["alpha"] = (_number("grid.x_plus", grid["x_plus"])
                         - _number("grid.x_minus", grid["x_minus"])) / 10.0
    if top["variant"] not in VARIANT_TAGS:
        raise ConfigError(f"variant must be one of {VARIANT_TAGS}, got {top['variant']!r}")
    if top["boundary_mode"] != "model_consistent":
        raise ConfigError("boundary_mode must be 'model_consistent', the only wall recipe, "
                          f"got {top['boundary_mode']!r}")
    if top["drift_discretization"] not in DRIFT_MODES:
        raise ConfigError(f"drift_discretization must be one of {DRIFT_MODES}")
    swp = top["sweep"]
    if swp is not None:
        swp = _merge("sweep", swp, {"parameter": None, "values": None})
        if not isinstance(swp.get("parameter"), str):
            raise ConfigError("sweep.parameter must be a model parameter name")
        if not isinstance(swp.get("values"), list) or not swp["values"]:
            raise ConfigError("sweep.values must be a nonempty list of numbers")
        swp["values"] = [_number(f"sweep.values[{k}]", v)
                         for k, v in enumerate(swp["values"])]
    return {
        "params": params, "grid": grid, "instrument": instrument, "greeks": greeks,
        "variant": top["variant"], "boundary_mode": top["boundary_mode"],
        "drift_discretization": top["drift_discretization"],
        "condition2_c": _number("condition2_c", top["condition2_c"]), "sweep": swp,
    }


def build_problem(resolved: dict) -> Problem:
    values = {k: _number(f"params.{k}", v) for k, v in resolved["params"].items()}
    try:
        params = ModelParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    g = resolved["grid"]
    spec = {k: (_integer if k in ("n_space", "n_time") else _number)(f"grid.{k}", g[k])
            for k in GRID_DEFAULTS}
    try:
        grid = GridSpec(**spec)
    except InvalidSpec as exc:
        raise ConfigError(f"grid: {exc}") from exc
    ins = resolved["instrument"]
    strike = _number("instrument.strike", ins["strike"])
    custom = ins["custom_payoff"]
    if custom is not None:
        if not isinstance(custom, list):
            raise ConfigError("instrument.custom_payoff must be a list of numbers")
        custom = [_number(f"instrument.custom_payoff[{k}]", v) for k, v in enumerate(custom)]
    try:
        inst = Instrument(kind=str(ins["kind"]), strike=strike, custom_payoff=custom)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instrument: {exc}") from exc
    return Problem(params=params, variant=ModelVariant(resolved["variant"]),
                   grid=grid, instrument=inst,
                   drift_discretization=resolved["drift_discretization"],
                   condition2_c=resolved["condition2_c"])


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _write_resolved(resolved: dict, out_dir: Path) -> None:
    text = json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved_config.json").write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out_dir}: {exc}") from exc


def _cmd_validate(resolved: dict, out_dir: Path) -> int:
    ok = True
    for rep in build_problem(resolved).validity_checks():
        ok &= rep.passed
        print(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} ({rep.detail})")
    return 0 if ok else 1


def _cmd_price(resolved: dict, out_dir: Path) -> int:
    prob = build_problem(resolved)
    surface = solve(prob)
    surface.to_csv(out_dir / "surface.csv")
    spot, value = surface.value_near_spot(prob.instrument.strike)
    print(f"price at S = {spot:.6g} (node nearest the strike): {value:.10g}")
    return 0


def _cmd_greeks(resolved: dict, out_dir: Path) -> int:
    prob = build_problem(resolved)
    rep = greeks_report(prob, **{k: _positive(f"greeks.{k}", v)
                                 for k, v in resolved["greeks"].items()})
    rep.to_csv(out_dir / "greeks.csv")
    i = build_space_grid(prob.grid).nearest_index(math.log(prob.instrument.strike))
    print(f"at S = {rep.spots[i]:.6g}: delta = {rep.delta[i]:.6g}, "
          f"gamma = {rep.gamma[i]:.6g}, vega = {rep.vega[i]:.6g}, rho = {rep.rho[i]:.6g}")
    return 0


def _cmd_cva(resolved: dict, out_dir: Path) -> int:
    prob = build_problem(resolved)
    full, base, cva = cva_rows(prob)
    grid = build_space_grid(prob.grid)
    write_rows(out_dir / "cva.csv", ("S", "price", "risk_free_price", "cva"),
               [((), np.column_stack([grid.spots, full, base, cva]))])
    i = grid.nearest_index(math.log(prob.instrument.strike))
    print(f"cva at S = {grid.spots[i]:.6g}: {cva[i]:.10g}")
    return 0


def _cmd_sweep(resolved: dict, out_dir: Path) -> int:
    if resolved["sweep"] is None:
        raise ConfigError("the sweep command needs a 'sweep' section "
                          "({parameter, values}) in the config")
    prob = build_problem(resolved)
    try:
        result = sweep(prob, resolved["sweep"]["parameter"],
                       resolved["sweep"]["values"])
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    result.to_csv(out_dir / "sweep.csv")
    for v in result.values:
        if v in result.errors:
            print(f"{result.parameter} = {v:.6g}: FAILED ({result.errors[v]})")
        else:
            print(f"{result.parameter} = {v:.6g}: ok")
    return 0 if not result.errors else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "price": _cmd_price,
    "greeks": _cmd_greeks,
    "cva": _cmd_cva,
    "sweep": _cmd_sweep,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one ``warning: <message>`` line on stderr, with no path,
    line number or source line, so the bytes do not depend on where the
    package lives or on the line that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xvapde",
        description="PDE pricing under bilateral counterparty risk, funding, "
                    "and transaction costs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", default=None, help="JSON scenario (defaults used if omitted)")
        s.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    shown = warnings.showwarning
    warnings.showwarning = _show_warning
    try:
        resolved = resolve_config(_load_config(args.config))
        out_dir = Path(args.out)
        _write_resolved(resolved, out_dir)
        return _COMMANDS[args.command](resolved, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
