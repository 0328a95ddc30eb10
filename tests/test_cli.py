"""Config resolution and the five subcommands, end to end in-process."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from xvapde import ConfigError, build_space_grid, cli, cva_profile
from xvapde.greeks import DEFAULT_EPS

# small scenario so every command variant stays fast
FAST_GRID = {"n_space": 60, "n_time": 30}


def run(tmp_path, command, cfg=None, name="run", argv_extra=()):
    """Invoke the CLI main() with a config dict written to disk."""
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    if cfg is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += list(argv_extra)
    return cli.main(argv), out


# --- Config resolution ---

def test_defaults_fill_the_desk_scenario():
    resolved = cli.resolve_config({})
    assert resolved["variant"] == "BKTC"
    assert resolved["params"]["sigma"] == 0.1
    assert resolved["instrument"] == {"kind": "call", "strike": 8.0,
                                      "custom_payoff": None}
    assert resolved["grid"]["x_star"] == pytest.approx(math.log(8.0))
    assert resolved["grid"]["alpha"] == pytest.approx(
        (math.log(32.0) - math.log(2.0)) / 10.0)


def test_greeks_defaults_are_the_bump_table(tmp_path):
    assert cli.resolve_config({})["greeks"] == {"eps_sigma": DEFAULT_EPS["vega"],
                                                "eps_r": DEFAULT_EPS["rho"]}
    _, out = run(tmp_path, "validate", {"grid": FAST_GRID})
    text = (out / "resolved_config.json").read_text()
    assert '"eps_r": 0.0001,' in text and '"eps_sigma": 0.001\n' in text


def test_resolution_is_idempotent():
    once = cli.resolve_config({"params": {"sigma": 0.2},
                               "instrument": {"strike": 10.0}})
    assert cli.resolve_config(once) == once
    assert once["grid"]["x_star"] == pytest.approx(math.log(10.0))


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(ConfigError, match="unknown key volatility"):
        cli.resolve_config({"volatility": 0.2})
    with pytest.raises(ConfigError, match=r"unknown key params\.vol"):
        cli.resolve_config({"params": {"vol": 0.2}})
    with pytest.raises(ConfigError, match=r"unknown key grid\.n"):
        cli.resolve_config({"grid": {"n": 10}})


def test_bad_enums_are_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="variant"):
        cli.resolve_config({"variant": "BK_TC"})
    with pytest.raises(ConfigError, match="drift"):
        cli.resolve_config({"drift_discretization": "central"})
    # boundary_mode has one value; the removed wall recipes exit 2 like any other
    for mode in ("linear", "discounted_strike", "asymptotic"):
        with pytest.raises(ConfigError, match="boundary_mode"):
            cli.resolve_config({"boundary_mode": mode})
        code, _ = run(tmp_path, "price", {"grid": FAST_GRID, "boundary_mode": mode}, name=mode)
        assert code == 2
        assert "error: boundary_mode" in capsys.readouterr().err


def test_the_readme_config_example_resolves():
    """The JSON config block of README.md is a config the CLI accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    resolved = cli.resolve_config(json.loads(blocks[0]))
    assert cli.build_problem(resolved).instrument.strike == 8.0


def test_sweep_section_is_validated():
    with pytest.raises(ConfigError, match=r"sweep\.parameter"):
        cli.resolve_config({"sweep": {"values": [1.0]}})
    with pytest.raises(ConfigError, match=r"sweep\.values"):
        cli.resolve_config({"sweep": {"parameter": "lambda_C", "values": []}})
    with pytest.raises(ConfigError, match="unknown key sweep.step"):
        cli.resolve_config({"sweep": {"parameter": "lambda_C", "values": [1.0],
                                      "step": 2}})


def test_non_object_config_is_rejected():
    with pytest.raises(ConfigError, match="JSON object"):
        cli.resolve_config([1, 2, 3])


def test_build_problem_round_trips_the_scenario():
    resolved = cli.resolve_config({"variant": "BK", "grid": FAST_GRID})
    prob = cli.build_problem(resolved)
    assert prob.variant.value == "BK"
    assert prob.grid.n_space == 60
    assert prob.params.lambda_B == 0.05


# --- Exit codes and error reporting ---

def test_unknown_config_key_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "price", {"params": {"vol": 1}})
    assert code == 2
    assert "error: unknown key params.vol" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["price", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
    # so does an output directory that cannot be made
    (tmp_path / "taken").write_text("")
    assert cli.main(["price", "--out", str(tmp_path / "taken")]) == 2
    assert "error: cannot write to --out" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["price", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_ill_posed_scenario_exits_1_with_the_guard_name(tmp_path, capsys):
    cfg = {"params": {"sigma": 0.02}, "grid": FAST_GRID}
    code, _ = run(tmp_path, "price", cfg)
    assert code == 1
    assert "WellPosednessViolation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "price"])
def test_an_upper_wall_whose_spot_overflows_exits_2(tmp_path, capsys, command):
    code, _ = run(tmp_path, command, {"grid": {**FAST_GRID, "x_plus": 710}})
    assert code == 2
    err = capsys.readouterr().err
    assert "error: grid: x_plus must have a finite exp, got 710.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "price", "cva"])
@pytest.mark.parametrize("params, message", [
    ({"sigma": 1e200}, "sigma must have a positive finite square, got 1e+200"),
    ({"dt": 1e-310, "C_S": 0.0}, "dt must have a finite turnover factor sqrt(2/(pi*dt)), "
                                 "got 1e-310"),
], ids=["sigma", "dt"])
def test_a_sigma_or_dt_the_variance_cannot_hold_exits_2(tmp_path, capsys, command, params,
                                                       message):
    code, _ = run(tmp_path, command, {"params": params, "grid": FAST_GRID})
    assert code == 2
    assert capsys.readouterr().err == f"error: params: {message}\n"


@pytest.mark.parametrize("section, values", [
    ("params", {"r": 1e300}),
    ("params", {"sigma": 1e9}),
    ("params", {"sigma": 1e154}),  # the diffusion overflows to inf: a bound of 0
    ("grid", {"horizon": 1e300}),
], ids=["r", "sigma-1e9", "sigma-1e154", "horizon"])
def test_a_step_no_sub_step_count_fits_exits_1(tmp_path, section, values):
    """A stability bound of 0, or a dtau / bound of 2**63 or more, which the
    march's int64 sub-step count cannot hold, ends ``xvapde price`` with one
    ``error: InvalidSpec`` line after its warning lines, and no traceback."""
    cfg = {"grid": dict(FAST_GRID)}
    cfg.setdefault(section, {}).update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "xvapde", "price", "--config", str(path),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert all(line.startswith("warning: ") for line in lines[:-1])
    assert re.fullmatch(r"error: InvalidSpec: dtau = \S+ over the stability bound \S+ needs "
                        r"2\*\*63 or more sub-steps, more than the march can count", lines[-1])
    assert not (tmp_path / "out" / "surface.csv").exists()


def test_a_diffusion_that_overflows_warns_of_condition_2_only(tmp_path):
    """sigma = 1e154 overflows the planner's diffusion, a stability bound of
    0, with no numpy overflow warning: ``xvapde price`` prints the
    condition-2 warning and the InvalidSpec error, and nothing else."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"sigma": 1e154}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "xvapde", "price", "--config", str(path),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    warning, error = done.stderr.splitlines()
    assert warning.startswith("warning: condition2 failed: ")
    assert error.startswith("error: InvalidSpec: dtau = ")


def test_sweep_command_requires_a_sweep_section(tmp_path, capsys):
    code, _ = run(tmp_path, "sweep", {"grid": FAST_GRID})
    assert code == 2
    assert "sweep" in capsys.readouterr().err


# --- Commands ---

def test_price_writes_surface_and_resolved_config(tmp_path, capsys):
    code, out = run(tmp_path, "price", {"grid": FAST_GRID})
    assert code == 0
    assert "price at S = " in capsys.readouterr().out
    data = json.loads((out / "resolved_config.json").read_text())
    assert cli.resolve_config(data) == data
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header.startswith("x,")


def test_a_run_reruns_from_its_own_resolved_config(tmp_path, capsys):
    """``price --config <out>/resolved_config.json`` writes the same bytes and
    prints the same line as the run that wrote that file."""
    cfg = {"grid": FAST_GRID, "params": {"sigma": 0.15}, "instrument": {"strike": 9.0}}
    code, first = run(tmp_path, "price", cfg, name="first")
    printed = capsys.readouterr().out
    assert code == 0
    again = tmp_path / "again"
    assert cli.main(["price", "--config", str(first / "resolved_config.json"),
                     "--out", str(again)]) == 0
    assert capsys.readouterr().out == printed
    for name in ("surface.csv", "resolved_config.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_price_accepts_a_custom_payoff(tmp_path, capsys):
    # straddle samples on the 13 nodes of a 12-interval grid
    import xvapde
    grid = cli.build_problem(cli.resolve_config(
        {"grid": {"n_space": 12, "n_time": 10}})).grid
    spots = xvapde.build_space_grid(grid).spots
    cfg = {"grid": {"n_space": 12, "n_time": 10},
           "instrument": {"kind": "custom", "strike": 8.0,
                          "custom_payoff": list(np.abs(spots - 8.0))}}
    code, out = run(tmp_path, "price", cfg)
    assert code == 0
    assert (out / "surface.csv").exists()


def test_validate_passes_the_desk_scenario(tmp_path, capsys):
    code, _ = run(tmp_path, "validate", {"grid": FAST_GRID})
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_validate_fails_below_the_cost_floor(tmp_path, capsys):
    code, _ = run(tmp_path, "validate",
                  {"params": {"sigma": 0.02}, "grid": FAST_GRID})
    assert code == 1
    assert "condition1: FAIL" in capsys.readouterr().out


def test_validate_prints_a_near_tie_at_full_precision(tmp_path, capsys):
    """Both sides of this condition 4 are 0.020000000000000004 and the check
    is strict; at 6 digits the failure would read like a tie of 0.02."""
    code, _ = run(tmp_path, "validate", {"variant": "BK", "instrument": {"kind": "put"},
                                         "params": {"lambda_C": 0.05}})
    assert code == 1
    out = capsys.readouterr().out
    assert ("condition4: FAIL (q_S - gamma_S = 0.020000000000000004 vs "
            "M = 0.020000000000000004 at S_max = 32)") in out
    assert "condition2: PASS (c * bracket = 1 * 0.09 = 0.09 vs 1)" in out


def test_greeks_writes_the_report(tmp_path, capsys):
    code, out = run(tmp_path, "greeks", {"grid": FAST_GRID})
    assert code == 0
    assert "delta = " in capsys.readouterr().out
    lines = (out / "greeks.csv").read_text().splitlines()
    assert lines[0] == "S,delta,gamma,vega,rho"
    assert len(lines) == 1 + 61


def test_greeks_on_a_three_node_grid_exits_1_naming_the_need(tmp_path):
    """n_space = 2 prices, but the greeks' wall stencils need four nodes: the
    command fails with a named InvalidSpec, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_space": 2, "n_time": 4}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "xvapde.cli", "greeks", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert done.stderr == ("error: InvalidSpec: delta and gamma need at least 4 grid nodes "
                           "(n_space >= 3), got 3\n")
    assert not (tmp_path / "out" / "greeks.csv").exists()


def test_warning_lines_do_not_depend_on_where_the_package_lives(tmp_path):
    """A warning config run from two copies of the package prints the same
    stderr bytes: one ``warning: <message>`` line per warning, with no path,
    line number or quoted source line."""
    src = Path(cli.__file__).resolve().parent
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"C_C": 0.1}, "grid": {"n_space": 20, "n_time": 30}}))
    runs = []
    for copy in ("a", "b/deeper"):
        where = tmp_path / copy / "src"
        shutil.copytree(src, where / "xvapde", ignore=shutil.ignore_patterns("__pycache__"))
        runs.append(subprocess.run(
            [sys.executable, "-m", "xvapde.cli", "greeks", "--config", str(cfg),
             "--out", str(tmp_path / copy / "out")],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(where)}))
    assert [done.returncode for done in runs] == [0, 0]
    assert runs[0].stderr == runs[1].stderr
    lines = runs[0].stderr.decode().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: non-monotone explicit step: ") for line in lines)


def test_a_command_restores_the_warning_handler(tmp_path, capsys):
    shown = warnings.showwarning
    code, _ = run(tmp_path, "validate", {"grid": FAST_GRID})
    assert code == 0
    assert warnings.showwarning is shown


# the CLI run as a program in a fresh interpreter, started by one of STARTS;
# prints the exit code, the OpenBLAS thread count the process ended with and its threads
AS_PROGRAM = (
    "import json, os, runpy, sys\n"
    "sys.argv = ['xvapde', *sys.argv[1:]]\n"
    "try:\n"
    "    {start}\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
    "                  len(os.listdir('/proc/self/task'))]))\n")
STARTS = {
    "python -m xvapde.cli": "runpy.run_module('xvapde.cli', run_name='__main__')",
    # what the installed ``xvapde`` command's script runs
    "xvapde": "from xvapde.__main__ import main; main()",
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")])
def test_the_program_defaults_to_one_blas_thread(tmp_path, start, caller, expected):
    """Run as a program, the CLI sets OPENBLAS_NUM_THREADS=1 before numpy
    loads, so the process holds no BLAS worker threads; a count the caller
    set is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run([sys.executable, "-c", AS_PROGRAM.format(start=STARTS[start]),
                           "validate", "--out", str(tmp_path / "v")],
                          capture_output=True, text=True, env=env, check=True)
    code, threads, tasks = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert threads == expected
    if caller is None:
        assert tasks == 1


def test_cva_writes_the_profile(tmp_path, capsys):
    code, out = run(tmp_path, "cva", {"grid": FAST_GRID})
    assert code == 0
    assert "cva at S = " in capsys.readouterr().out
    lines = (out / "cva.csv").read_text().splitlines()
    assert lines[0] == "S,price,risk_free_price,cva"
    assert len(lines) == 1 + 61
    # the adjustment column is a cost at every node
    assert all(float(line.split(",")[3]) <= 1e-15 for line in lines[1:])
    # and it is the library's profile, bit for bit
    cva = np.loadtxt(out / "cva.csv", delimiter=",", skiprows=1)[:, 3]
    prob = cli.build_problem(cli.resolve_config({"grid": FAST_GRID}))
    np.testing.assert_array_equal(cva, cva_profile(prob))


def test_every_command_reports_the_node_nearest_the_strike_in_log_price(tmp_path, capsys):
    # on this grid the nodes nearest K in price and in log-price differ
    grid = {"x_minus": 0.0, "x_plus": 3.6888794541139363, "n_space": 257, "n_time": 20}
    prob = cli.build_problem(cli.resolve_config({"grid": grid}))
    space = build_space_grid(prob.grid)
    spot = f"{space.spots[space.nearest_index(math.log(8.0))]:.6g}"
    assert spot != f"{space.spots[abs(space.spots - 8.0).argmin()]:.6g}"
    for command in ("price", "greeks", "cva"):
        code, _ = run(tmp_path, command, {"grid": grid}, name=command)
        assert code == 0
        assert re.search(r"at S = (\S+?)[ :]", capsys.readouterr().out).group(1) == spot


SWEEP_CFG = {"grid": FAST_GRID,
             "sweep": {"parameter": "lambda_C", "values": [0.005, 0.01, 0.02]}}


def test_sweep_writes_csv_and_reports_members(tmp_path, capsys):
    code, out = run(tmp_path, "sweep", SWEEP_CFG)
    assert code == 0
    assert capsys.readouterr().out.count(": ok") == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,S,price,cva"
    assert len(lines) == 1 + 3 * 61


def test_sweep_member_failures_exit_1(tmp_path, capsys):
    cfg = {"grid": FAST_GRID,
           "sweep": {"parameter": "C_S", "values": [0.002, 0.01]}}
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 1
    assert "FAILED" in capsys.readouterr().out
    # the surviving member still lands in the file
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 61


def test_sweep_reruns_are_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "sweep", SWEEP_CFG, name="first")
    _, out2 = run(tmp_path, "sweep", SWEEP_CFG, name="second")
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "resolved_config.json").read_bytes() == \
        (out2 / "resolved_config.json").read_bytes()


def test_sweep_bytes_do_not_depend_on_run_order(tmp_path):
    """A sweep's bytes are the same whether it runs first, after another
    sweep, or after the other commands in the same process."""
    other = {"grid": FAST_GRID,
             "sweep": {"parameter": "sigma", "values": [0.1, 0.2, 0.3]}}
    _, first = run(tmp_path, "sweep", SWEEP_CFG, name="first")
    run(tmp_path, "sweep", other, name="other")
    for command in ("price", "greeks", "cva"):
        run(tmp_path, command, {"grid": FAST_GRID}, name=command)
    _, last = run(tmp_path, "sweep", SWEEP_CFG, name="last")
    assert (first / "sweep.csv").read_bytes() == (last / "sweep.csv").read_bytes()


@pytest.mark.parametrize("values, path", [
    (["zero"], r"sweep\.values\[0\]"),
    ([0.01, True], r"sweep\.values\[1\]"),
    ([0.02, 0.01], "strictly increasing"),
], ids=["string", "boolean", "decreasing"])
def test_bad_sweep_values_exit_2(tmp_path, capsys, values, path):
    cfg = {"grid": FAST_GRID, "sweep": {"parameter": "lambda_C", "values": values}}
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2
    assert re.search(path, capsys.readouterr().err)


@pytest.mark.parametrize("section, key, value, message", [
    ("grid", "n_space", 60.7, "must be an integer"),
    ("grid", "n_time", True, "must be a number"),
    ("grid", "horizon", False, "must be a number"),
    ("params", "sigma", True, "must be a number"),
    ("params", "lambda_C", "high", "must be a number"),
    ("params", "sigma", "0.1", "must be a number, got '0.1'"),
    ("grid", "n_space", "20", "must be a number, got '20'"),
    ("params", "r", 10**400, f"must be a finite number, got {10**400}"),
    ("grid", "n_space", 10**400, f"must be a finite number, got {10**400}"),
    ("params", "q_S", math.inf, "must be a finite number"),
    ("grid", "horizon", math.inf, "must be a finite number"),
    ("params", "r", math.nan, "must be a finite number"),
    ("grid", "n_space", -math.inf, "must be a finite number"),
    # the strike and the walls are read before x_star and alpha derive from them
    ("instrument", "strike", "high", "must be a number"),
    ("instrument", "strike", True, "must be a number"),
    ("instrument", "strike", -1, "must be positive"),
    ("instrument", "strike", 0, "must be positive"),
    ("grid", "x_plus", "a", "must be a number"),
    ("grid", "x_minus", None, "must be a number"),
    ("greeks", "eps_sigma", -0.001, "must be positive"),
    ("greeks", "eps_r", 0, "must be positive"),
], ids=["fractional-count", "boolean-count", "boolean-float", "boolean-param", "string-param",
        "numeric-string-param", "numeric-string-count", "huge-int-param", "huge-int-count",
        "infinite-param", "infinite-float", "nan-param", "infinite-count", "string-strike",
        "boolean-strike", "negative-strike", "zero-strike", "string-wall", "null-wall",
        "negative-eps", "zero-eps"])
def test_non_integral_and_boolean_numbers_exit_2(tmp_path, capsys, section, key, value,
                                                 message):
    cfg = {"grid": dict(FAST_GRID)}
    cfg.setdefault(section, {})[key] = value
    code, _ = run(tmp_path, "greeks" if section == "greeks" else "price", cfg)
    assert code == 2
    err = capsys.readouterr().err  # one error line, no traceback
    assert err.startswith(f"error: {section}.{key} {message}") and err.count("\n") == 1


def test_integral_floats_are_counts():
    resolved = cli.resolve_config({"grid": {"n_space": 60.0, "n_time": 30}})
    assert cli.build_problem(resolved).grid.n_space == 60


def test_commands_run_without_loading_scipy(tmp_path):
    # a fresh interpreter: the test session has imported scipy already
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps({"grid": FAST_GRID}))
    script = (
        "import json, sys\n"
        "from xvapde import cli\n"
        f"codes = [cli.main(['price', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'p')!r}]),\n"
        f"         cli.main(['validate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'v')!r}])]\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([codes, scipy]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    codes, scipy = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert (tmp_path / "p" / "surface.csv").exists()
    assert scipy == []
