"""Self-tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402


@pytest.fixture(scope="module")
def eng():
    return wls.Engine()


def test_same_seed_same_inputs(eng, tmp_path):
    for cls in wls.WORKLOADS.values():
        first = [r.inputs for r in cls(eng, 3, tmp_path).cycle(0)]
        again = [r.inputs for r in cls(eng, 3, tmp_path).cycle(0)]
        other_seed = [r.inputs for r in cls(eng, 4, tmp_path).cycle(0)]
        next_cycle = [r.inputs for r in cls(eng, 3, tmp_path).cycle(1)]
        assert first == again
        assert first != other_seed
        assert first != next_cycle


def test_draws_keep_the_desk_substep_counts(eng):
    desk = wls.DeskBatch(eng, 5, Path("."))
    reqs = desk.cycle(0)
    assert [r.kind for r in reqs[:4]] == ["solve", "cva", "greeks", "sweep_sigma"]
    sigma = reqs[3].inputs
    assert [eng.nsub(dict(sigma["params"], sigma=v), "BKTC", 200) for v in sigma["values"]] == [
        eng.nsub(dict(wls.DESK, sigma=v), "BKTC", 200) for v in np.linspace(0.1, 0.3, 8)]
    c_s = next(r.inputs for r in reqs if r.kind == "sweep_C_S")
    assert len(wls.expected_errors(eng, c_s["params"], "C_S", c_s["values"])) == 2


def traced(requests_run):
    t = tr.Tracer()
    with t:
        for i, fn in enumerate(requests_run):
            t.current_request = i
            fn()
    return t, tr.layer_metrics(t, len(requests_run))


def test_exact_counts_on_the_desk_grid(eng):
    xv = eng.xv
    prob = eng.problem(wls.DESK)
    _, m = traced([lambda: xv.solve(prob)])
    assert m["grid.build_space_grid.calls_per_solve"] == 262
    assert m["solver.step.calls_per_solve"] == 261
    assert m["solver.substeps_per_level"] == 1
    assert m["solver.node_updates_per_solve"] == 261 * 1 * 199
    _, m = traced([lambda: xv.greeks_report(prob)])
    assert m["greeks.solves_per_report"] == 5
    _, m = traced([lambda: xv.cva_profile(prob)])
    assert m["analytics.solves_per_cva"] == 2
    values = [0.001, 0.002, 0.009]  # the last breaks condition 1
    _, m = traced([lambda: xv.sweep(prob, "C_S", values)])
    assert m["analytics.sweep.solves_per_member"] == 2
    assert m["analytics.sweep.expected_member_errors"] == 1


@pytest.mark.parametrize("n, nsub", [(200, 1), (800, 12), (1600, 45)])
def test_measured_substeps_match_the_computed_ones(eng, n, nsub):
    prob = eng.problem(wls.DESK, "BKTC", n)
    _, m = traced([lambda: eng.xv.solve(prob)])
    assert m["solver.substeps_per_level"] == nsub
    assert tr.kernel_counts(prob, eng.xv.build_space_grid, eng.xv.stability_bound) == (
        nsub, 261 * nsub * (n - 1))


def test_tracing_changes_no_output_and_uninstalls(eng):
    xv = eng.xv
    prob = eng.problem(wls.DESK)
    plain = xv.solve(prob).values
    solve_fn, grid_fn = xv.solve, xv.solver.build_space_grid
    t, _ = traced([lambda: xv.solve(prob)])
    assert xv.solve is solve_fn and xv.solver.build_space_grid is grid_fn
    assert len(t) > 0
    assert np.array_equal(plain, xv.solve(prob).values)


def test_a_vanished_function_reads_as_absent(eng, monkeypatch):
    monkeypatch.setitem(tr.TARGETS, "solver", ("solve", "nonlinear_source", "gone_in_a_refactor"))
    prob = eng.problem(wls.DESK)
    _, m = traced([lambda: eng.xv.solve(prob)])
    assert m["solver.step.calls_per_solve"] is None
    assert m["solver.step.self_s"] is None
    assert m["grid.build_space_grid.calls_per_solve"] == 262


def test_a_corrupted_output_is_a_failed_request(eng):
    desk = wls.DeskBatch(eng, 0, Path("."))
    req = desk.cycle(0)[0]
    good = req.run()
    digest, problems = req.check(good)
    assert problems == []

    r = run.Run(desk, 0.0, False, {req.key: digest}, run.HostSpeed(run.march_cpu_s, 1.0))
    assert r.execute(req, traced=False) is not None
    assert r.failed == 0

    def corrupted():
        surf = req.run()
        surf.values[-1, 100] = -1.0
        return surf
    bad = wls.Request(req.kind, req.key, req.inputs, corrupted, req.check)
    assert r.execute(bad, traced=False) is None
    assert r.failed == 1 and "negative price" in r.problems[0]

    def shifted():
        surf = req.run()
        surf.values[-1, 100] += 1e-12  # invariants hold; only the digest sees it
        return surf
    off = wls.Request(req.kind, req.key, req.inputs, shifted, req.check)
    assert r.execute(off, traced=False) is None
    assert r.failed == 2 and "digest" in r.problems[1]


def test_a_corrupted_cli_file_is_reported(eng, tmp_path):
    cli = wls.CliCold(eng, 0, tmp_path)
    req = next(r for r in cli.cycle(0) if r.kind == "cva")
    out = req.run()
    _, problems = req.check(out)
    assert problems == []
    rows = out.files["cva.csv"].decode().splitlines()
    i = 1 + int(np.argmin([abs(math.log(float(r.split(",")[0]) / 8.0)) for r in rows[1:]]))
    fields = rows[i].split(",")
    fields[3] = "0.5"  # a positive CVA at the money
    rows[i] = ",".join(fields)
    out.files["cva.csv"] = ("\n".join(rows) + "\n").encode()
    _, problems = req.check(out)
    assert any("ATM CVA" in p for p in problems)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(x) for x in range(100)])
    assert t["p"] == 90 and sum(x > t["value"] for x in range(100)) >= 10
