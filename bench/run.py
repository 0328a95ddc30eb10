"""Layered benchmark of the xvapde pricing engine.

    python3 bench/run.py --workload desk_batch --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each

One client, one thread, closed loop: the next request starts when the last
one has finished and its outputs have been checked. CLI children run one at
a time. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs
each request untraced and then traced and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference" / "digests.json"
SETUP_PROBES = 3
MARCH_NOMINAL_S = 0.0037   # CPU time of march_cpu_s() at the nominal host speed
IMPORT_NOMINAL_S = 0.18    # CPU time of import_cpu_s() at the nominal host speed

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "requests_per_cpu_s": "1/s",
    "request_cpu_geomean_ms": "ms", "atm_abs_err": "price",
}
PER_LAYER = {
    "import.xvapde_s": "s", "import.modules_loaded": "count", "import.scipy_stats_loaded": "count",
    "cli.resolve_config_s": "s", "cli.build_problem_s": "s", "cli.main_s": "s",
    "csvio.fmt.calls": "count", "csvio.write_rows.self_s": "s", "csvio.bytes_written": "bytes",
    "csvio.export_MB_per_s": "MB/s",
    "grid.build_space_grid.calls_per_solve": "count", "grid.build_space_grid.self_s": "s",
    "grid.stability_bound.calls_per_solve": "count", "grid.stability_bound.self_s": "s",
    "model.modified_variance.calls_per_solve": "count",
    "instrument.boundary_values.calls_per_solve": "count",
    "instrument.boundary_values.self_s": "s",
    "solver.step.calls_per_solve": "count", "solver.step.self_s": "s",
    "solver.step_coefficients.calls_per_solve": "count", "solver.step_coefficients.self_s": "s",
    "solver.nonlinear_source.calls_per_solve": "count", "solver.nonlinear_source.self_s": "s",
    "solver.solve.self_s": "s", "solver.substeps_per_level": "count",
    "solver.substeps_per_level.n200": "count", "solver.substeps_per_level.n800": "count",
    "solver.substeps_per_level.n1600": "count", "solver.node_updates_per_solve": "count",
    "solver.node_updates_per_s": "1/s", "solver.bytes_moved_per_solve": "bytes",
    "greeks.solves_per_report": "count", "greeks.delta_gamma.self_s": "s",
    "analytics.solves_per_cva": "count", "analytics.sweep.solves_per_member": "count",
    "analytics.sweep.expected_member_errors": "count", "analytics.closed_form_call.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
WORKLOAD_NAMES = ("cli_cold", "desk_batch", "fine_grid")


def environment() -> dict:
    """What the numbers were measured on, recorded before the run starts."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "loadavg": list(os.getloadavg())}


def tail(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return {"p": p, "value": sorted(samples)[max(0, math.ceil(p / 100.0 * n) - 1)]}


def summary(samples: list[float], scale: float) -> dict:
    t = tail(samples)
    return {"median": statistics.median(samples) * scale, "n": len(samples),
            "tail": None if t is None else {"p": t["p"], "value": t["value"] * scale}}


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path):
    """Import, input generation and warm-up: everything before the first timed request."""
    t0 = time.perf_counter()
    before = set(sys.modules)
    import xvapde.cli  # noqa: F401
    imported = {"import_s": time.perf_counter() - t0,
                "modules_loaded": len(set(sys.modules) - before),
                "scipy_stats_loaded": int("scipy.stats" in sys.modules)}
    import workloads as wls
    eng = wls.Engine()
    wl = wls.WORKLOADS[workload](eng, seed, work)
    first = wl.cycle(0)
    if workload != "cli_cold":
        eng.xv.solve(eng.problem(wls.DESK))
    return eng, wl, first, imported


def march_cpu_s() -> float:
    """Median CPU seconds of three runs of a fixed numeric task outside the engine.

    The task is a small explicit diffusion march in numpy plus some
    interpreter work: the same kind of work as a solve.
    """
    import numpy as np
    u0 = np.maximum(np.linspace(-1.0, 1.0, 401), 0.0)
    times = []
    for _ in range(3):
        c0 = time.process_time()
        u = u0
        for _ in range(150):
            nxt = np.empty_like(u)
            pos = np.maximum(u, 0.0)
            nxt[1:-1] = (0.25 * u[:-2] + 0.5 * u[1:-1] + 0.25 * u[2:]
                         - 1e-3 * np.abs(pos[2:] - pos[1:-1]))
            nxt[0], nxt[-1] = u[0], u[-1]
            u = nxt
        words = {str(i): i for i in range(5000)}
        sum(len(k) * v for k, v in words.items())
        times.append(time.process_time() - c0)
    return statistics.median(times)


def import_cpu_s(work: Path) -> float:
    """CPU seconds of a fresh interpreter that imports numpy: the same kind
    of work as starting the CLI, outside the engine."""
    from workloads import spawn
    return spawn([sys.executable, "-c", "import numpy"], work / "gauge.stdout").cpu_s


class HostSpeed:
    """Rescales CPU times to a nominal host speed.

    On a shared VM the CPU time of a fixed piece of work drifts by up to 40%
    within minutes. Before each timed request the gauge (a fixed task that no
    change to the engine can move) runs, and the request's CPU time is
    multiplied by ``nominal`` over the median of the last five gauge times.
    Library calls use ``march_cpu_s``; processes, which spend most of their
    time importing, use ``import_cpu_s``.
    """

    def __init__(self, gauge, nominal: float):
        self.gauge, self.nominal = gauge, nominal
        self.samples = [gauge() for _ in range(4)]  # a full window from the start

    def factor(self) -> float:
        self.samples.append(self.gauge())
        return self.nominal / statistics.median(self.samples[-5:])


def setup_probes(workload: str, seed: int, work: Path,
                 speed: HostSpeed) -> tuple[dict, dict]:
    """Run SETUP_PROBES fresh processes that set the workload up and exit.

    Returns their wall seconds and nominal CPU seconds, and the import
    figures they took.
    """
    from workloads import spawn
    times, imported = {"wall": [], "cpu": []}, []
    for k in range(SETUP_PROBES):
        log = work / f"probe-{k}.stdout"
        f = speed.factor()
        t0 = time.perf_counter()
        ended = spawn([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--setup-only"], log)
        times["wall"].append(time.perf_counter() - t0)
        times["cpu"].append(ended.cpu_s * f)
        if ended.code != 0:
            raise RuntimeError(f"set-up probe exited {ended.code}: "
                               f"{log.with_suffix('.err').read_text()[-2000:]}")
        imported.append(json.loads(log.read_text().strip().splitlines()[-1]))
    return times, {
        "import.xvapde_s": statistics.median(d["import_s"] for d in imported),
        "import.modules_loaded": imported[-1]["modules_loaded"],
        "import.scipy_stats_loaded": imported[-1]["scipy_stats_loaded"],
    }


# -- the measured loop ----------------------------------------------------------

class Run:
    def __init__(self, wl, seconds: float, trace: bool, reference: dict, speed: HostSpeed):
        from tracer import Tracer
        self.wl, self.seconds, self.reference, self.speed = wl, seconds, reference, speed
        self.tracer = Tracer() if trace else None
        self.wall = {k: [] for k in wl.kinds}  # seconds per request, by kind
        self.cpu = {k: [] for k in wl.kinds}  # nominal CPU seconds, see HostSpeed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.untraced_s = self.traced_s = 0.0
        self.n_traced = 0
        self.child_rss_mb = 0.0

    def loop(self, first) -> None:
        """Whole cycles, while the next one should still end within the time."""
        start = time.perf_counter()
        c, reqs = 0, first
        while True:
            cycle_start = time.perf_counter()
            for req in reqs:
                f = self.speed.factor()
                took = self.execute(req, traced=False)
                if took is not None:
                    self.wall[req.kind].append(took[0])
                    self.cpu[req.kind].append(took[1] * f)
                if self.tracer is not None:
                    self.tracer.current_request = self.n_traced
                    self.n_traced += 1
                    took_traced = self.execute(req, traced=True)
                    if took is not None and took_traced is not None:
                        self.untraced_s += took[1]
                        self.traced_s += took_traced[1]
            c += 1
            now = time.perf_counter()
            if now - start + (now - cycle_start) > self.seconds:
                return
            reqs = self.wl.cycle(c)

    def execute(self, req, traced: bool) -> tuple[float, float] | None:
        """Run and check one request; its (wall, CPU) seconds, or None when it failed.

        The CPU time is the child's user + system time for a CLI request, and
        this process's for a library call.
        """
        self.attempted += 1
        child = req.traced_run is not None  # the CLI traces inside its own process
        try:
            if traced and not child:
                self.tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            out = (req.traced_run if traced and child else req.run)()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if child:
                cpu = out.exit.cpu_s
            if traced and child:
                if out.spans is not None:
                    self.tracer.merge(out.spans, self.tracer.current_request)
                self.tracer.install()  # the check's own engine calls are traced too
            d, problems = req.check(out)
        except Exception as exc:  # a failed request is counted, and the loop goes on
            return self.fail(req, f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        ref = self.reference.get(req.key)
        if ref is not None and ref != d:
            problems = problems + [f"digest {d} differs from the recorded {ref}"]
        if problems:
            return self.fail(req, "; ".join(problems))
        if child and not traced:
            self.child_rss_mb = max(self.child_rss_mb, out.exit.maxrss_mb)
        return wall, cpu

    def fail(self, req, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{req.kind} {req.key}: {message}")
        return None


def end_to_end(run: Run, setup_cpu: list[float], atm_err: float) -> dict:
    """The gated figures, from CPU time; see README.md for why not wall time."""
    def geomean_of_medians(by_kind):
        return math.exp(statistics.fmean(math.log(statistics.median(v))
                                         for v in by_kind.values() if v))

    def per_unit(by_kind):
        return sum(len(v) for v in by_kind.values()) / sum(sum(v) for v in by_kind.values())

    if not any(run.cpu.values()):
        raise RuntimeError("no request succeeded")
    rss = run.child_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": rss,
        "requests_per_cpu_s": per_unit(run.cpu),
        "request_cpu_geomean_ms": geomean_of_medians(run.cpu) * 1e3,
        "atm_abs_err": atm_err,
    }


def named_figures(workload: str, run: Run) -> dict:
    """Wall-clock medians under the names the workloads are discussed by."""
    lat = run.wall

    def med(kinds, scale):
        vals = [x for k in kinds for x in lat.get(k, [])]
        return statistics.median(vals) * scale if vals else None

    if workload == "cli_cold":
        return {f"cli_{k}_s": med([k], 1.0) for k in run.wl.kinds}
    if workload == "desk_batch":
        n = sum(len(v) for v in lat.values())
        return {"desk_requests_per_s": n / sum(sum(v) for v in lat.values()),
                "solve_ms": med(["solve"], 1e3), "greeks_ms": med(["greeks"], 1e3),
                "cva_ms": med(["cva"], 1e3),
                "sweep_ms": med([k for k in lat if k.startswith("sweep_")], 1e3)}
    return {f"fine{n}_solve_s": med([k for k in lat if k.startswith(f"solve{n}_")], 1.0)
            for n in (800, 1600)}


def per_layer(run: Run, eng, imported: dict) -> dict:
    from tracer import kernel_counts, layer_metrics
    import workloads as wls
    out = dict(imported)
    out.update(layer_metrics(run.tracer, run.n_traced))
    for n in (200, 800, 1600):
        try:
            nsub, _ = kernel_counts(eng.problem(wls.DESK, "BKTC", n),
                                    eng.xv.build_space_grid, eng.xv.stability_bound)
        except AttributeError:
            nsub = None
        out[f"solver.substeps_per_level.n{n}"] = nsub
    out["trace.overhead_ratio"] = run.traced_s / run.untraced_s if run.untraced_s else None
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        import_speed = HostSpeed(lambda: import_cpu_s(work), IMPORT_NOMINAL_S)
        setup_times, imported = setup_probes(workload, seed, work, import_speed)
        eng, wl, first, _ = setup(workload, seed, work)
        reference = {}
        if REFERENCE.exists():
            reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})
        speed = (HostSpeed(march_cpu_s, MARCH_NOMINAL_S) if wl.in_process else import_speed)
        run = Run(wl, seconds, trace, reference, speed)
        run.loop(first)
        if trace:
            metrics, units = per_layer(run, eng, imported), PER_LAYER
            run.tracer.write(OUT / f"spans-{workload}.csv")
        else:
            metrics = end_to_end(run, setup_times["cpu"], eng.atm_abs_err(wl.atm_n_space))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "setup_s_samples": setup_times,
        "failed_ops_share": run.failed / run.attempted,
        "requests_wall_ms": {k: summary(v, 1e3) for k, v in run.wall.items() if v},
        "requests_cpu_ms": {k: summary(v, 1e3) for k, v in run.cpu.items() if v},
        "gauge_cpu_ms": {"import": summary(import_speed.samples, 1e3),
                         "requests": summary(speed.samples, 1e3)},
        "named": named_figures(workload, run), "problems": run.problems,
    }
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=1))
    print(f"{workload} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    named_units = {name: "1/s" if name.endswith("_per_s") else name.rsplit("_", 1)[1]
                   for name in details["named"]}  # wall-clock figures: *_s, *_ms, *_per_s
    for name, value in {**metrics, **details["named"]}.items():
        unit = units.get(name) or named_units[name]
        print(f"  {name:44s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    print(f"  {'failed_ops_share':44s} {details['failed_ops_share']:.6g} ratio")
    for p in run.problems:
        print(f"  FAILED {p}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("details ")))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (the setup_s probe)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xvapde" / "__init__.py").is_file():
        print(f"error: no xvapde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        work = WORK / f"probe-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            imported = setup(args.workload, args.seed, work)[3]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(imported))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
