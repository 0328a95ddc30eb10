"""Seeded inputs, timed operations and output checks of the three workloads.

Every workload is a fixed cycle of request kinds; the seed and the cycle
number draw each request's parameters, so no input repeats within a run and
the same (seed, cycle) always gives the same inputs. Draws are rejected
until each solve has the sub-step counts of the unperturbed desk scenario:
a request costs the same on every seed, and only its numbers change.

Each request comes with a check. It returns a digest of the outputs (the
CLI's bytes, or the library's arrays) and a list of broken invariants:

* prices are >= 0 and finite;
* a RiskFree price at the node nearest the strike is within 1e-2 of
  closed_form_call (acceptance criterion 1);
* the CVA at the money is <= 0;
* a sweep fails exactly on the members below the condition-1 cost floor.

run.py also compares the digest with the recorded one, where there is one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import kernel_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

STRIKE = 8.0
X_MINUS, X_PLUS = math.log(2.0), math.log(32.0)
DESK = dict(r=0.05, q_S=0.05, gamma_S=0.03, sigma=0.1, s_F=0.0,
            lambda_B=0.05, lambda_C=0.01, R_B=0.4, R_C=0.4,
            C_S=0.002, C_B=0.001, C_C=0.001, dt=1.0 / 261.0)
# each seeded request draws its parameters uniformly from these ranges
RANGES = {"r": (0.04, 0.06), "q_S": (0.04, 0.06), "gamma_S": (0.02, 0.04),
          "sigma": (0.095, 0.105), "s_F": (0.0, 0.01), "lambda_B": (0.03, 0.07),
          "lambda_C": (0.005, 0.02), "R_B": (0.3, 0.5), "R_C": (0.3, 0.5),
          "C_S": (0.001, 0.003), "C_B": (0.0005, 0.0015), "C_C": (0.0005, 0.0015)}
DESK_N, N_TIME = 200, 261
SWEEP_MEMBERS = 8
ATM_TOL = 1e-2
PRICE_FLOOR = -1e-9
CHILD_TIMEOUT_S = 120.0


@dataclass
class Request:
    kind: str                      # timing bucket
    key: str                       # "<cycle>:<position>", the digest key
    inputs: dict                   # what the seed drew for this request
    run: Callable[[], object]      # the timed call
    check: Callable[[object], tuple[str, list[str]]]  # -> (digest, problems)
    traced_run: Callable[[object], object] | None = None  # CLI only: run under a tracer


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        elif isinstance(part, bytes):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:32]


def atm_index(spots) -> int:
    """The node nearest the strike in log-price, as Surface.value_near_spot picks it."""
    return int(np.argmin(np.abs(np.log(spots) - math.log(STRIKE))))


def desk_grid_dict(n_space: int = DESK_N) -> dict:
    return {"x_minus": X_MINUS, "x_plus": X_PLUS, "x_star": math.log(STRIKE),
            "alpha": (X_PLUS - X_MINUS) / 10.0, "n_space": n_space,
            "n_time": N_TIME, "horizon": 1.0}


class Engine:
    """The library entry points, looked up on each call so a tracer sees them."""

    def __init__(self):
        import xvapde
        import xvapde.cli  # noqa: F401  (loaded so a tracer wraps the CLI layer too)
        self.xv = xvapde
        warnings.simplefilter("ignore", xvapde.ModelAssumptionWarning)

    def problem(self, params: dict, variant: str = "BKTC", n_space: int = DESK_N):
        xv = self.xv
        return xv.Problem(params=xv.ModelParams(**params), variant=xv.ModelVariant(variant),
                          grid=xv.GridSpec(**desk_grid_dict(n_space)),
                          instrument=xv.Instrument(kind="call", strike=STRIKE))

    def nsub(self, params: dict, variant: str, n_space: int) -> int:
        """Sub-steps per level of the solve; 0 when condition 1 fails."""
        xv = self.xv
        prob = self.problem(params, variant, n_space)
        if not xv.check_condition1(prob.effective_params()):
            return 0
        return kernel_counts(prob, xv.build_space_grid, xv.stability_bound)[0]

    def profile(self, params: dict, n_space: int) -> tuple[int, int]:
        """Sub-steps per level of the BKTC and the RiskFree solve."""
        return self.nsub(params, "BKTC", n_space), self.nsub(params, "RiskFree", n_space)

    def valid(self, params: dict) -> bool:
        p = self.xv.ModelParams(**params)
        return all(rep.passed for rep in self.xv.validity_checks(p, S_max=math.exp(X_PLUS)))

    def closed_form_atm(self, params: dict, spots: np.ndarray) -> tuple[int, float]:
        """(index of the node nearest the strike, closed-form call price there)."""
        i = atm_index(spots)
        cf = self.xv.closed_form_call(float(spots[i]), K=STRIKE, r=params["r"],
                                      carry=params["q_S"] - params["gamma_S"],
                                      sigma=params["sigma"], tau=1.0)
        return i, float(cf)

    def atm_abs_err(self, n_space: int) -> float:
        """RiskFree desk call against the closed form, at the node nearest the strike."""
        surf = self.xv.solve(self.problem(DESK, "RiskFree", n_space))
        i, cf = self.closed_form_atm(DESK, surf.grid.spots)
        return abs(float(surf.terminal[i]) - cf)


def draw_params(eng: Engine, rng: random.Random, n_spaces=(DESK_N,), fixed=(),
                bumps=()) -> dict:
    """Seeded parameters that pass the validity checks and keep the desk sub-step counts.

    ``bumps`` lists (name, eps) pairs whose up and down bumps must keep them too.
    """
    target = {n: eng.profile(DESK, n) for n in n_spaces}
    for _ in range(1000):
        params = dict(DESK)
        for name, (lo, hi) in RANGES.items():
            if name not in fixed:
                params[name] = round(rng.uniform(lo, hi), 6)
        if not eng.valid(params):
            continue
        variants = [params] + [dict(params, **{k: params[k] + s * eps})
                               for k, eps in bumps for s in (-1.0, 1.0)]
        if all(eng.profile(v, n) == target[n] for v in variants for n in n_spaces):
            return params
    raise RuntimeError("no parameter draw kept the desk sub-step counts")


def jittered(rng: random.Random, centers, rel: float, accept) -> list[float]:
    """centers, each moved by up to ``rel`` of itself, redrawn until ``accept`` holds."""
    for _ in range(1000):
        vals = [round(c * (1.0 + rng.uniform(-rel, rel)), 8) for c in centers]
        if all(b > a for a, b in zip(vals, vals[1:])) and accept(vals):
            return vals
    raise RuntimeError("no jitter kept the sweep's sub-step counts")


def sweep_values(eng: Engine, rng: random.Random, base: dict, parameter: str) -> list[float]:
    """Eight members of a seeded sweep over ``parameter`` around ``base``.

    sigma runs 0.1 -> 0.3, crossing nsub 1 -> 8 on the desk grid; C_S runs
    past the condition-1 floor sigma/sqrt(2/(pi*dt)), so its last two members
    fail as expected; lambda_C and R_C stay inside the valid region.
    """
    if parameter == "sigma":
        centers = list(np.linspace(0.1, 0.3, SWEEP_MEMBERS))
        ref = [eng.profile(dict(DESK, sigma=c), DESK_N) for c in centers]
        return jittered(rng, centers, 0.01, lambda vals: [
            eng.profile(dict(base, sigma=v), DESK_N) for v in vals] == ref)
    if parameter == "C_S":
        floor = base["sigma"] / eng.xv.turnover_factor(base["dt"])
        centers = [f * floor for f in (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 1.1, 1.25)]
        return jittered(rng, centers, 0.02, lambda vals: True)
    if parameter == "lambda_C":
        centers = [0.002 + 0.0065 * k for k in range(SWEEP_MEMBERS)]
    else:  # R_C
        centers = [0.1 + 0.1 * k for k in range(SWEEP_MEMBERS)]
    return jittered(rng, centers, 0.01, lambda vals: True)


def _price_problems(label: str, row: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(row)):
        return [f"{label}: non-finite value"]
    if float(row.min()) < PRICE_FLOOR:
        return [f"{label}: negative price {float(row.min()):.3e}"]
    return []


def _atm_problems(eng: Engine, label: str, params: dict, spots, rf_row) -> list[str]:
    i, cf = eng.closed_form_atm(params, spots)
    err = abs(float(rf_row[i]) - cf)
    return [f"{label}: RiskFree ATM error {err:.3e} > {ATM_TOL}"] if not err <= ATM_TOL else []


def _cva_problems(label: str, spots, cva) -> list[str]:
    i = atm_index(spots)
    return [f"{label}: ATM CVA {float(cva[i]):.3e} > 0"] if not float(cva[i]) <= 0.0 else []


def expected_errors(eng: Engine, base: dict, parameter: str, values) -> set[float]:
    """Members that must fail: those breaking condition 1 under the BKTC filter."""
    bad = set()
    for v in values:
        p = eng.xv.ModelVariant.BKTC.apply(eng.xv.ModelParams(**dict(base, **{parameter: v})))
        if not eng.xv.check_condition1(p):
            bad.add(v)
    return bad


# -- in-process workloads ---------------------------------------------------

class DeskBatch:
    """Warm desk-grid requests: solve, cva_profile, greeks_report, 8-member sweep.

    One cycle is four rounds, one per swept parameter (sigma, C_S, lambda_C,
    R_C); each round sends one request of every kind.
    """

    name = "desk_batch"
    in_process = True
    kinds = ("solve", "cva", "greeks", "sweep_sigma", "sweep_C_S", "sweep_lambda_C",
             "sweep_R_C")
    atm_n_space = DESK_N

    def __init__(self, eng: Engine, seed: int, work: Path):
        self.eng, self.seed = eng, seed

    def cycle(self, c: int) -> list[Request]:
        eng = self.eng
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        reqs = []
        for parameter in ("sigma", "C_S", "lambda_C", "R_C"):
            k = len(reqs)
            p_solve = draw_params(eng, rng)
            p_cva = draw_params(eng, rng)
            p_greeks = draw_params(eng, rng, bumps=(("sigma", 1e-3), ("r", 1e-4)))
            fixed = ("sigma", "C_S") if parameter == "sigma" else ()
            p_sweep = draw_params(eng, rng, fixed=fixed)
            values = sweep_values(eng, rng, p_sweep, parameter)
            problem = eng.problem
            reqs += [
                self._request("solve", f"{c}:{k}", {"params": p_solve}, "solve",
                              (problem(p_solve),), self._check_solve()),
                self._request("cva", f"{c}:{k + 1}", {"params": p_cva}, "cva_profile",
                              (problem(p_cva),), self._check_cva(p_cva)),
                self._request("greeks", f"{c}:{k + 2}", {"params": p_greeks}, "greeks_report",
                              (problem(p_greeks),), self._check_greeks()),
                self._request(f"sweep_{parameter}", f"{c}:{k + 3}",
                              {"params": p_sweep, "parameter": parameter, "values": values},
                              "sweep", (problem(p_sweep), parameter, values),
                              self._check_sweep(p_sweep, parameter, values)),
            ]
        return reqs

    def _request(self, kind, key, inputs, function, args, check) -> Request:
        return Request(kind, key, inputs, lambda: getattr(self.eng.xv, function)(*args), check)

    def _check_solve(self):
        def check(surf):
            return digest(surf.values), _price_problems("solve", surf.terminal)
        return check

    def _check_cva(self, params):
        spots = self.eng.xv.build_space_grid(self.eng.problem(params).grid).spots

        def check(cva):
            probs = [] if np.all(np.isfinite(cva)) else ["cva: non-finite value"]
            return digest(cva), probs + _cva_problems("cva", spots, cva)
        return check

    def _check_greeks(self):
        def check(rep):
            arrays = (rep.delta, rep.gamma, rep.vega, rep.rho)
            probs = [] if all(np.all(np.isfinite(a)) for a in arrays) else [
                "greeks: non-finite value"]
            i = atm_index(rep.spots)
            if not 0.0 < float(rep.delta[i]) < 1.0:
                probs.append(f"greeks: ATM delta {float(rep.delta[i]):.4g} outside (0, 1)")
            return digest(*arrays), probs
        return check

    def _check_sweep(self, params, parameter, values):
        eng = self.eng
        expected = expected_errors(eng, params, parameter, values)

        def check(res):
            parts, probs = [], []
            if set(res.errors) != expected:
                probs.append(f"sweep {parameter}: failed members {sorted(res.errors)}, "
                             f"expected {sorted(expected)}")
            for v, price, cva in zip(res.values, res.prices, res.cvas):
                if price is None:
                    parts.append(res.errors.get(v, ""))
                    continue
                parts += [price, cva]
                label = f"sweep {parameter}={v:.6g}"
                member = dict(params, **{parameter: v})
                probs += _price_problems(label, price)
                probs += _cva_problems(label, res.spots, cva)
                probs += _atm_problems(eng, label, member, res.spots, price - cva)
            return digest(*parts), probs
        return check


class FineGrid:
    """Warm RiskFree and BKTC solves at N = 800 and 1600 (M = 261).

    sigma and C_S stay at the desk values, so the sub-step counts stay at
    12 / 45 (BKTC) and 15 / 60 (RiskFree); the other inputs are seeded.
    """

    name = "fine_grid"
    in_process = True
    kinds = ("solve800_RiskFree", "solve800_BKTC", "solve1600_RiskFree", "solve1600_BKTC")
    atm_n_space = 1600

    def __init__(self, eng: Engine, seed: int, work: Path):
        self.eng, self.seed = eng, seed

    def cycle(self, c: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        reqs = []
        for n in (800, 1600):
            for variant in ("RiskFree", "BKTC"):
                params = draw_params(self.eng, rng, n_spaces=(n,), fixed=("sigma", "C_S"))
                prob = self.eng.problem(params, variant, n)
                reqs.append(Request(f"solve{n}_{variant}", f"{c}:{len(reqs)}",
                                    {"params": params, "variant": variant, "n_space": n},
                                    lambda prob=prob: self.eng.xv.solve(prob),
                                    self._check(params, variant)))
        return reqs

    def _check(self, params, variant):
        def check(surf):
            probs = _price_problems(f"{variant} solve", surf.terminal)
            if variant == "RiskFree":
                probs += _atm_problems(self.eng, "RiskFree solve", params,
                                       surf.grid.spots, surf.terminal)
            return digest(surf.values), probs
        return check


# -- the CLI as fresh processes ---------------------------------------------

@dataclass
class Exit:
    code: int
    cpu_s: float       # user + system time of the child
    maxrss_mb: float   # its peak resident memory


@dataclass
class CliOutput:
    stdout: bytes
    files: dict[str, bytes]
    exit: Exit
    spans: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout_path: Path, cwd: Path = ROOT) -> Exit:
    """Run one child to completion; its exit code and resource use."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def read_csv_floats(data: bytes, skip_rows: int = 1, skip_cols: int = 0) -> np.ndarray:
    rows = data.decode().splitlines()[skip_rows:]
    return np.array([[float(x) for x in r.split(",")[skip_cols:]] for r in rows])


class CliCold:
    """The five CLI commands, each a fresh `python -m xvapde.cli` process.

    Configs are seeded desk scenarios (N = 200, M = 261); the sweep command
    sweeps lambda_C over eight members. Children run one at a time.
    """

    name = "cli_cold"
    in_process = False
    kinds = ("validate", "price", "greeks", "cva", "sweep")
    atm_n_space = DESK_N

    def __init__(self, eng: Engine, seed: int, work: Path):
        self.eng, self.seed, self.work = eng, seed, work

    def cycle(self, c: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        reqs = []
        for k, command in enumerate(self.kinds):
            params = draw_params(self.eng, rng)
            cfg = {"params": params, "grid": {"n_space": DESK_N, "n_time": N_TIME}}
            if command == "sweep":
                values = sweep_values(self.eng, rng, params, "lambda_C")
                cfg["sweep"] = {"parameter": "lambda_C", "values": values}
            path = self.work / f"c{c}-{command}.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            out = self.work / f"c{c}-{command}"
            argv = [command, "--config", str(path), "--out", str(out)]
            reqs.append(Request(command, f"{c}:{k}", cfg, self._run(argv, out),
                                self._check(command, params, out),
                                traced_run=self._traced(argv, out)))
        return reqs

    def _run(self, argv, out):
        def run():
            shutil.rmtree(out, ignore_errors=True)
            ended = spawn([sys.executable, "-m", "xvapde.cli", *argv], out.with_suffix(".stdout"))
            return self._collect(ended, out)
        return run

    def _traced(self, argv, out):
        spans_path = out.with_suffix(".spans.json")

        def run():
            shutil.rmtree(out, ignore_errors=True)
            ended = spawn([sys.executable, str(BENCH / "cli_child.py"), str(spans_path), *argv],
                          out.with_suffix(".stdout"))
            res = self._collect(ended, out)
            if spans_path.exists():
                res.spans = json.loads(spans_path.read_text())
                spans_path.unlink()
            return res
        return run

    @staticmethod
    def _collect(ended: Exit, out: Path) -> CliOutput:
        files = {}
        if out.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
        return CliOutput(out.with_suffix(".stdout").read_bytes(), files, ended)

    def _check(self, command, params, out):
        eng = self.eng

        def check(res: CliOutput):
            d = digest(res.exit.code, res.stdout,
                       *[x for kv in sorted(res.files.items()) for x in kv])
            if res.exit.code != 0:
                return d, [f"{command}: exit code {res.exit.code}"]
            if "resolved_config.json" not in res.files:
                return d, [f"{command}: no resolved_config.json"]
            probs = []
            try:
                if command == "validate":
                    if res.stdout.decode().count(": PASS") != 3:
                        probs.append("validate: not every condition passed")
                elif command == "price":
                    table = read_csv_floats(res.files["surface.csv"], skip_rows=2, skip_cols=1)
                    if table.shape != (N_TIME + 1, DESK_N + 1):
                        probs.append(f"price: surface shape {table.shape}")
                    probs += _price_problems("price", table[-1])
                elif command == "greeks":
                    table = read_csv_floats(res.files["greeks.csv"])
                    if table.shape != (DESK_N + 1, 5) or not np.all(np.isfinite(table)):
                        probs.append("greeks: malformed or non-finite table")
                elif command == "cva":
                    t = read_csv_floats(res.files["cva.csv"])
                    probs += _price_problems("cva price", t[:, 1])
                    probs += _cva_problems("cva", t[:, 0], t[:, 3])
                    probs += _atm_problems(eng, "cva", params, t[:, 0], t[:, 2])
                else:
                    rows = res.files["sweep.csv"].decode().splitlines()[1:]
                    if len(rows) != SWEEP_MEMBERS * (DESK_N + 1):
                        probs.append(f"sweep: {len(rows)} rows")
                    t = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
                    for v in np.unique(t[:, 0]):
                        m = t[t[:, 0] == v]
                        probs += _price_problems(f"sweep {v:.6g}", m[:, 2])
                        probs += _cva_problems(f"sweep {v:.6g}", m[:, 1], m[:, 3])
            except (KeyError, ValueError, IndexError) as exc:
                probs.append(f"{command}: unreadable output ({type(exc).__name__}: {exc})")
            return d, probs
        return check


WORKLOADS = {w.name: w for w in (CliCold, DeskBatch, FineGrid)}
