"""Benchmark-side tracing: timed wrappers around xvapde's public functions.

A Tracer replaces each function named in TARGETS with a wrapper on every
xvapde module attribute that holds it (``xvapde.solver.build_space_grid``,
``xvapde.build_space_grid``, ...), so calls are timed where the engine makes
them. Only a traced run installs it, and ``uninstall`` puts the originals
back. A function missing from its module (renamed or removed by a later
refactor) is skipped and every metric built on it reads as absent (None).

Spans are kept in memory as parallel arrays (name, start, end, parent,
request, ok) and written out once, when the run ends.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer boundaries timed in a traced run, by module
TARGETS = {
    "cli": ("resolve_config", "build_problem", "main"),
    "csvio": ("fmt", "write_rows"),
    "grid": ("build_space_grid", "stability_bound"),
    "model": ("modified_variance",),
    "instrument": ("boundary_values",),
    "solver": ("solve", "step", "step_coefficients", "nonlinear_source"),
    "greeks": ("greeks_report", "delta_gamma", "bump_greek"),
    "analytics": ("cva_profile", "sweep", "closed_form_call"),
}

# compulsory traffic of one node update: read the row and a, b, c, write the row
BYTES_PER_NODE_UPDATE = 5 * 8


def kernel_counts(prob, build_space_grid, stability_bound):
    """Computed (not measured) march size of one solve: (nsub, node updates).

    nsub = ceil(dtau / stability_bound), the sub-step rule of the explicit
    march; node updates = n_time * nsub * (N - 1).
    """
    spec = prob.grid
    bound = stability_bound(build_space_grid(spec), prob.effective_params())
    nsub = max(1, math.ceil(spec.dtau / bound)) if math.isfinite(bound) else 1
    return nsub, spec.n_time * nsub * (spec.n_space - 1)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.ok = array("b")
        self.extra: dict[int, dict] = {}
        self.current_request = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def __len__(self):
        return len(self.name_of)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS function found in the loaded xvapde modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "xvapde" or n.startswith("xvapde."))]
        for short, names in TARGETS.items():
            mod = sys.modules.get(f"xvapde.{short}")
            for name in names:
                orig = getattr(mod, name, None) if mod is not None else None
                if not callable(orig):
                    continue
                span = f"{short}.{name}"
                self.originals[span] = orig
                self.wrapped.add(span)
                wrapper = self._wrap(span, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, span: str, orig):
        nid = self._name_id(span)
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return orig(*args, **kwargs)
            extra = before(tracer, args) if before is not None else None
            idx = len(tracer.name_of)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.request.append(tracer.current_request)
            tracer.ok.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            tracer.ok[idx] = 1
            if after is not None:
                extra = after(result, args, extra)
            if extra is not None:
                tracer.extra[idx] = extra
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", span)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    # -- spans out and in -------------------------------------------------

    def write(self, path) -> None:
        """One line per span: name id, start and end in microseconds from the
        first span, parent index, request id, ok. The first line maps ids to names."""
        t0 = self.start[0] if len(self) else 0.0
        cols = np.column_stack([
            np.asarray(self.name_of), np.rint((np.asarray(self.start) - t0) * 1e6),
            np.rint((np.asarray(self.end) - t0) * 1e6), np.asarray(self.parent),
            np.asarray(self.request), np.asarray(self.ok)]).astype(np.int64)
        header = "names " + " ".join(f"{i}={n}" for i, n in enumerate(self.names))
        np.savetxt(path, cols.reshape(-1, 6), fmt="%d", delimiter=",",
                   header=header + "\nname,start_us,end_us,parent,request,ok", comments="")

    def dump(self) -> dict:
        """Spans as plain data, for a traced child process to hand back."""
        return {"names": self.names, "wrapped": sorted(self.wrapped),
                "name_of": list(self.name_of), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent),
                "request": list(self.request), "ok": list(self.ok),
                "extra": {str(k): v for k, v in self.extra.items()}}

    def merge(self, data: dict, request: int) -> None:
        """Append a child's spans, tagged with this run's request id."""
        offset = len(self)
        ids = [self._name_id(n) for n in data["names"]]
        self.wrapped.update(data["wrapped"])
        for i in range(len(data["name_of"])):
            self.name_of.append(ids[data["name_of"][i]])
            self.start.append(data["start"][i])
            self.end.append(data["end"][i])
            p = data["parent"][i]
            self.parent.append(p + offset if p >= 0 else -1)
            self.request.append(request)
            self.ok.append(data["ok"][i])
        for k, v in data["extra"].items():
            self.extra[int(k) + offset] = v


def _solve_before(tracer, args):
    tracer._paused = True  # the count's own grid build is not the solve's work
    try:
        nsub, updates = kernel_counts(args[0], tracer.originals["grid.build_space_grid"],
                                      tracer.originals["grid.stability_bound"])
        return {"n_space": args[0].grid.n_space, "n_time": args[0].grid.n_time,
                "nsub": nsub, "node_updates": updates}
    except Exception:  # ill-posed problem (the solve raises it) or a layer gone
        return None
    finally:
        tracer._paused = False


def _write_rows_after(result, args, extra):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_after(result, args, extra):
    return {"members": len(result.values), "errors": len(result.errors)}


_BEFORE = {"solver.solve": _solve_before}
_AFTER = {"csvio.write_rows": _write_rows_after, "analytics.sweep": _sweep_after}


# -- per-layer metrics --------------------------------------------------------

PER_SOLVE_CALLS = ("grid.build_space_grid", "grid.stability_bound", "model.modified_variance",
                   "instrument.boundary_values", "solver.step", "solver.step_coefficients",
                   "solver.nonlinear_source")
PER_SOLVE_SELF = ("grid.build_space_grid", "grid.stability_bound", "instrument.boundary_values",
                  "solver.step", "solver.step_coefficients", "solver.nonlinear_source",
                  "solver.solve")
PER_CALL_TOTAL = ("cli.resolve_config", "cli.build_problem", "cli.main")
PER_CALL_SELF = ("greeks.delta_gamma", "analytics.closed_form_call")


def layer_metrics(tr: Tracer, n_requests: int) -> dict[str, float | None]:
    """Per-layer figures from the recorded spans; None marks an absent layer.

    A layer the workload never enters reads 0 (its counts and times are 0).
    One thread runs one call at a time, so span j lies inside span i exactly
    when i < j and j starts before i ends.
    """
    n = len(tr)
    start, end = np.asarray(tr.start), np.asarray(tr.end)
    dur = end - start
    parent, name_of = np.asarray(tr.parent), np.asarray(tr.name_of)
    ok = np.asarray(tr.ok).astype(bool)
    linked = parent >= 0
    self_t = dur - np.bincount(parent[linked], weights=dur[linked], minlength=n)

    def named(name):
        nid = tr._name_ids.get(name)
        return name_of == nid if nid is not None else np.zeros(n, dtype=bool)

    def inside(name):
        """Spans inside a call of ``name`` that returned (calls never nest)."""
        outer = np.flatnonzero(named(name) & ok)
        k = np.searchsorted(start[outer], start, side="right") - 1
        hit = k >= 0
        hit[hit] = start[hit] < end[outer[k[hit]]]
        hit[outer] = False
        return hit

    def present(*needed):
        return all(x in tr.wrapped for x in needed)

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out: dict[str, float | None] = {}
    solves = named("solver.solve") & ok
    n_solves = int(solves.sum())
    in_solve = inside("solver.solve")
    solve_on = present("solver.solve")
    for name in PER_SOLVE_CALLS:
        calls = (named(name) & in_solve).sum()
        out[f"{name}.calls_per_solve"] = (ratio(calls, n_solves)
                                          if solve_on and present(name) else None)
    for name in PER_SOLVE_SELF:
        where = solves if name == "solver.solve" else named(name) & in_solve
        out[f"{name}.self_s"] = (ratio(self_t[where].sum(), n_solves)
                                 if solve_on and present(name) else None)

    counted = [tr.extra[i] for i in np.flatnonzero(solves) if i in tr.extra]
    levels = sum(x["n_time"] for x in counted)
    updates = sum(x["node_updates"] for x in counted)
    sources = (named("solver.nonlinear_source") & in_solve).sum()
    out["solver.substeps_per_level"] = (ratio(sources, levels)
                                        if present("solver.solve", "solver.nonlinear_source")
                                        else None)
    out["solver.node_updates_per_solve"] = ratio(updates, n_solves) if solve_on else None
    out["solver.node_updates_per_s"] = ratio(updates, dur[solves].sum()) if solve_on else None
    out["solver.bytes_moved_per_solve"] = (ratio(updates, n_solves) * BYTES_PER_NODE_UPDATE
                                           if solve_on else None)

    for name in PER_CALL_TOTAL:
        m = named(name)
        out[f"{name}_s"] = ratio(dur[m].sum(), m.sum()) if present(name) else None
    for name in PER_CALL_SELF:
        m = named(name)
        out[f"{name}.self_s"] = ratio(self_t[m].sum(), m.sum()) if present(name) else None

    fmts, writes = named("csvio.fmt"), named("csvio.write_rows")
    written = sum(tr.extra.get(i, {}).get("bytes", 0) for i in np.flatnonzero(writes))
    export_time = dur[fmts].sum() + dur[writes].sum()
    out["csvio.fmt.calls"] = ratio(fmts.sum(), n_requests) if present("csvio.fmt") else None
    out["csvio.write_rows.self_s"] = (ratio(self_t[writes].sum(), n_requests)
                                      if present("csvio.write_rows") else None)
    out["csvio.bytes_written"] = (ratio(written, n_requests)
                                  if present("csvio.write_rows") else None)
    out["csvio.export_MB_per_s"] = (ratio(written / 1e6, export_time)
                                    if present("csvio.fmt", "csvio.write_rows") else None)

    def solves_per(outer):
        calls = (named(outer) & ok).sum()
        return (ratio((solves & inside(outer)).sum(), calls)
                if present(outer, "solver.solve") else None)

    out["greeks.solves_per_report"] = solves_per("greeks.greeks_report")
    out["analytics.solves_per_cva"] = solves_per("analytics.cva_profile")
    sweeps = [tr.extra[i] for i in np.flatnonzero(named("analytics.sweep")) if i in tr.extra]
    members = sum(x["members"] - x["errors"] for x in sweeps)
    errors = sum(x["errors"] for x in sweeps)
    sweep_on = present("analytics.sweep", "solver.solve")
    out["analytics.sweep.solves_per_member"] = (
        ratio((solves & inside("analytics.sweep")).sum(), members) if sweep_on else None)
    out["analytics.sweep.expected_member_errors"] = ratio(errors, len(sweeps)) if sweep_on else None
    return out
