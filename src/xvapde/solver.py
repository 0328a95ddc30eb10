"""Explicit time march for the nonlinear pricing equation in log space.

Backward time tau = T - t turns the terminal condition into an initial one;
each reporting step applies

    V[i] <- a_i*V[i-1] + b_i*V[i] + c_i*V[i+1] - dtau * source_i(V)

on the interior, with Dirichlet walls refreshed at the new tau. The linear
weights carry the diffusion sig2_hat/2 and the drift q_S - gamma_S -
sig2_hat/2 (forward-differenced by default); their row sum is 1 - r*dtau.
The source collects the funding/credit exposure terms and the
counterparty-bond cost sink on the positive part U = max(V, 0):

    source_i = max(V_i,0)*[s_F + lambda_C(1-R_C)]
             + min(V_i,0)*(lambda_B - r C_B)(1-R_B)
             + sigma*sqrt(2/(pi*dt))*C_C*(1-R_C) * |(U[i+1]-U[i]) / (x[i+1]-x[i])|

Whenever the reporting step exceeds the grid's ``stability_bound``, the
step is split into equal sub-steps automatically; passing substep=False
disables the guard (useful only to demonstrate the blow-up).

A solve has two parts. The plan does everything that does not change with
tau once: the condition checks, the grid, the sub-step count and size,
the weights (a, b, c), the three source rates and the wall curves. The
march then only does arithmetic. Every solve is a stack: ``solve`` is a
stack of one, ``solve_stack`` takes many, and the greeks, CVA, model
comparison and sweeps each solve their variants in one stack and
subtract rows. A stack is split by grid once, and ``_plan_stack`` plans
the distinct members of one grid into one ``Plan`` in one pass of
column-broadcast numpy, one row for each (member, nsub) that marches,
each element computed as a lone plan (a ``Plan`` of one row) computes it.
It checks each row's step for monotonicity once, at the nsub the row
marches, and returns each member's warning texts rather than warning.
Members that would plan to the same bits (the RiskFree twins of a credit
or cost sweep) plan once and, at one nsub, march once. Every grid plans
before any marches; the warnings then come in member order, located at
the caller's line outside the package.

The march is a compiled C kernel (``_march.c``, built on first use and
loaded with ctypes; see ``_kernel``): one call per grid marches every row
of the stack on it, each through every sub-step of every level, with the
walls and a finiteness check after every sub-step, so a row's
NonFiniteValue names its first non-finite sub-step and node directly.
Where no compiler is found, ``_march_numpy`` runs the same march in
numpy, one row and one sub-step at a time. It is also the reference the
kernel is tested against, bit for bit: the kernel keeps its order of
operations, and its walls call the libm ``exp`` that ``math.exp`` calls.
A zero-source row (``_has_source``) marches the linear update alone; no
bit moves, and in a blow-up its NonFiniteValue names the first node where
the linear update itself overflows.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvio import write_rows
from .errors import EngineError, ModelAssumptionWarning, NonFiniteValue
from .grid import GridSpec, SpaceGrid, _stability_bounds, build_space_grid, build_time_grid
from .instrument import Instrument, boundary_curves, curve_values, payoff
from .model import (
    ConditionReport,
    ModelParams,
    ModelVariant,
    check_condition2,
    check_condition4,
    cpty_cost_rate,
    negative_exposure_rate,
    positive_exposure_rate,
    validity_checks,
    variance_and_drift,
)

__all__ = ["Problem", "Surface", "Plan", "plan", "step_coefficients", "source_rates",
           "nonlinear_source", "step", "solve", "solve_stack", "solved"]

DRIFT_MODES = ("forward", "upwind")
_PACKAGE = os.path.dirname(__file__) + os.sep  # the files whose frames a warning skips
# the conditions a solve only warns on, with the argument each one backs
_ADVISORY = {"condition2": "contraction", "condition4": "comparison"}


@dataclass(frozen=True)
class Problem:
    """A full pricing scenario.

    condition1 is enforced on the variant-filtered parameters when the solve
    starts; conditions 2 and 4 only warn. condition2_c is the finite
    contraction constant the caller wants condition 2 checked with.
    """

    params: ModelParams
    variant: ModelVariant
    grid: GridSpec
    instrument: Instrument
    drift_discretization: str = "forward"
    condition2_c: float = 1.0

    def __post_init__(self):
        if self.drift_discretization not in DRIFT_MODES:
            raise ValueError(f"drift_discretization must be one of {DRIFT_MODES}")
        if not math.isfinite(self.condition2_c):
            raise ValueError(f"condition2_c must be a finite number, got {self.condition2_c!r}")

    def effective_params(self) -> ModelParams:
        return self.variant.apply(self.params)

    def validity_checks(self) -> list[ConditionReport]:
        """The condition reports of the variant-filtered parameters, with
        S_max at the upper wall and condition 2 at condition2_c."""
        return validity_checks(self.effective_params(), math.exp(self.grid.x_plus),
                               self.condition2_c)


@dataclass(frozen=True, eq=False)
class Surface:
    """Solved values: values[m, i] holds V(tau_m, x_i)."""

    values: np.ndarray
    grid: SpaceGrid
    taus: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        """The tau = T row."""
        return self.values[-1]

    def value_near_spot(self, spot: float) -> tuple[float, float]:
        """(node spot, terminal value) at the node nearest the given spot."""
        i = self.grid.nearest_index(math.log(spot))
        return float(self.grid.spots[i]), float(self.terminal[i])

    def to_csv(self, path) -> None:
        """Two header rows (x_i, then S_i), one data row per tau level."""
        write_rows(path, (), [(("x",), self.grid.nodes[None]),
                              (("S",), self.grid.spots[None]),
                              ((), np.column_stack([self.taus, self.values]))])


def step_coefficients(grid: SpaceGrid, p: ModelParams, dtau: float,
                      drift_discretization: str = "forward"):
    """Interior update weights (a, b, c) for one explicit step of size dtau.

    a multiplies V[i-1], b multiplies V[i], c multiplies V[i+1];
    a + b + c = 1 - r*dtau identically. The upwind option differences the
    drift toward its inflow side so a and c stay nonnegative for any sign
    of the drift.
    """
    sig2, drift = variance_and_drift(p)
    return _coefficients(grid, sig2, drift, p.r, dtau,
                         drift_discretization == "forward" or drift >= 0.0)


def _columns(rows: list[tuple]):
    """K per-member tuples of floats as one (K, 1) column per field, the
    operands of a broadcast plan; a lone member's fields stay floats, which
    numpy applies faster."""
    if len(rows) == 1:
        return rows[0]
    return np.array(rows).T[:, :, None]


def _coefficients(grid: SpaceGrid, sig2, drift, r, dtau, forward):
    """``step_coefficients`` of scalars, or of per-member (K, 1) columns of
    sig2, drift, r and dtau, one row of weights per member; each element is
    computed as the scalar formula computes it. ``forward`` is True where
    every member differences its drift forward, else whether each does: a
    bool, or a (K, 1) column of them."""
    diff = 0.5 * sig2 * dtau
    a = diff * grid.h_minus
    c = diff * grid.h_plus
    b = 1.0 - diff * (grid.h_plus + grid.h_minus) - r * dtau
    adv = dtau * drift / grid.h[1:]  # forward spacing at interior nodes
    if forward is True:
        return a, b - adv, c + adv
    back = dtau * -drift / grid.h[:-1]  # backward spacing
    return (np.where(forward, a, a + back), b - np.where(forward, adv, back),
            np.where(forward, c + adv, c))


def source_rates(p: ModelParams) -> tuple[float, float, float]:
    """(positive-exposure, negative-exposure, cost) rates of the source."""
    return positive_exposure_rate(p), negative_exposure_rate(p), cpty_cost_rate(p)


def nonlinear_source(row: np.ndarray, grid: SpaceGrid, rates) -> np.ndarray:
    """Funding/credit/cost source at the interior nodes of one row.

    ``rates`` are the three scalar ``source_rates`` of the variant-filtered
    parameters; the terms are summed in the order pos_rate*U +
    min(V, 0)*neg_rate + |U_x|*cost_rate. The cost sink differences the
    positive part forward, matching the upper-wall side where a call's
    exposure lives.
    """
    row = np.asarray(row, dtype=float)
    pos_rate, neg_rate, cost_rate = rates
    u = np.maximum(row, 0.0)
    return (pos_rate * u[1:-1] + np.minimum(row[1:-1], 0.0) * neg_rate
            + np.abs((u[2:] - u[1:-1]) / grid.h[1:]) * cost_rate)


class Plan(NamedTuple):
    """What the march of the R rows of a stack on one grid needs that does
    not change with tau; a lone problem's plan is one row. Row r holds its
    nsub and delta (R,), its weights a, b and c (R, N-1), its three source
    rates (R, 3), its walls (R, 2, 4): the (lower, upper) Dirichlet curves
    of ``boundary_curves``, each as the (P, p, Q, q) of P*exp(p*tau) -
    Q*exp(q*tau), and its start row (R, N+1), the payoff at tau = 0."""

    grid: SpaceGrid
    dtau: float
    nsub: np.ndarray
    delta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rates: np.ndarray
    walls: np.ndarray
    start: np.ndarray


class _Member(NamedTuple):
    """What the rows of one distinct member of a stack read, once its checks
    pass and its walls and payoff are built."""

    scalars: tuple[float, float, float]  # sig2, drift, r
    forward: bool  # whether its drift is differenced forward
    rates: tuple[float, float, float]
    walls: tuple
    start: np.ndarray


class _Counts:
    """The engine's work since the last ``reset``, added up from what the
    plans hold, once per planned stack and once per marched grid."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.members = 0       # members asked for
        self.plans = 0         # members planned: one per distinct plan key that passes its checks
        self.rows = 0          # rows marched
        self.substeps = 0      # nsub times the levels marched, summed over the rows
        self.node_updates = 0  # sub-steps times interior nodes, summed over the rows
        self.grids = 0         # space grids built; not those a caller passes in


_counts = _Counts()


def _advisories(prob: Problem, p: ModelParams) -> list[str]:
    """The warnings of conditions 2 and 4 and of lambda_B < r*C_B.

    The condition reports, and the text behind them, are built only when
    condition 2 or 4 fails.
    """
    notes = []
    if negative_exposure_rate(p) < 0.0:
        notes.append("lambda_B < r*C_B: the condition2 bracket assumes a nonnegative "
                     "negative-exposure rate")
    if (check_condition2(p, prob.condition2_c)
            and check_condition4(p, math.exp(prob.grid.x_plus))):
        return notes
    return notes + [f"{rep.name} failed: {rep.detail}; the {_ADVISORY[rep.name]} argument "
                    "behind the scheme no longer applies"
                    for rep in prob.validity_checks()
                    if rep.name in _ADVISORY and not rep.passed]


def _check_monotone(grid: SpaceGrid, a: np.ndarray, b: np.ndarray, c: np.ndarray, delta,
                    rates: list[tuple[float, float, float]]) -> list[list[str]]:
    """The warnings of each row whose step is not monotone once the source
    is counted: a, b and c hold K rows of weights, delta is a (K, 1)
    column (a float when K is 1) and rates the K triples of source rates.

    a and c only go negative when the forward-differenced drift is negative
    and outruns the diffusion. The cost sink differences U forward, so where
    U_x > 0, as for a call, it moves delta*kappa/h_f off c, and
    c - delta*kappa/h_f < 0 exactly when sig_hat^2/(h_b + h_f) + drift < kappa. No sub-step count
    helps either case, because every term scales with the step. The
    sub-step count keeps b >= 0, but the exposure rates rho+ and rho- and
    the cost sink also weigh on V[i], and b - delta*(max(rho+, rho-, 0) +
    kappa/h_f) can still go negative.
    """
    top, cost = _columns([(max(pos, neg, 0.0), cost) for pos, neg, cost in rates])
    upper = c - delta * cost / grid.h[1:]
    centre = b - delta * (top + cost / grid.h[1:])
    # the common case: no weight negative (a NaN weight reads False here too)
    passed = np.minimum(np.minimum(a, c), np.minimum(upper, centre)).min(axis=1) >= 0.0
    return [[] if ok else _monotone_messages(grid, a[k], c[k], upper[k], centre[k])
            for k, ok in enumerate(passed.tolist())]


def _monotone_messages(grid: SpaceGrid, a: np.ndarray, c: np.ndarray, upper: np.ndarray,
                       centre: np.ndarray) -> list[str]:
    """One row's warnings: for each check, its first node with a
    negative weight and the first of its weights negative there. ``upper``
    is c - delta*kappa/h_f and ``centre`` b - delta*(max(rho+, rho-, 0) +
    kappa/h_f)."""
    messages = []
    for weights, consequence in (
            ({"a": a, "c": c}, ", so prices may leave their payoff's bounds; "
             "drift_discretization='upwind' keeps a and c nonnegative"),
            # NaN where c < 0, which the check above reports
            ({"c - delta*kappa/h_f": np.where(c >= 0.0, upper, np.nan)},
             ": the counterparty-bond cost sink kappa*|U_x| outweighs the upper neighbour's "
             "weight where U_x > 0, so a call price may turn negative"),
            ({"b - delta*(max(rho+, rho-, 0) + kappa/h_f)": centre},
             ": what the exposure rates and the cost sink take off the centre weight leaves "
             "it negative, so prices may overshoot; more time levels shrink the sub-step")):
        bad = np.flatnonzero(np.minimum.reduce(list(weights.values())) < 0.0)
        if bad.size:  # the first node, and the first of the weights negative there
            k = int(bad[0])
            name = next(n for n, w in weights.items() if w[k] < 0.0)
            messages.append(
                f"non-monotone explicit step: {name} = {weights[name][k]:.6g} < 0 at node "
                f"{k + 1} (S = {grid.spots[k + 1]:.6g}){consequence}")
    return messages


def plan(prob: Problem, substep: bool = True) -> Plan:
    """Check the problem and build everything its march needs, once: a
    ``Plan`` of one row.

    Splits each reporting step into ceil(dtau / stability_bound) equal
    sub-steps unless substep is False. Raises WellPosednessViolation when
    the variant-filtered parameters break condition 1. The one-member case
    of ``_plan_stack``.
    """
    out, _, findings, stack = _plan_stack([prob], substep)
    _warn(findings)
    solved(out[0])
    return stack


def _plan_stack(problems, substep: bool = True, ties=(),
                grids: dict[GridSpec, SpaceGrid] | None = None):
    """Check and plan the distinct members of a stack on one grid in one
    broadcast pass, and warn nothing.

    Members with equal ``_plan_key`` plan once. Each distinct member is
    checked alone, so one that breaks condition 1, or whose grid, walls or
    payoff cannot be built, fails alone; the walls and payoff are built
    after the condition checks that warn, as in a lone plan. Then one pass
    takes every member's stability bound and nsub; ``ties`` (tuples of
    member indices) raise tied members to the largest nsub among them,
    since a larger nsub only shrinks the sub-step; and a second pass builds
    the weights of every row, one per distinct (member, nsub) that marches,
    in member order, and checks each row's step for monotonicity once. Each
    element is computed as a lone plan computes it.

    Returns (out, rows, findings, stack): out[i] is member i's planning
    error or None, rows[i] the row of ``stack`` that member i marches on,
    or None, and findings[i] its warning texts: its condition warnings if
    it is a distinct member, then, if it is the first member to march its
    row, that row's monotone warnings, taken at the nsub the row marches.
    ``stack`` is None when no member marches. ``grids`` holds grids already
    built, by spec; the planner adds the one it builds.
    """
    grids = {} if grids is None else grids
    spec = problems[0].grid
    grid = grids.get(spec)
    many = len(problems) > 1
    out, rows = [None] * len(problems), [None] * len(problems)
    findings: list = [[] for _ in problems]
    heads: dict = {}  # plan key -> the member that plans it
    head_of = []
    checked: dict[int, _Member] = {}  # the members that passed their checks
    for i, prob in enumerate(problems):
        p = prob.effective_params()
        head = heads.setdefault(_plan_key(prob, p), i) if many else i
        head_of.append(head)
        if head != i:
            if out[head] is not None:
                out[i] = _duplicate(out[head])
            continue
        try:
            if grid is None:  # each distinct member tries, so each fails alone
                grid = grids[spec] = build_space_grid(spec)
                _counts.grids += 1
            sig2, drift = variance_and_drift(p)  # condition 1 raises here
            findings[i] = _advisories(prob, p)  # kept when the walls or payoff fail
            walls, start = boundary_curves(prob.instrument, grid, p), payoff(prob.instrument, grid)
        except EngineError as exc:
            out[i] = exc
            continue
        _counts.plans += 1
        checked[i] = _Member((sig2, drift, p.r), prob.drift_discretization == "forward"
                             or drift >= 0.0, source_rates(p), walls, start)
    _counts.members += len(problems)
    if not checked:
        return out, rows, findings, None

    dtau = spec.dtau if spec.n_time else 0.0
    own = dict.fromkeys(checked, 1)  # member -> its nsub alone
    if substep:
        bounds = _stability_bounds(grid, *_columns([m.scalars for m in checked.values()]))
        own = {i: max(1, math.ceil(dtau / bound)) if math.isfinite(bound) else 1
               for i, bound in zip(checked, bounds)}
    nsub = {i: own[h] for i, h in enumerate(head_of) if h in own}
    for tie in ties:
        tied = [i for i in tie if i in nsub]
        nsub.update(dict.fromkeys(tied, max((nsub[i] for i in tied), default=1)))

    layout: dict = {}  # (member, nsub) -> (row, the first member that marches it)
    for i, n in nsub.items():
        rows[i] = layout.setdefault((head_of[i], n), (len(layout), i))[0]
    members = [checked[h] for h, _ in layout]
    delta = [dtau / n for _, n in layout]
    sig2, drift, r, dt = _columns([m.scalars + (d,) for m, d in zip(members, delta)])
    forward = [m.forward for m in members]
    a, b, c = [w.reshape(len(members), -1) for w in _coefficients(
        grid, sig2, drift, r, dt, True if all(forward) else np.array(forward)[:, None])]
    rates = [m.rates for m in members]
    for (_, i), said in zip(layout.values(), _check_monotone(grid, a, b, c, dt, rates)):
        findings[i] += said
    return out, rows, findings, Plan(
        grid=grid, dtau=dtau, nsub=np.array([n for _, n in layout]), delta=np.array(delta),
        a=a, b=b, c=c, rates=np.array(rates), walls=np.array([m.walls for m in members]),
        start=np.array([m.start for m in members]))


def _warn(findings) -> None:
    """Emit each member's findings, in member order, as ModelAssumptionWarning
    located at the first caller outside the package."""
    messages = [message for said in findings for message in said]
    level, frame = 2, sys._getframe(1) if messages else None  # no walk with nothing to warn
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        level, frame = level + 1, frame.f_back
    for message in messages:
        warnings.warn(message, ModelAssumptionWarning, stacklevel=level)


def _has_source(rates) -> bool:
    """Whether a (pos, neg, cost) triple of source rates has a source.

    A zero-source row's three rates are all +0.0, tested on the bit
    pattern, so a -0.0 rate keeps its source. For finite rows that source is
    exactly +0 and subtracting it changes no bit, so the march skips it.
    """
    return bool(np.asarray(rates, dtype=float).view(np.int64).any())


def _march(st: Plan, rows: np.ndarray, first: int, last: int, keep: int | None) -> list:
    """March row r of ``st`` from ``rows[r]`` at level ``first`` to level
    ``last``, for every row.

    ``keep`` is the level to return, or None for every level from ``first``
    on. One outcome per row: its kept values, or the NonFiniteValue that
    stopped its march. The rows march in one call of ``_march.c``'s
    ``march_rows``, each in the order of operations of ``_march_numpy`` and
    without its source where its rates are all +0.0 (``_has_source``); the
    kernel checks finiteness after every sub-step and names each row's
    first non-finite node itself. Where the kernel cannot be built, the rows
    march one by one in ``_march_numpy``, which gives the same bits.
    """
    from . import _kernel  # built or loaded on the first march, not at import

    substeps = sum(st.nsub.tolist()) * (last - first)
    _counts.rows += len(st.nsub)
    _counts.substeps += substeps
    _counts.node_updates += substeps * st.a.shape[1]
    lib = _kernel.library()
    if lib is None:
        return [_march_numpy(st, r, row, first, last, keep) for r, row in enumerate(rows)]
    x = np.array(rows, dtype=float)
    n_rows, width = x.shape
    nsub = np.ascontiguousarray(st.nsub, dtype=np.int64)
    delta, a, b, c, h, rates, walls = (np.ascontiguousarray(v, dtype=float) for v in (
        st.delta, st.a, st.b, st.c, st.grid.h[1:], st.rates, st.walls))
    start, count = (first, last - first + 1) if keep is None else (keep, 1)
    if (nsub.shape != (n_rows,) or delta.shape != (n_rows,) or h.shape != (width - 2,)
            or a.shape != (n_rows, width - 2) or b.shape != a.shape or c.shape != a.shape
            or rates.shape != (n_rows, 3) or walls.shape != (n_rows, 2, 4)
            or not first <= start <= start + count - 1 <= last):
        raise ValueError("the rows, their weights, spacings, walls and levels do not fit")
    y, kept = np.empty(width), np.empty((n_rows, count, width))
    bad = np.empty(n_rows, dtype=np.int64)
    at = _kernel.address
    lib.march_rows(n_rows, width, at(nsub), first, last, st.dtau, at(delta), at(a), at(b),
                   at(c), at(h), at(rates), at(walls), at(x), at(y), at(kept), start, count,
                   at(bad))
    return [NonFiniteValue(*divmod(e, width)) if e >= 0 else kept[r] if keep is None
            else kept[r, 0] for r, e in enumerate(bad.tolist())]


def _march_numpy(st: Plan, r: int, row: np.ndarray, first: int, last: int, keep: int | None):
    """Row r of ``_march`` in numpy, one sub-step at a time: a*x[i-1] + b*x[i] +
    c*x[i+1], less the source times delta unless the row is zero-source
    (see ``_has_source``), then the walls of ``curve_values`` at the
    sub-step's tau, and a finiteness check that names the first non-finite
    node. Without the source, a zero-source row's error names the first
    node where the linear update itself overflows."""
    x, y = np.array(row, dtype=float), np.empty(len(row))
    a, b, c, walls = st.a[r], st.b[r], st.c[r], st.walls[r].tolist()
    nsub, delta, rates = int(st.nsub[r]), float(st.delta[r]), tuple(st.rates[r].tolist())
    has_source = _has_source(rates)
    record = range(first, last + 1) if keep is None else range(keep, keep + 1)
    kept = np.empty((len(record), len(x)))
    # non-finiteness is detected below; let an unstable march overflow quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(first, last + 1):
            if m in record:
                kept[m - record.start] = x
            if m == last:
                break
            # land the final sub-step of each level exactly on the reporting level
            taus = [m * st.dtau + j * delta for j in range(1, nsub)] + [(m + 1) * st.dtau]
            for lo, hi in zip(*curve_values(walls, taus)):
                y[1:-1] = a * x[:-2] + b * x[1:-1] + c * x[2:]
                if has_source:
                    y[1:-1] -= nonlinear_source(x, st.grid, rates) * delta
                y[0], y[-1] = lo, hi
                finite = np.isfinite(y)
                if not finite.all():
                    return NonFiniteValue(m, int(np.argmin(finite)))
                x, y = y, x
    return kept if keep is None else kept[0]


def solved(outcome):
    """One problem's outcome of ``solve_stack``, raised if it is an error."""
    if isinstance(outcome, EngineError):
        raise outcome
    return outcome


def step(row: np.ndarray, m: int, prob: Problem, substep: bool = True) -> np.ndarray:
    """Advance one reporting step, from tau_m to tau_{m+1}.

    One level of the same march ``solve`` runs. Raises NonFiniteValue at the
    first sub-step and node that stops being finite.
    """
    out, _, findings, stack = _plan_stack([prob], substep)
    _warn(findings)
    solved(out[0])
    return solved(_march(stack, np.array(row, dtype=float)[None], m, m + 1, m + 1)[0])


def solve(prob: Problem, substep: bool = True) -> Surface:
    """March the payoff from tau = 0 to tau = T and return every level.

    Raises WellPosednessViolation when the variant-filtered parameters break
    condition 1; conditions 2 and 4 and a negative lambda_B - r*C_B only
    emit ModelAssumptionWarning. A stack of one.
    """
    grids: dict[GridSpec, SpaceGrid] = {}
    values = solved(_solve_stack([prob], None, substep, grids=grids)[0])
    return Surface(values=values, grid=grids[prob.grid], taus=build_time_grid(prob.grid))


def solve_stack(problems, time_index: int | None = -1, substep: bool = True) -> list:
    """Solve many problems; one outcome per problem, in order.

    An outcome is the problem's row at level ``time_index`` (every level
    when it is None), or the EngineError that stopped that problem alone:
    a broken condition 1 at planning, or NonFiniteValue in the march.
    Problems that share a grid share its build; each marches alone, at its
    own nsub, except that problems that would plan and march to the same
    bits plan and march once, and each gets its own copy of the outcome.
    An index out of range for any problem's grid raises IndexError first.
    """
    return _solve_stack(problems, time_index, substep)


def _solve_stack(problems, time_index: int | None = -1, substep: bool = True,
                 ties=(), grids: dict[GridSpec, SpaceGrid] | None = None) -> list:
    """``solve_stack``, with ``ties``: tuples of member indices that march at
    the largest nsub among them, so a difference of two of them carries
    one time-truncation error; a tie joins members on one grid. ``grids``
    holds grids the caller has already built, by spec; the stack adds the
    ones it builds.

    The members are split by grid once. ``_plan_stack`` plans each grid's
    members before any of them marches; their findings are emitted in
    member order; then each grid's rows march in one ``_march``. Members
    that plan to one row (equal ``_plan_key`` and nsub) share its march;
    every member after the first gets its own copy of that outcome
    (``_duplicate``).
    """
    if time_index is not None and problems:  # before any planning and its warnings
        levels = min(prob.grid.n_time + 1 for prob in problems)
        if not -levels <= time_index < levels:
            raise IndexError(f"time_index {time_index} is out of range for a grid of "
                             f"{levels} levels")
    split: dict[GridSpec, list[int]] = {}
    for i, prob in enumerate(problems):
        split.setdefault(prob.grid, []).append(i)
    out, findings, planned = [None] * len(problems), [None] * len(problems), []
    for members in split.values():
        local = {i: k for k, i in enumerate(members)}
        got, rows, said, stack = _plan_stack([problems[i] for i in members], substep, [
            [local[i] for i in tie if i in local] for tie in ties], grids)
        for i, err, messages in zip(members, got, said):
            out[i], findings[i] = err, messages
        if stack is not None:
            planned.append((members, rows, stack))
    _warn(findings)
    for members, rows, stack in planned:
        n_time = problems[members[0]].grid.n_time
        outcomes = _march(stack, stack.start, 0, n_time,  # every row in one call
                          None if time_index is None else range(n_time + 1)[time_index])
        taken = set()
        for i, r in zip(members, rows):
            if r is not None:
                out[i] = _duplicate(outcomes[r]) if r in taken else outcomes[r]
                taken.add(r)
    return out


def _plan_key(prob: Problem, p: ModelParams | None = None) -> tuple:
    """What ``plan`` reads of a problem besides its grid: two problems on
    one grid with equal keys plan, and at one nsub march, to the same bits.
    ``p`` may pass in the problem's variant-filtered parameters.

    Of the variant-filtered parameters, the plan reads r, q_S, gamma_S,
    sigma, dt and C_S, and the others only through the three source rates,
    so the RiskFree twins of a lambda_C, R_C or C_S sweep share one key.
    These, condition2_c and the strike count by their bits and types, so a
    -0.0 rate never merges with a +0.0 one. The instrument counts by value:
    its kind, its strike and a custom payoff's float64 bytes and shape, so
    equal instruments built apart share a key.
    """
    p = prob.effective_params() if p is None else p
    inst = prob.instrument
    values = (p.r, p.q_S, p.gamma_S, p.sigma, p.dt, p.C_S, *source_rates(p), prob.condition2_c,
              inst.strike)
    custom = inst.custom_payoff
    if custom is not None:
        custom = np.asarray(custom, dtype=float)
        custom = custom.tobytes(), custom.shape
    return (np.array(values, dtype=float).tobytes(), tuple(map(type, values)), inst.kind,
            custom, prob.drift_discretization)


def _duplicate(outcome):
    """A copy of one member's outcome for its duplicate: the rows, or an
    error of the same type and message."""
    return copy.copy(outcome) if isinstance(outcome, EngineError) else outcome.copy()
