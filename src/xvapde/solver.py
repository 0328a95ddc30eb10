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
tau once: the condition checks and warnings, the grid, the sub-step count
and size, the weights (a, b, c), the three source rates and the wall
curves. The march then only does arithmetic. Every solve is a stack:
``solve`` is a stack of one, ``solve_stack`` and ``solve_pairs`` take
many. ``_plan_stack`` plans all the distinct members of a stack that share
a grid in one pass of column-broadcast numpy, one row per member, with
each element computed as a lone plan computes it; ``plan`` is its
one-member case. Members that would plan to the same bits (the RiskFree
twins of a credit or cost sweep) plan once and, at one nsub, march once.

The march is a compiled C kernel (``_march.c``, built on first use and
loaded with ctypes; see ``_kernel``): one call marches every row of a
stack on one grid, each through every sub-step of every level, with the
walls and a finiteness check after every sub-step, so a row's
NonFiniteValue names its first non-finite sub-step and node directly.
Where no compiler is found, ``_march_numpy`` runs the same march in
numpy, one row and one sub-step at a time. It is also the reference the
kernel is tested against, bit for bit: the kernel keeps its order of
operations, and its walls call the libm ``exp`` that ``math.exp`` calls.

A zero-source row, one whose three source rates are all +0.0 (tested on
the bit pattern, so a -0.0 rate keeps its source), marches the linear
update alone: on finite rows its source is exactly +0 and v - (+0) = v,
so no bit moves. Every RiskFree row is one. In a blow-up, a zero-source
row's NonFiniteValue names the first node where the linear update itself
overflows, not where 0*inf would first have turned NaN.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvio import write_rows
from .errors import EngineError, MissingPayoff, ModelAssumptionWarning, NonFiniteValue
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
           "nonlinear_source", "step", "solve", "solve_stack", "solve_pairs", "solved"]

DRIFT_MODES = ("forward", "upwind")
# the conditions a solve only warns on, with the argument each one backs
_ADVISORY = {"condition2": "contraction", "condition4": "comparison"}


@dataclass(frozen=True)
class Problem:
    """A full pricing scenario.

    condition1 is enforced on the variant-filtered parameters when the solve
    starts; conditions 2 and 4 only warn. condition2_c is the contraction
    constant the caller wants condition 2 checked with.
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


@dataclass(frozen=True, eq=False)
class Plan:
    """What a march of one problem needs that does not change with tau.

    ``walls`` holds the (lower, upper) Dirichlet curves of
    ``boundary_curves``, each as the (P, p, Q, q) of P*exp(p*tau) -
    Q*exp(q*tau); ``start`` is the payoff row at tau = 0.
    """

    grid: SpaceGrid
    dtau: float
    nsub: int
    delta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rates: tuple[float, float, float]
    walls: tuple
    start: np.ndarray


class _Stack(NamedTuple):
    """The plans of the R rows of a stack on one grid: row r holds what a
    ``Plan`` holds, with nsub and delta (R,), the weights a, b and c
    (R, N-1), the rates (R, 3), the walls (R, 2, 4) and the start rows
    (R, N+1)."""

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

    def plan(self, r: int) -> Plan:
        """Row r as a ``Plan``, its rates and walls as Python floats."""
        lower, upper = self.walls[r].tolist()
        return Plan(grid=self.grid, dtau=self.dtau, nsub=int(self.nsub[r]),
                    delta=float(self.delta[r]), a=self.a[r], b=self.b[r], c=self.c[r],
                    rates=tuple(self.rates[r].tolist()), walls=(tuple(lower), tuple(upper)),
                    start=self.start[r])


class _Group:
    """The distinct members of a stack on one grid while they are planned:
    ``rows`` maps each row they march or check on, a (member, nsub), to its
    index."""

    __slots__ = ("grid", "dtau", "members", "rows", "stack")

    def __init__(self, grid: SpaceGrid, dtau: float):
        self.grid, self.dtau, self.members, self.rows = grid, dtau, [], {}
        self.stack = None  # the index of its _Stack, once built


class _Member(NamedTuple):
    """What the plan of one distinct member of a stack reads, once its
    checks pass: walls and start are None when its payoff failed."""

    index: int
    scalars: tuple[float, float, float]  # sig2, drift, r
    forward: bool  # whether its drift is differenced forward
    rates: tuple[float, float, float]
    walls: tuple | None
    start: np.ndarray | None
    advisories: list[str]


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
    """The warnings of each member whose step is not monotone once the
    source is counted: a, b and c hold K rows of weights, delta is a (K, 1)
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
    """One member's warnings: for each check, its first node with a
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


def plan(prob: Problem, substep: bool = True, grid: SpaceGrid | None = None) -> Plan:
    """Check the problem and build everything its march needs, once.

    Splits each reporting step into ceil(dtau / stability_bound) equal
    sub-steps unless substep is False. ``grid`` may pass in the already
    built grid of ``prob.grid``. Raises WellPosednessViolation when the
    variant-filtered parameters break condition 1. The one-member case of
    ``_plan_stack``.
    """
    return _plan_one(prob, substep, None if grid is None else {prob.grid: grid}).plan(0)


def _plan_one(prob: Problem, substep: bool = True, grids=None) -> _Stack:
    """The one-row stack of ``prob``, or the error that stopped its plan."""
    out, _, stacks = _plan_stack([prob], substep, (), grids)
    return stacks[0] if out[0] is None else solved(out[0])


def _plan_stack(problems, substep: bool = True, ties=(),
                grids: dict[GridSpec, SpaceGrid] | None = None):
    """Check and plan the distinct members of a stack, each grid's members
    in one broadcast pass.

    Members with equal ``_plan_key`` plan once. Each distinct member is
    checked alone, so one that breaks condition 1, or whose grid or payoff
    cannot be built, fails alone. Then, grid by grid, one pass takes every
    member's stability bound and nsub; ``ties`` (tuples of member indices)
    raise tied members to the largest nsub among them, since a larger nsub
    only shrinks the sub-step; and a second pass builds the weights and
    the monotone check of every distinct (member, nsub) row. Each element
    is computed as a lone plan computes it. The warnings come last, member
    by member in stack order: each member's condition warnings, then its
    monotone ones, taken at its own nsub as its lone plan takes them.

    Returns (out, rows, stacks): out[i] is member i's planning error or
    None, stacks the ``_Stack`` of the rows on each grid, and rows[i] the
    (stack, row) indices that member i marches on, or None. ``grids`` holds
    grids already built, by spec; the planner adds the ones it builds.
    """
    grids = {} if grids is None else grids
    many = len(problems) > 1
    out: list = [None] * len(problems)
    heads: dict = {}  # plan key -> the member that plans it
    head_of = []
    groups: dict[SpaceGrid, _Group] = {}  # by grid object, which hashes faster than its spec
    group_of: dict[int, _Group] = {}  # the group of each member that passed its checks
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
            grid = grids.get(prob.grid)
            if grid is None:
                grid = grids[prob.grid] = build_space_grid(prob.grid)
                _counts.grids += 1
            sig2, drift = variance_and_drift(p)  # condition 1 raises here
        except EngineError as exc:
            out[i] = exc
            continue
        group = groups.get(grid)
        if group is None:
            group = groups[grid] = _Group(grid, prob.grid.dtau if prob.grid.n_time else 0.0)
        advisories = _advisories(prob, p)
        try:
            walls, start = boundary_curves(prob.instrument, grid, p), payoff(prob.instrument, grid)
            _counts.plans += 1
        except MissingPayoff as exc:  # after the checks that warn, as in a lone plan
            out[i] = exc
            walls = start = None
        checked[i] = m = _Member(i, (sig2, drift, p.r),
                                 prob.drift_discretization == "forward" or drift >= 0.0,
                                 source_rates(p), walls, start, advisories)
        group.members.append(m)
        group_of[i] = group
    _counts.members += len(problems)

    own = {}  # member -> its nsub alone
    for group in groups.values():
        if not substep:
            own.update((m.index, 1) for m in group.members)
            continue
        bounds = _stability_bounds(group.grid, *_columns([m.scalars for m in group.members]))
        for m, bound in zip(group.members, bounds):
            own[m.index] = max(1, math.ceil(group.dtau / bound)) if math.isfinite(bound) else 1
    nsub = {i: own[h] for i, h in enumerate(head_of) if h in own and out[h] is None}
    for tie in ties:
        tied = [i for i in tie if i in nsub]
        top = max((nsub[i] for i in tied), default=1)
        for i in tied:
            nsub[i] = top

    # each grid's rows: the marched ones in member order, then any that only
    # a monotone check at a member's own nsub needs
    rows: list = [None] * len(problems)
    for i, n in nsub.items():
        layout = group_of[head_of[i]].rows
        rows[i] = layout.setdefault((head_of[i], n), len(layout))
    stacks, monotone = [], {}
    for group in groups.values():
        layout = group.rows
        marched = len(layout)
        for m in group.members:
            layout.setdefault((m.index, own[m.index]), len(layout))
        members = [checked[h] for h, _ in layout]
        delta = [group.dtau / n for _, n in layout]
        sig2, drift, r, dt = _columns([m.scalars + (d,) for m, d in zip(members, delta)])
        forward = [m.forward for m in members]
        a, b, c = [w.reshape(len(members), -1) for w in _coefficients(
            group.grid, sig2, drift, r, dt, True if all(forward) else np.array(forward)[:, None])]
        rates = [m.rates for m in members]
        weights = (a, b, c, dt, rates)
        if len(layout) != len(group.members):  # check each member at its own nsub
            check = [layout[m.index, own[m.index]] for m in group.members]
            weights = (a[check], b[check], c[check], dt[check], [rates[k] for k in check])
        monotone.update(zip([m.index for m in group.members],
                            _check_monotone(group.grid, *weights)))
        if marched:
            members = members[:marched]
            group.stack = len(stacks)
            stacks.append(_Stack(
                grid=group.grid, dtau=group.dtau, nsub=np.array([n for _, n in layout][:marched]),
                delta=np.array(delta[:marched]), a=a[:marched], b=b[:marched], c=c[:marched],
                rates=np.array(rates[:marched]), walls=np.array([m.walls for m in members]),
                start=np.array([m.start for m in members])))
    for i in nsub:
        rows[i] = group_of[head_of[i]].stack, rows[i]
    for m in checked.values():
        for message in m.advisories + monotone[m.index]:
            warnings.warn(message, ModelAssumptionWarning, stacklevel=3)
    return out, rows, stacks


def _has_source(rates) -> bool:
    """Whether a (pos, neg, cost) triple of source rates has a source.

    A zero-source row's three rates are all +0.0, tested on the bit
    pattern, so a -0.0 rate keeps its source. For finite rows that source is
    exactly +0 and subtracting it changes no bit, so the march skips it.
    """
    return bool(np.asarray(rates, dtype=float).view(np.int64).any())


def _march(st: _Stack, rows: np.ndarray, first: int, last: int, keep: int | None) -> list:
    """March row r of ``st`` from ``rows[r]`` at level ``first`` to level
    ``last``, for every row.

    ``keep`` is the level to return, or None for every level from ``first``
    on. One outcome per row: its kept values, or the NonFiniteValue that
    stopped its march. The rows march in one call of the compiled kernel;
    where that cannot be built, one by one in numpy (``_march_numpy``),
    which gives the same bits.
    """
    from . import _kernel  # built or loaded on the first march, not at import

    substeps = sum(st.nsub.tolist()) * (last - first)
    _counts.rows += len(st.nsub)
    _counts.substeps += substeps
    _counts.node_updates += substeps * st.a.shape[1]
    lib = _kernel.library()
    if lib is None:
        return [_march_numpy(st.plan(r), row, first, last, keep) for r, row in enumerate(rows)]
    return _march_rows(lib, st, rows, first, last, keep)


def _march_rows(lib, st: _Stack, rows: np.ndarray, first: int, last: int, keep: int | None):
    """Every row's march in one call of ``_march.c``'s ``march_rows``, each
    row in the order of operations of ``_march_numpy``, and without its
    source where its rates are all +0.0, the rule of ``_has_source``; the
    kernel checks finiteness after every sub-step and names each row's
    first non-finite node itself."""
    from . import _kernel

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


def _march_numpy(pl: Plan, row: np.ndarray, first: int, last: int, keep: int | None):
    """One row of ``_march`` in numpy, one sub-step at a time: a*x[i-1] + b*x[i] +
    c*x[i+1], less the source times delta unless the row is zero-source
    (see ``_has_source``), then the walls of ``curve_values`` at the
    sub-step's tau, and a finiteness check that names the first non-finite
    node. Without the source, a zero-source row's error names the first
    node where the linear update itself overflows."""
    x, y = np.array(row, dtype=float), np.empty(len(row))
    has_source = _has_source(pl.rates)
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
            taus = [m * pl.dtau + j * pl.delta for j in range(1, pl.nsub)] + [(m + 1) * pl.dtau]
            for lo, hi in zip(*curve_values(pl.walls, taus)):
                y[1:-1] = pl.a * x[:-2] + pl.b * x[1:-1] + pl.c * x[2:]
                if has_source:
                    y[1:-1] -= nonlinear_source(x, pl.grid, pl.rates) * pl.delta
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
    rows = np.array(row, dtype=float)[None]
    return solved(_march(_plan_one(prob, substep), rows, m, m + 1, m + 1)[0])


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
    one time-truncation error. ``grids`` holds grids the caller has already
    built, by spec; the stack adds the ones it builds.

    ``_plan_stack`` plans the stack, and each grid's rows march in one
    ``_march``. Members that plan to one row (equal ``_plan_key`` and
    nsub) share its march; every member after the first gets its own copy
    of that outcome (``_duplicate``).
    """
    if time_index is not None and problems:  # before any planning and its warnings
        levels = min(prob.grid.n_time + 1 for prob in problems)
        if not -levels <= time_index < levels:
            raise IndexError(f"time_index {time_index} is out of range for a grid of "
                             f"{levels} levels")
    out, rows, stacks = _plan_stack(problems, substep, ties, grids)
    outcomes: list = [None] * len(stacks)
    taken = set()
    for i, row in enumerate(rows):
        if row is None:
            continue
        k, r = row
        if outcomes[k] is None:  # all the rows on one grid march in one call
            n_time = problems[i].grid.n_time
            keep = None if time_index is None else range(n_time + 1)[time_index]
            outcomes[k] = _march(stacks[k], stacks[k].start, 0, n_time, keep)
        out[i] = _duplicate(outcomes[k][r]) if row in taken else outcomes[k][r]
        taken.add(row)
    return out


def _plan_key(prob: Problem, p: ModelParams | None = None) -> tuple:
    """What ``plan`` reads of a problem: two problems with equal keys plan,
    and at one nsub march, to the same bits. ``p`` may pass in the
    problem's variant-filtered parameters.

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
    return (np.array(values, dtype=float).tobytes(), tuple(map(type, values)), prob.grid,
            inst.kind, custom, prob.drift_discretization)


def _duplicate(outcome):
    """A copy of one member's outcome for its duplicate: the rows, or an
    error of the same type and message."""
    return copy.copy(outcome) if isinstance(outcome, EngineError) else outcome.copy()


def solve_pairs(pairs) -> list:
    """Solve every (first, second) pair of variants, then subtract.

    One outcome per pair: the terminal rows (first, second, first - second),
    or the error of the first member that failed.
    """
    return _solve_pairs(pairs)


def _solve_pairs(pairs, grids: dict[GridSpec, SpaceGrid] | None = None) -> list:
    """``solve_pairs``, with the ``grids`` of ``_solve_stack``."""
    rows = _solve_stack([prob for pair in pairs for prob in pair], grids=grids)
    out = []
    for first, second in zip(rows[::2], rows[1::2]):
        failed = [r for r in (first, second) if isinstance(r, EngineError)]
        out.append(failed[0] if failed else (first, second, first - second))
    return out
