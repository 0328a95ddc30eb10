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

A solve has two parts. ``plan`` does everything that does not change with
tau once: the condition checks and warnings, the grid, the sub-step count
and size, the weights (a, b, c), the three source rates and the wall
curves. The march then only does arithmetic, one row at a time: ``solve``
marches one problem, ``solve_stack`` and ``solve_pairs`` many, sharing
their grid builds. Members of a stack that would plan to the same bits
(the RiskFree twins of a credit or cost sweep) plan once and, at one
nsub, march once.

The march is a compiled C kernel (``_march.c``, built on first use and
loaded with ctypes; see ``_kernel``): one call marches one row through
every sub-step of every level, with the walls and a finiteness check after
every sub-step, so its NonFiniteValue names the first non-finite sub-step
and node directly. Where no compiler is found, ``_march_numpy`` runs the
same march in numpy, one sub-step at a time. It is also the reference the
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
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_rows
from .errors import EngineError, ModelAssumptionWarning, NonFiniteValue
from .grid import GridSpec, SpaceGrid, build_space_grid, build_time_grid, stability_bound
from .instrument import Instrument, boundary_curves, curve_values, payoff
from .model import (
    ConditionReport,
    ModelParams,
    ModelVariant,
    check_condition2,
    check_condition4,
    cpty_cost_rate,
    modified_variance,
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
    diff = 0.5 * sig2 * dtau
    hf = grid.h[1:]   # forward spacing at interior nodes
    hb = grid.h[:-1]  # backward spacing
    a = diff * grid.h_minus
    c = diff * grid.h_plus
    b = 1.0 - diff * (grid.h_plus + grid.h_minus) - p.r * dtau
    if drift_discretization == "forward" or drift >= 0.0:
        adv = dtau * drift / hf
        c = c + adv
        b = b - adv
    else:
        adv = dtau * (-drift) / hb
        a = a + adv
        b = b - adv
    return a, b, c


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


def _check_conditions(prob: Problem, p: ModelParams) -> None:
    """Condition 1 raises; conditions 2 and 4 and lambda_B < r*C_B only warn.

    The condition reports, and the text behind them, are built only when
    condition 2 or 4 fails.
    """
    modified_variance(p)  # condition 1, hard
    if negative_exposure_rate(p) < 0.0:
        warnings.warn(
            "lambda_B < r*C_B: the condition2 bracket assumes a nonnegative "
            "negative-exposure rate", ModelAssumptionWarning, stacklevel=3)
    if (check_condition2(p, prob.condition2_c)
            and check_condition4(p, math.exp(prob.grid.x_plus))):
        return
    for rep in prob.validity_checks():
        if rep.name in _ADVISORY and not rep.passed:
            warnings.warn(
                f"{rep.name} failed: {rep.detail}; the {_ADVISORY[rep.name]} argument "
                "behind the scheme no longer applies", ModelAssumptionWarning, stacklevel=3)


def _check_monotone(grid: SpaceGrid, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                    delta: float, rates: tuple[float, float, float]) -> None:
    """Warn when a weight is negative once the source is counted: the step
    is then not monotone.

    a and c only go negative when the forward-differenced drift is negative
    and outruns the diffusion. The cost sink differences U forward, so where
    U_x > 0, as for a call, it moves delta*kappa/h_f off c, and
    c - delta*kappa/h_f < 0 exactly when sig_hat^2/(h_b + h_f) + drift < kappa. No sub-step count
    helps either case, because every term scales with the step. The
    sub-step count keeps b >= 0, but the exposure rates rho+ and rho- and
    the cost sink also weigh on V[i], and b - delta*(max(rho+, rho-, 0) +
    kappa/h_f) can still go negative.
    """
    sink = delta * rates[2] / grid.h[1:]
    centre = b - delta * (max(rates[0], rates[1], 0.0) + rates[2] / grid.h[1:])
    # the common case: no weight negative (a NaN weight reads False here too)
    if all(w.min() >= 0.0 for w in (a, c, c - sink, centre)):
        return
    for weights, consequence in (
            ({"a": a, "c": c}, ", so prices may leave their payoff's bounds; "
             "drift_discretization='upwind' keeps a and c nonnegative"),
            # NaN where c < 0, which the check above reports
            ({"c - delta*kappa/h_f": np.where(c >= 0.0, c - sink, np.nan)},
             ": the counterparty-bond cost sink kappa*|U_x| outweighs the upper neighbour's "
             "weight where U_x > 0, so a call price may turn negative"),
            ({"b - delta*(max(rho+, rho-, 0) + kappa/h_f)": centre},
             ": what the exposure rates and the cost sink take off the centre weight leaves "
             "it negative, so prices may overshoot; more time levels shrink the sub-step")):
        bad = np.flatnonzero(np.minimum.reduce(list(weights.values())) < 0.0)
        if bad.size:  # the first node, and the first of the weights negative there
            k = int(bad[0])
            name = next(n for n, w in weights.items() if w[k] < 0.0)
            warnings.warn(
                f"non-monotone explicit step: {name} = {weights[name][k]:.6g} < 0 at node "
                f"{k + 1} (S = {grid.spots[k + 1]:.6g}){consequence}",
                ModelAssumptionWarning, stacklevel=3)


def plan(prob: Problem, substep: bool = True, grid: SpaceGrid | None = None) -> Plan:
    """Check the problem and build everything its march needs, once.

    Splits each reporting step into ceil(dtau / stability_bound) equal
    sub-steps unless substep is False. ``grid`` may pass in the already
    built grid of ``prob.grid``. Raises WellPosednessViolation when the
    variant-filtered parameters break condition 1.
    """
    p = prob.effective_params()
    _check_conditions(prob, p)
    if grid is None:
        grid = build_space_grid(prob.grid)
    dtau = prob.grid.dtau if prob.grid.n_time else 0.0
    nsub = 1
    if substep:
        bound = stability_bound(grid, p)
        if math.isfinite(bound):
            nsub = max(1, math.ceil(dtau / bound))
    delta = dtau / nsub
    a, b, c = step_coefficients(grid, p, delta, prob.drift_discretization)
    rates = source_rates(p)
    _check_monotone(grid, a, b, c, delta, rates)
    return Plan(grid=grid, dtau=dtau, nsub=nsub, delta=delta, a=a, b=b, c=c, rates=rates,
                walls=boundary_curves(prob.instrument, grid, p),
                start=payoff(prob.instrument, grid))


def _at_nsub(pl: Plan, prob: Problem, nsub: int) -> Plan:
    """The plan of ``prob`` with its levels split into ``nsub`` sub-steps."""
    delta = pl.dtau / nsub
    a, b, c = step_coefficients(pl.grid, prob.effective_params(), delta,
                                prob.drift_discretization)
    return replace(pl, nsub=nsub, delta=delta, a=a, b=b, c=c)


def _has_source(rates) -> bool:
    """Whether a (pos, neg, cost) triple of source rates has a source.

    A zero-source row's three rates are all +0.0, tested on the bit
    pattern, so a -0.0 rate keeps its source. For finite rows that source is
    exactly +0 and subtracting it changes no bit, so the march skips it.
    """
    return bool(np.asarray(rates, dtype=float).view(np.int64).any())


def _march(pl: Plan, row: np.ndarray, first: int, last: int, keep: int | None):
    """March one row from level ``first`` to level ``last``.

    ``keep`` is the level to return, or None for every level from ``first``
    on. The outcome is the kept values, or the NonFiniteValue that stopped
    the march. The row marches in the compiled kernel; where that cannot be
    built, in numpy (``_march_numpy``), which gives the same bits.
    """
    from . import _kernel  # built or loaded on the first march, not at import

    lib = _kernel.library()
    if lib is None:
        return _march_numpy(pl, row, first, last, keep)
    return _march_row(lib, pl, row, first, last, keep)


def _march_row(lib, pl: Plan, row: np.ndarray, first: int, last: int, keep: int | None):
    """One row's march in ``_march.c``, one call for every sub-step of every
    level, in the order of operations of ``_march_numpy``; the kernel
    checks finiteness after every sub-step and names the first non-finite
    node itself."""
    width = len(row)
    x, y = np.array(row, dtype=float), np.empty(width)
    a, b, c, h = (np.ascontiguousarray(v, dtype=float)
                  for v in (pl.a, pl.b, pl.c, pl.grid.h[1:]))
    walls = np.array(pl.walls, dtype=float)
    start, count = (first, last - first + 1) if keep is None else (keep, 1)
    if (x.shape != (width,) or walls.shape != (2, 4)
            or any(v.shape != (width - 2,) for v in (a, b, c, h))
            or not first <= start <= start + count - 1 <= last):
        raise ValueError("the row, its weights, spacings, walls and levels do not fit")
    kept = np.empty((count, width))
    bad = lib.march_row(width, pl.nsub, first, last, pl.dtau, pl.delta, a.ctypes.data,
                        b.ctypes.data, c.ctypes.data, h.ctypes.data, *pl.rates,
                        _has_source(pl.rates), walls.ctypes.data, x.ctypes.data,
                        y.ctypes.data, kept.ctypes.data, start, count)
    if bad >= 0:
        return NonFiniteValue(*divmod(bad, width))
    return kept if keep is None else kept[0]


def _march_numpy(pl: Plan, row: np.ndarray, first: int, last: int, keep: int | None):
    """``_march`` in numpy, one sub-step at a time: a*x[i-1] + b*x[i] +
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
    return solved(_march(plan(prob, substep), row, m, m + 1, m + 1))


def solve(prob: Problem, substep: bool = True) -> Surface:
    """March the payoff from tau = 0 to tau = T and return every level.

    Raises WellPosednessViolation when the variant-filtered parameters break
    condition 1; conditions 2 and 4 and a negative lambda_B - r*C_B only
    emit ModelAssumptionWarning.
    """
    pl = plan(prob, substep)
    values = solved(_march(pl, pl.start, 0, prob.grid.n_time, None))
    return Surface(values=values, grid=pl.grid, taus=build_time_grid(prob.grid))


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
    one time-truncation error. A larger nsub only shrinks the sub-step.
    ``grids`` holds grids the caller has already built, by spec; the stack
    adds the ones it builds.

    Members with equal ``_plan_key`` plan once, and march once where they
    also march at the same nsub; every other member of such a group gets
    its own copy of that outcome (``_duplicate``).
    """
    if time_index is not None and problems:  # before any planning and its warnings
        levels = min(prob.grid.n_time + 1 for prob in problems)
        if not -levels <= time_index < levels:
            raise IndexError(f"time_index {time_index} is out of range for a grid of "
                             f"{levels} levels")
    out: list = [None] * len(problems)
    grids = {} if grids is None else grids
    keys = [_plan_key(prob) for prob in problems]
    planned: dict[tuple, int] = {}  # plan key -> the member that planned it
    plans: dict[int, Plan] = {}
    for i, prob in enumerate(problems):
        first = planned.setdefault(keys[i], i)
        if first in plans:
            plans[i] = plans[first]
        elif first != i:
            out[i] = _duplicate(out[first])
        else:
            try:
                if prob.grid not in grids:
                    grids[prob.grid] = build_space_grid(prob.grid)
                plans[i] = plan(prob, substep, grids[prob.grid])
            except EngineError as exc:
                out[i] = exc
    for tie in ties:
        tied = [i for i in tie if i in plans]
        nsub = max((plans[i].nsub for i in tied), default=1)
        for i in tied:
            if plans[i].nsub < nsub:
                plans[i] = _at_nsub(plans[i], problems[i], nsub)
    marched: dict[tuple, int] = {}  # (plan key, nsub) -> the member that marched it
    for i, pl in plans.items():
        first = marched.setdefault((keys[i], pl.nsub), i)
        if first != i:
            out[i] = _duplicate(out[first])
            continue
        n_time = problems[i].grid.n_time
        keep = None if time_index is None else range(n_time + 1)[time_index]
        out[i] = _march(pl, pl.start, 0, n_time, keep)
    return out


def _plan_key(prob: Problem) -> tuple:
    """What ``plan`` reads of a problem: two problems with equal keys plan,
    and at one nsub march, to the same bits.

    Of the variant-filtered parameters, the plan reads r, q_S, gamma_S,
    sigma, dt and C_S, and the others only through the three source rates,
    so the RiskFree twins of a lambda_C, R_C or C_S sweep share one key.
    These, condition2_c and the strike count by their bits and types, so a
    -0.0 rate never merges with a +0.0 one. The instrument counts by value:
    its kind, its strike and a custom payoff's float64 bytes and shape, so
    equal instruments built apart share a key.
    """
    p = prob.effective_params()
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
