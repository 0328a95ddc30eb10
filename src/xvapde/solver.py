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

Whenever the reporting step exceeds the monotonicity bound of the grid, the
step is split into equal sub-steps automatically; passing substep=False
disables the guard (useful only to demonstrate the blow-up).

A solve has two parts. ``plan`` does everything that does not change with
tau once: the condition checks and warnings, the grid, the sub-step count
and size, the weights (a, b, c), the three source rates and the wall
curves. The march then only does arithmetic, on a (members x nodes) stack:
``solve`` marches a stack of one, ``solve_stack`` and ``solve_pairs`` march
many variants together. Members share a stack when they share a grid, and
each keeps its own nsub: the stack is ordered by nsub, largest first, and
sub-step j of a level updates only the rows whose nsub exceeds j. So a
level costs the largest nsub in sub-step calls, and each member's numbers
are exactly those of its lone solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .csvio import fmt, write_rows
from .errors import EngineError, ModelAssumptionWarning, NonFiniteValue
from .grid import GridSpec, SpaceGrid, build_space_grid, build_time_grid, stability_bound
from .instrument import BOUNDARY_MODES, Instrument, boundary_curves, payoff
from .model import (
    ModelParams,
    ModelVariant,
    check_condition2,
    check_condition4,
    condition2_value,
    cpty_cost_rate,
    modified_variance,
    negative_exposure_rate,
    positive_exposure_rate,
)

__all__ = ["Problem", "Surface", "Plan", "plan", "step_coefficients", "source_rates",
           "nonlinear_source", "step", "solve", "solve_stack", "solve_pairs", "solved"]

DRIFT_MODES = ("forward", "upwind")
_WALL_BLOCK = 512  # sub-steps of wall data made at once


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
    boundary_mode: str = "model_consistent"
    drift_discretization: str = "forward"
    condition2_c: float = 1.0

    def __post_init__(self):
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        if self.drift_discretization not in DRIFT_MODES:
            raise ValueError(f"drift_discretization must be one of {DRIFT_MODES}")

    def effective_params(self) -> ModelParams:
        return self.variant.apply(self.params)


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

    def value_near_spot(self, spot: float, time_index: int = -1) -> tuple[float, float]:
        """(node spot, value) at the node nearest the given spot."""
        i = self.grid.nearest_index(math.log(spot))
        return float(self.grid.spots[i]), float(self.values[time_index, i])

    def to_csv(self, path) -> None:
        """Two header rows (x_i, then S_i), one data row per tau level."""
        rows = [["x"] + [fmt(x) for x in self.grid.nodes],
                ["S"] + [fmt(s) for s in self.grid.spots]]
        for m, tau in enumerate(self.taus):
            rows.append([fmt(tau)] + [fmt(v) for v in self.values[m]])
        write_rows(path, rows)


def step_coefficients(grid: SpaceGrid, p: ModelParams, dtau: float,
                      drift_discretization: str = "forward"):
    """Interior update weights (a, b, c) for one explicit step of size dtau.

    a multiplies V[i-1], b multiplies V[i], c multiplies V[i+1];
    a + b + c = 1 - r*dtau identically. The upwind option differences the
    drift toward its inflow side so a and c stay nonnegative for any sign
    of the drift.
    """
    sig2 = modified_variance(p)
    drift = p.q_S - p.gamma_S - 0.5 * sig2
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


def nonlinear_source(rows: np.ndarray, grid: SpaceGrid, p) -> np.ndarray:
    """Funding/credit/cost source at the interior nodes for the given row(s).

    ``rows`` is one row or a (members x nodes) stack. ``p`` is the
    variant-filtered ModelParams of a row, or the three ``source_rates``,
    as scalars or as (members x 1) columns for a stack. The cost sink
    differences the positive part forward, matching the upper-wall side
    where a call's exposure lives.
    """
    pos_rate, neg_rate, cost_rate = source_rates(p) if isinstance(p, ModelParams) else p
    pos = np.maximum(rows, 0.0)
    # pos_rate*U + neg_rate*min(V, 0) + cost_rate*|U_x|, summed in that
    # order, with the temporaries reused in place
    slope = pos[..., 2:] - pos[..., 1:-1]
    slope /= grid.h[1:]
    np.abs(slope, out=slope)
    slope *= cost_rate
    neg = np.minimum(rows[..., 1:-1], 0.0)
    neg *= neg_rate
    out = pos_rate * pos[..., 1:-1]
    out += neg
    out += slope
    return out


@dataclass(frozen=True, eq=False)
class Plan:
    """What a march of one problem needs that does not change with tau.

    ``walls(taus)`` gives the (lower, upper) Dirichlet data at the given
    taus; ``start`` is the payoff row at tau = 0.
    """

    grid: SpaceGrid
    dtau: float
    nsub: int
    delta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rates: tuple[float, float, float]
    walls: Callable
    start: np.ndarray


def _check_conditions(prob: Problem, p: ModelParams) -> None:
    """Condition 1 raises; conditions 2 and 4 and lambda_B < r*C_B only warn."""
    modified_variance(p)  # condition 1, hard
    if negative_exposure_rate(p) < 0.0:
        warnings.warn(
            "lambda_B < r*C_B: the condition2 bracket assumes a nonnegative "
            "negative-exposure rate", ModelAssumptionWarning, stacklevel=3)
    if not check_condition2(p, prob.condition2_c):
        warnings.warn(
            f"condition2 failed: c * bracket = "
            f"{prob.condition2_c * condition2_value(p):.6g} >= 1; the "
            "contraction argument behind the scheme no longer applies",
            ModelAssumptionWarning, stacklevel=3)
    if not check_condition4(p, float(math.exp(prob.grid.x_plus))):
        warnings.warn(
            "condition4 failed: q_S - gamma_S exceeds the effective discount "
            "bound; the comparison argument behind the scheme no longer applies",
            ModelAssumptionWarning, stacklevel=3)


def _check_monotone(grid: SpaceGrid, a: np.ndarray, c: np.ndarray) -> None:
    """Warn when a neighbour weight is negative: the step is then not monotone.

    The sub-step count keeps b >= 0. a and c only go negative when the
    forward-differenced drift is negative and outruns the diffusion, and no
    sub-step count helps, because both scale with the step.
    """
    bad = np.flatnonzero(np.minimum(a, c) < 0.0)
    if bad.size:
        k = int(bad[0])
        name, value = ("a", a[k]) if a[k] < 0.0 else ("c", c[k])
        warnings.warn(
            f"non-monotone explicit step: {name} = {value:.6g} < 0 at node {k + 1} "
            f"(S = {grid.spots[k + 1]:.6g}), so prices may leave their payoff's "
            "bounds; drift_discretization='upwind' keeps a and c nonnegative",
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
    _check_monotone(grid, a, c)
    return Plan(grid=grid, dtau=dtau, nsub=nsub, delta=delta, a=a, b=b, c=c,
                rates=source_rates(p),
                walls=boundary_curves(prob.instrument, grid, p, prob.boundary_mode),
                start=payoff(prob.instrument, grid))


def _at_nsub(pl: Plan, prob: Problem, nsub: int) -> Plan:
    """The plan of ``prob`` with its levels split into ``nsub`` sub-steps."""
    delta = pl.dtau / nsub
    a, b, c = step_coefficients(pl.grid, prob.effective_params(), delta,
                                prob.drift_discretization)
    return replace(pl, nsub=nsub, delta=delta, a=a, b=b, c=c)


def _walls(plans, dtau: float, levels, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) wall values, (levels x width x members), over the given levels.

    Each member's sub-step taus come from its own nsub and delta; the slots
    past a member's nsub are padding its march never reads.
    """
    lo = np.zeros((len(levels), width, len(plans)))
    hi = np.zeros_like(lo)
    taus: dict[int, list] = {}  # nsub -> sub-step taus; delta is dtau / nsub
    for r, pl in enumerate(plans):
        nsub, delta = pl.nsub, pl.delta
        if nsub not in taus:
            # land the final sub-step of each level exactly on the reporting level
            taus[nsub] = [(m + 1) * dtau if j == nsub else m * dtau + j * delta
                          for m in levels for j in range(1, nsub + 1)]
        w_lo, w_hi = pl.walls(taus[nsub])
        lo[:, :nsub, r] = w_lo.reshape(len(levels), nsub)
        hi[:, :nsub, r] = w_hi.reshape(len(levels), nsub)
    return lo, hi


def _march(plans, rows: np.ndarray, first: int, last: int, keep: int | None) -> list:
    """March a stack from level ``first`` to level ``last``.

    The plans share one grid; ``rows`` holds one row per plan. Each member
    keeps its own nsub, delta, weights, rates and walls. The stack is
    ordered by nsub, largest first, so sub-step slot j of a level updates
    only the prefix of rows whose nsub exceeds j: a level costs the largest
    nsub in sub-step calls, and each row does exactly the arithmetic of its
    lone march. ``keep`` is the level to return, or None for every level
    from ``first`` on. One outcome per plan: the kept values, or the
    NonFiniteValue that stopped it. A member that stops leaves the stack
    and the others march on.
    """
    grid, dtau = plans[0].grid, plans[0].dtau
    live = sorted(range(len(plans)), key=lambda i: -plans[i].nsub)  # stack row -> plan index
    plans = [plans[i] for i in live]
    # wall data is made a block of levels at a time: one call per member
    # per block, without holding every sub-step of a fine grid at once
    block = max(1, _WALL_BLOCK // plans[0].nsub)
    nsubs = np.array([pl.nsub for pl in plans])
    # a, b, c, delta and the three source rates: one row or column per member
    data = [np.array([pl.a for pl in plans]), np.array([pl.b for pl in plans]),
            np.array([pl.c for pl in plans]), np.array([[pl.delta] for pl in plans]),
            *(np.array([[pl.rates[k]] for pl in plans]) for k in range(3))]

    def prefixes():
        """Per sub-step slot: the active row count and their slices of data."""
        return [(n, *(d[:n] for d in data[:4]), tuple(d[:n] for d in data[4:]))
                for n in (int((nsubs > j).sum()) for j in range(nsubs[0]))]

    slots = prefixes()
    out: list = [None] * len(plans)
    x = np.asarray(rows, dtype=float)[live]
    levels = None
    if keep is None:
        levels = np.empty((len(plans), last - first + 1, x.shape[1]))
        levels[:, 0] = x
    elif keep == first:
        for r, row in zip(live, x):
            out[r] = row.copy()
    # non-finiteness is detected below; let an unstable march overflow quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(first, last):
            if (m - first) % block == 0:
                lo, hi = _walls(plans, dtau, range(m, min(m + block, last)), len(slots))
                t = 0
            j = 0
            while j < len(slots):
                n, a, b, c, delta, rates = slots[j]
                every = n == len(x)
                prefix = x if every else x[:n]
                # a*x[i-1] + b*x[i] + c*x[i+1] - delta*source, summed in that
                # order with the temporaries reused in place
                inner = a * prefix[:, :-2]
                inner += b * prefix[:, 1:-1]
                inner += c * prefix[:, 2:]
                source = nonlinear_source(prefix, grid, rates)
                source *= delta
                inner -= source
                nxt = np.empty_like(prefix)
                nxt[:, 1:-1] = inner
                nxt[:, 0] = lo[t, j, :n]
                nxt[:, -1] = hi[t, j, :n]
                if every:
                    x = nxt
                else:
                    x[:n] = nxt
                j += 1
                finite = np.isfinite(nxt)
                if not finite.all():
                    ok = np.ones(len(x), dtype=bool)
                    ok[:n] = finite.all(axis=1)
                    for r in np.flatnonzero(~ok):
                        out[live[r]] = NonFiniteValue(m, int(np.argmax(~finite[r])))
                    live = [live[r] for r in np.flatnonzero(ok)]
                    if not live:
                        return out
                    plans = [pl for pl, kept in zip(plans, ok) if kept]
                    x, nsubs, lo, hi = x[ok], nsubs[ok], lo[..., ok], hi[..., ok]
                    data = [d[ok] for d in data]
                    if levels is not None:
                        levels = levels[ok]
                    # the slots left in this level march the smaller stack
                    slots = prefixes()
            t += 1
            if levels is not None:
                levels[:, m + 1 - first] = x
            elif m + 1 == keep:
                for r, row in zip(live, x):
                    out[r] = row.copy()
    if levels is not None:
        for r, vals in zip(live, levels):
            out[r] = vals
    return out


def solved(outcome):
    """A stacked solve's outcome for one member, raised if it is an error."""
    if isinstance(outcome, EngineError):
        raise outcome
    return outcome


def step(row: np.ndarray, m: int, prob: Problem, substep: bool = True) -> np.ndarray:
    """Advance one reporting step, from tau_m to tau_{m+1}.

    One level of the same march ``solve`` runs. Raises NonFiniteValue the
    moment any node stops being finite.
    """
    pl = plan(prob, substep)
    rows = np.asarray(row, dtype=float)[None, :]
    return solved(_march([pl], rows, m, m + 1, m + 1)[0])


def solve(prob: Problem, substep: bool = True) -> Surface:
    """March the payoff from tau = 0 to tau = T and return every level.

    Raises WellPosednessViolation when the variant-filtered parameters break
    condition 1; conditions 2 and 4 and a negative lambda_B - r*C_B only
    emit ModelAssumptionWarning.
    """
    pl = plan(prob, substep)
    values = solved(_march([pl], pl.start[None, :], 0, prob.grid.n_time, None)[0])
    return Surface(values=values, grid=pl.grid, taus=build_time_grid(prob.grid))


def solve_stack(problems, time_index: int | None = -1, substep: bool = True) -> list:
    """Solve many problems in stacked marches; one outcome per problem, in order.

    An outcome is the problem's row at level ``time_index`` (every level
    when it is None), or the EngineError that stopped that problem alone:
    a broken condition 1 at planning, or NonFiniteValue in the march.
    Problems that share a grid march in one stack, each at its own nsub.
    """
    return _solve_stack(problems, time_index, substep)


def _solve_stack(problems, time_index: int | None = -1, substep: bool = True,
                 ties=()) -> list:
    """``solve_stack``, with ``ties``: tuples of member indices that march at
    the largest nsub among them, so a difference of two of them carries
    one time-truncation error. A larger nsub only shrinks the sub-step."""
    out: list = [None] * len(problems)
    grids: dict[GridSpec, SpaceGrid] = {}
    plans: dict[int, Plan] = {}
    for i, prob in enumerate(problems):
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
    groups: dict[GridSpec, list] = {}
    for i in plans:
        groups.setdefault(problems[i].grid, []).append(i)
    for spec, index in groups.items():
        keep = None if time_index is None else range(spec.n_time + 1)[time_index]
        rows = np.array([plans[i].start for i in index])
        for i, res in zip(index, _march([plans[i] for i in index], rows, 0, spec.n_time, keep)):
            out[i] = res
    return out


def solve_pairs(pairs, time_index: int = -1) -> list:
    """March every (first, second) pair of variants together, then subtract.

    One outcome per pair: the rows (first, second, first - second) at level
    ``time_index``, or the error of the first member that failed.
    """
    rows = solve_stack([prob for pair in pairs for prob in pair], time_index)
    out = []
    for first, second in zip(rows[::2], rows[1::2]):
        failed = [r for r in (first, second) if isinstance(r, EngineError)]
        out.append(failed[0] if failed else (first, second, first - second))
    return out
