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
curves. The march then only does arithmetic. ``solve`` marches one row,
``solve_stack`` and ``solve_pairs`` march many variants together.

The march is a compiled C kernel (``_march.c``, built on first use and
loaded with ctypes; see ``_kernel``): one call marches one row through
every sub-step of every level, with the walls and a finiteness check after
every sub-step, so its NonFiniteValue names the first non-finite sub-step
and node directly. Where no compiler is found, the numpy stack below runs
instead. It is also the reference the kernel is tested against, bit for
bit: the kernel keeps its order of operations, and its walls call the libm
``exp`` that ``math.exp`` calls.

The numpy stack marches a (members x nodes) stack. Members share a stack
when they share a grid, and each keeps its own nsub: the stack is ordered
by nsub, largest first, and sub-step j of a level updates only the rows
whose nsub exceeds j. So a level costs the largest nsub in sub-step calls,
and each member's numbers are exactly those of its lone solve.

A sub-step allocates nothing: each stack gets fixed buffers once, and
views of them for every sub-step are built up front, so a sub-step is a
fixed list of numpy calls writing through ``out=``; the walls of every
level are made once per march. Finiteness is checked once, on the last
level: a non-finite value stays non-finite. A member that ends non-finite
is marched again alone from its start row, with a check after every
sub-step, so its NonFiniteValue names the same step and node a check
after every sub-step would.

A zero-source row, one whose three source rates are all +0.0 (tested on
the bit pattern, so a -0.0 rate keeps its source), marches the linear
update alone: on finite rows its source is exactly +0 and v - (+0) = v,
so no bit moves. Every RiskFree row is one. Among rows of equal nsub the
zero-source rows go last, and a sub-step evaluates the source only over
its covering prefix, the rows up to its last one with a source. In a
blow-up, a zero-source row's NonFiniteValue names the first node where
the linear update itself overflows, not where 0*inf would first have
turned NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_rows
from .errors import EngineError, ModelAssumptionWarning, NonFiniteValue
from .grid import GridSpec, SpaceGrid, build_space_grid, build_time_grid, stability_bound
from .instrument import BOUNDARY_MODES, Instrument, boundary_curves, curve_values, payoff
from .model import (
    ConditionReport,
    ModelParams,
    ModelVariant,
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


def nonlinear_source(rows: np.ndarray, grid: SpaceGrid, rates) -> np.ndarray:
    """Funding/credit/cost source at the interior nodes for the given row(s).

    ``rows`` is one row or a (members x nodes) stack. ``rates`` are the
    three ``source_rates`` of the variant-filtered parameters, as scalars
    or as (members x 1) columns for a stack. The cost sink differences the
    positive part forward, matching the upper-wall side where a call's
    exposure lives.
    """
    rows = np.asarray(rows, dtype=float)
    pos, inner = np.empty_like(rows), rows[..., 1:-1]
    out, slope, neg = (np.empty_like(inner) for _ in range(3))
    return _source_into(out, rows, inner, pos, pos[..., 1:-1], pos[..., 2:], slope, neg,
                        grid.h[1:], *rates)


def _source_into(out, x, x_in, pos, pos_in, pos_up, slope, neg, h, pos_rate, neg_rate,
                 cost_rate):
    """The source of rows ``x`` (interior ``x_in``), written into ``out``.

    pos_rate*U + neg_rate*min(V, 0) + cost_rate*|U_x|, summed in that
    order. ``pos`` is scratch shaped like ``x``, with ``pos_in`` and
    ``pos_up`` its views at the interior nodes and their upper neighbours;
    ``slope`` and ``neg`` are scratch shaped like ``out``; ``h`` is the
    forward spacing at the interior nodes. ``nonlinear_source`` and the
    march both evaluate the source here.
    """
    np.maximum(x, 0.0, out=pos)
    np.subtract(pos_up, pos_in, out=slope)
    slope /= h
    np.abs(slope, out=slope)
    slope *= cost_rate
    np.minimum(x_in, 0.0, out=neg)
    neg *= neg_rate
    np.multiply(pos_rate, pos_in, out=out)
    out += neg
    out += slope
    return out


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
    """Condition 1 raises; conditions 2 and 4 and lambda_B < r*C_B only warn."""
    modified_variance(p)  # condition 1, hard
    if negative_exposure_rate(p) < 0.0:
        warnings.warn(
            "lambda_B < r*C_B: the condition2 bracket assumes a nonnegative "
            "negative-exposure rate", ModelAssumptionWarning, stacklevel=3)
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
                walls=boundary_curves(prob.instrument, grid, p, prob.boundary_mode),
                start=payoff(prob.instrument, grid))


def _at_nsub(pl: Plan, prob: Problem, nsub: int) -> Plan:
    """The plan of ``prob`` with its levels split into ``nsub`` sub-steps."""
    delta = pl.dtau / nsub
    a, b, c = step_coefficients(pl.grid, prob.effective_params(), delta,
                                prob.drift_discretization)
    return replace(pl, nsub=nsub, delta=delta, a=a, b=b, c=c)


def _walls(plans, dtau: float, levels, width: int) -> np.ndarray:
    """Wall values, (levels x width x members x 2), lower then upper, over the given levels.

    Each member's sub-step taus come from its own nsub and delta; the slots
    past a member's nsub are padding its march never reads.
    """
    walls = np.zeros((len(levels), width, len(plans), 2))
    taus: dict[int, list] = {}  # nsub -> sub-step taus; delta is dtau / nsub
    for r, pl in enumerate(plans):
        nsub, delta = pl.nsub, pl.delta
        if nsub not in taus:
            # land the final sub-step of each level exactly on the reporting level
            taus[nsub] = [(m + 1) * dtau if j == nsub else m * dtau + j * delta
                          for m in levels for j in range(1, nsub + 1)]
        for k, w in enumerate(curve_values(pl.walls, taus[nsub])):
            walls[:, :nsub, r, k] = w.reshape(len(levels), nsub)
    return walls


def _substep(x_lo, x_in, x_up, inner, tmp, walls, a, b, c, source, wall) -> None:
    """One sub-step of a stack, from prebuilt views of the current rows into the next.

    a*x[i-1] + b*x[i] + c*x[i+1] - delta*source, summed in that order into
    the next rows' interior ``inner``, with ``tmp`` the one temporary, and
    ``wall`` the (rows x 2) values for the next rows' wall columns
    ``walls``. ``source`` is None when no row of the sub-step has a source;
    else it holds the covering prefix's part of ``inner``, its part of
    ``tmp``, its ``delta`` and the views ``_source_into`` works on.
    """
    np.multiply(a, x_lo, out=inner)
    np.multiply(b, x_in, out=tmp)
    inner += tmp
    np.multiply(c, x_up, out=tmp)
    inner += tmp
    if source is not None:
        sink, term, delta, views = source
        _source_into(term, *views)
        term *= delta
        sink -= term
    np.copyto(walls, wall)


def _has_source(rates) -> np.ndarray:
    """Whether each (pos, neg, cost) triple of source rates has a source.

    A zero-source row's three rates are all +0.0, tested on the bit
    pattern, so a -0.0 rate keeps its source. For finite rows that source is
    exactly +0 and subtracting it changes no bit, so the march skips it.
    """
    return np.ascontiguousarray(rates, dtype=float).view(np.int64).any(axis=-1)


def _stack(rows: np.ndarray, nsubs: np.ndarray, data, h: np.ndarray):
    """Fixed buffers and prebuilt sub-step views for rows that march together.

    ``rows`` (taken over as the first buffer) is ordered by ``nsubs``,
    largest first, and the zero-source rows of each nsub last (see
    ``_has_source``); ``data`` holds the members' a, b, c, delta and source
    rates as (members x nodes) rows, zero-padded at the walls, and ``h``
    the forward spacing at the interior nodes. Each buffer is read as one
    flat vector, its rows back to back, so that every operation of a
    sub-step is one contiguous loop: the values it computes at a row's wall
    positions mix neighbouring rows, and the walls then overwrite them.
    A sub-step on the first n rows evaluates, scales and subtracts the
    source over the covering prefix of its rows: the first m, up to and
    including its last row with a source. Zero-source rows inside that
    prefix subtract an exact +0; when m is 0 the sub-step is the linear
    update and the walls alone.
    Two row buffers take turns: a sub-step reads one and writes the other,
    and they swap after a sub-step that updates every row, while one on a
    prefix of the rows copies that prefix back. Returns (buffers, slots,
    flip): ``slots[q]`` lists a level's sub-steps when it starts in buffer
    q, each as (views, copy-back or None), and the level ends in buffer
    q ^ flip.
    """
    size, width = rows.shape
    bufs = (rows, np.empty_like(rows))
    flat = [buf.reshape(-1) for buf in bufs]
    pos = np.empty_like(rows)
    slope, neg, tmp = (np.empty(rows.size - 2) for _ in range(3))
    hs = np.tile(np.concatenate(([1.0], h, [1.0])), size)[1:-1]
    has = _has_source(np.column_stack([d[:, 0] for d in data[4:]]))
    views: dict = {}

    def slot(n: int, q: int):
        """The views of a sub-step on the first n rows that reads buffer q."""
        if (n, q) not in views:
            end = n * width
            x = flat[q][:end]
            a, b, c = (d.reshape(-1)[1:end - 1] for d in data[:3])
            inner = flat[1 - q][1:end - 1]  # the flat prefix's interior
            source, with_source = None, np.flatnonzero(has[:n])
            if with_source.size:
                m = int(with_source[-1]) + 1  # the covering prefix
                k = m * width - 2  # its interior positions
                p = pos.reshape(-1)[:k + 2]
                delta, *rates = (d.reshape(-1)[1:k + 1] for d in data[3:])
                source = (inner[:k], tmp[:k], delta,
                          (bufs[q][:m], x[1:k + 1], pos[:m], p[1:-1], p[2:], slope[:k], neg[:k],
                           hs[:k], *rates))
            # the wall columns of every row: past n they are scratch no one reads
            views[n, q] = (x[:-2], x[1:-1], x[2:], inner, tmp[:end - 2],
                           bufs[1 - q][:, ::width - 1], a, b, c, source)
        return views[n, q]

    counts = [int((nsubs > j).sum()) for j in range(nsubs[0])]
    slots = []
    for q in (0, 1):
        level = []
        for n in counts:
            back = None if n == size else (bufs[q][:n], bufs[1 - q][:n])
            level.append((slot(n, q), back))
            if back is None:
                q ^= 1
        slots.append(level)
    return bufs, slots, counts.count(size) % 2


def _locate(data, start: np.ndarray, walls: np.ndarray, first: int, nsub: int,
            h: np.ndarray) -> NonFiniteValue:
    """The error of one member whose march from level ``first`` ended non-finite.

    Marches the member alone from its start row on a one-row stack, through
    the same sub-step code, and checks after every sub-step: the first
    non-finite node of the first failing sub-step is the one a check after
    every sub-step of the whole stack would report.
    """
    bufs, slots, _ = _stack(start[None, :].copy(), np.array([nsub]), data, h)
    q = 0
    for m, level in enumerate(walls, first):
        for (views, _), wall in zip(slots[q], level):
            _substep(*views, wall)
            q ^= 1
            bad = ~np.isfinite(bufs[q][0])
            if bad.any():
                return NonFiniteValue(m, int(np.argmax(bad)))
    raise AssertionError("the march ended non-finite, yet its lone march stayed finite")


def _march(plans, rows: np.ndarray, first: int, last: int, keep: int | None) -> list:
    """March rows that share a grid from level ``first`` to level ``last``.

    ``rows`` holds one row per plan; ``keep`` is the level to return, or
    None for every level from ``first`` on. One outcome per plan: the kept
    values, or the NonFiniteValue that stopped it. Each row marches alone
    in the compiled kernel; where that cannot be built, the rows march as
    one numpy stack (``_march_stack``), which gives the same bits.
    """
    from . import _kernel  # built or loaded on the first march, not at import

    lib = _kernel.library()
    if lib is None:
        return _march_stack(plans, rows, first, last, keep)
    return [_march_row(lib, pl, row, first, last, keep) for pl, row in zip(plans, rows)]


def _march_row(lib, pl: Plan, row: np.ndarray, first: int, last: int, keep: int | None):
    """One row's march in ``_march.c``, one call for every sub-step of every
    level: the arithmetic of ``_substep`` in its order, the walls of
    ``curve_values`` at the taus of ``_walls``, and a finiteness check after
    every sub-step, which names the first non-finite node itself."""
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
                        bool(_has_source(pl.rates)), walls.ctypes.data, x.ctypes.data,
                        y.ctypes.data, kept.ctypes.data, start, count)
    if bad >= 0:
        return NonFiniteValue(*divmod(bad, width))
    return kept if keep is None else kept[0]


def _march_stack(plans, rows: np.ndarray, first: int, last: int, keep: int | None) -> list:
    """March a stack from level ``first`` to level ``last`` in numpy.

    The plans share one grid; ``rows`` holds one row per plan. Each member
    keeps its own nsub, delta, weights, rates and walls. The stack is
    ordered by nsub, largest first, so sub-step slot j of a level updates
    only the prefix of rows whose nsub exceeds j: a level costs the largest
    nsub in sub-step calls, and each row does exactly the arithmetic of its
    lone march. Among rows of equal nsub the zero-source rows go last, so
    a slot's source covers the fewest rows it can (see ``_has_source``);
    nsub stays the first sort key, so every slot still updates a prefix.
    A sub-step allocates nothing: it works on fixed buffers through views
    built once per stack (see ``_stack``), and the wall data of every level
    is made once, up front.

    Rows never mix, and a non-finite value stays non-finite at every later
    sub-step (b*x[i] carries it, a wall reaches node 1 or N-1 through a or
    c, and walls overwrite only the wall columns), so finiteness is checked
    once, on the last level. Every member that ends non-finite is marched
    again alone from its start row, one checked sub-step at a time
    (``_locate``), which gives the same NonFiniteValue(step, node) as a
    check after every sub-step. A zero-source row's lone march also runs
    without the source, so its error names the first node where the linear
    update overflows.

    ``keep`` is the level to return, or None for every level from ``first``
    on. One outcome per plan: the kept values, or the NonFiniteValue that
    stopped it.
    """
    grid, dtau, h = plans[0].grid, plans[0].dtau, plans[0].grid.h[1:]
    has = _has_source([pl.rates for pl in plans])
    # stack row -> plan index: nsub largest first, zero-source rows last among equals
    order = sorted(range(len(plans)), key=lambda i: (-plans[i].nsub, not has[i]))
    plans = [plans[i] for i in order]
    nsubs = np.array([pl.nsub for pl in plans])
    # a, b, c, delta and the three source rates: one row per member, laid
    # out on the nodes with zeros at the walls (see ``_stack``)
    width = len(grid.nodes)
    data = [np.pad([getattr(pl, w) for pl in plans], ((0, 0), (1, 1))) for w in "abc"]
    data += [np.repeat([[pl.delta] for pl in plans], width, axis=1),
             *(np.repeat([[pl.rates[k]] for pl in plans], width, axis=1) for k in range(3))]
    walls = _walls(plans, dtau, range(first, last), nsubs[0])
    rows = np.asarray(rows, dtype=float)
    bufs, slots, flip = _stack(rows[order], nsubs, data, h)
    record = range(first, last + 1) if keep is None else range(keep, keep + 1)
    kept = np.empty((len(plans), len(record), width))
    q = 0
    # non-finiteness is detected below; let an unstable march overflow quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(first, last + 1):
            if m in record:
                kept[:, m - record.start] = bufs[q]
            if m == last:
                break
            for (views, back), wall in zip(slots[q], walls[m - first]):
                _substep(*views, wall)
                if back is not None:
                    np.copyto(*back)
            q ^= flip
        out: list = [None] * len(plans)
        for r, ok in enumerate(np.isfinite(bufs[q]).all(axis=1)):
            if ok:
                out[order[r]] = kept[r] if keep is None else kept[r, 0]
            else:
                out[order[r]] = _locate([d[r:r + 1] for d in data], rows[order[r]],
                                        walls[:, :, r:r + 1], first, nsubs[r], h)
    return out


def solved(outcome):
    """A stacked solve's outcome for one member, raised if it is an error."""
    if isinstance(outcome, EngineError):
        raise outcome
    return outcome


def step(row: np.ndarray, m: int, prob: Problem, substep: bool = True) -> np.ndarray:
    """Advance one reporting step, from tau_m to tau_{m+1}.

    One level of the same march ``solve`` runs. Raises NonFiniteValue at the
    first sub-step and node that stops being finite.
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
    Problems that share a grid march together, each at its own nsub. An
    index out of range for any problem's grid raises IndexError first.
    """
    return _solve_stack(problems, time_index, substep)


def _solve_stack(problems, time_index: int | None = -1, substep: bool = True,
                 ties=()) -> list:
    """``solve_stack``, with ``ties``: tuples of member indices that march at
    the largest nsub among them, so a difference of two of them carries
    one time-truncation error. A larger nsub only shrinks the sub-step."""
    if time_index is not None and problems:  # before any planning and its warnings
        levels = min(prob.grid.n_time + 1 for prob in problems)
        if not -levels <= time_index < levels:
            raise IndexError(f"time_index {time_index} is out of range for a grid of "
                             f"{levels} levels")
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


def solve_pairs(pairs) -> list:
    """March every (first, second) pair of variants together, then subtract.

    One outcome per pair: the terminal rows (first, second, first - second),
    or the error of the first member that failed.
    """
    rows = solve_stack([prob for pair in pairs for prob in pair])
    out = []
    for first, second in zip(rows[::2], rows[1::2]):
        failed = [r for r in (first, second) if isinstance(r, EngineError)]
        out.append(failed[0] if failed else (first, second, first - second))
    return out
