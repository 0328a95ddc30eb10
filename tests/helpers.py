"""Shared builders for the desk-scale call scenario used across the suite."""

import contextlib
import math

import numpy as np

from xvapde import (
    GridSpec,
    Instrument,
    ModelParams,
    ModelVariant,
    Problem,
    build_space_grid,
    stability_bound,
)
from xvapde import solver
from xvapde.instrument import boundary_curves, curve_values, payoff
from xvapde.solver import nonlinear_source, source_rates, step_coefficients

STRIKE = 8.0
HORIZON = 1.0
X_MINUS = math.log(2.0)
X_PLUS = math.log(32.0)


def desk_params(**overrides) -> ModelParams:
    base = dict(r=0.05, q_S=0.05, gamma_S=0.03, sigma=0.1, s_F=0.0,
                lambda_B=0.05, lambda_C=0.01, R_B=0.4, R_C=0.4,
                C_S=0.002, C_B=0.001, C_C=0.001, dt=1.0 / 261.0)
    base.update(overrides)
    return ModelParams(**base)


def desk_grid(n_space: int = 200, n_time: int = 261) -> GridSpec:
    return GridSpec(x_minus=X_MINUS, x_plus=X_PLUS, x_star=math.log(STRIKE),
                    alpha=(X_PLUS - X_MINUS) / 10.0,
                    n_space=n_space, n_time=n_time, horizon=HORIZON)


def desk_problem(variant: ModelVariant = ModelVariant.BKTC, grid: GridSpec | None = None,
                 instrument: Instrument | None = None, **param_overrides) -> Problem:
    return Problem(params=desk_params(**param_overrides), variant=variant,
                   grid=grid or desk_grid(),
                   instrument=instrument or Instrument(kind="call", strike=STRIKE))


def no_bounds(grid, sig2, drift, r) -> list[float]:
    """A stand-in for the bounds the planner reads (``solver._stability_bounds``):
    +inf for each member, so each member's own nsub is 1 and the engine
    marches the unguarded step, which blows up where the bound would split
    it. ``stability_bound`` itself, which the references read, is
    untouched."""
    return [math.inf] * np.size(sig2)


@contextlib.contextmanager
def unguarded_planning():
    """Plan with ``no_bounds`` inside the block: the form for hypothesis
    tests, which cannot take the ``unguarded`` fixture, and for tests that
    guard only part of their body."""
    real = solver._stability_bounds
    solver._stability_bounds = no_bounds
    try:
        yield
    finally:
        solver._stability_bounds = real


def _sub_steps(prob: Problem, substep: bool = True, skip_zero_source: bool = False):
    """The plain per-level, per-sub-step loop: yields (level, row, level done)
    after every sub-step.

    Builds everything from the public primitives, with nothing planned or
    stacked, and reads the wall curves at every sub-step's tau. With
    ``skip_zero_source``, a problem whose three source rates are all +0.0,
    bit for bit, marches without its source, as the engine does: that
    source is an exact +0 on finite rows, and leaving it out only moves
    where a blow-up first reads non-finite.
    """
    p = prob.effective_params()
    grid = build_space_grid(prob.grid)
    dtau = prob.grid.dtau
    nsub = 1
    if substep:
        bound = stability_bound(grid, p)
        if math.isfinite(bound):
            nsub = max(1, math.ceil(dtau / bound))
    delta = dtau / nsub
    a, b, c = step_coefficients(grid, p, delta, prob.drift_discretization)
    rates = source_rates(p)
    zero_source = skip_zero_source and not np.array(rates).view(np.int64).any()
    walls = boundary_curves(prob.instrument, grid, p)
    row = payoff(prob.instrument, grid)
    for m in range(prob.grid.n_time):
        for j in range(1, nsub + 1):
            interior = a * row[:-2] + b * row[1:-1] + c * row[2:]
            if not zero_source:
                interior = interior - delta * nonlinear_source(row, grid, rates)
            tau = (m + 1) * dtau if j == nsub else m * dtau + j * delta
            lo, hi = curve_values(walls, [tau])
            row = np.concatenate([lo, interior, hi])
            yield m, row, j == nsub


def serial_solve(prob: Problem, substep: bool = True) -> np.ndarray:
    """Every level of the plain per-sub-step loop: the reference the planned
    march must reproduce bit for bit."""
    start = payoff(prob.instrument, build_space_grid(prob.grid))
    return np.array([start] + [row for _, row, done in _sub_steps(prob, substep) if done])


def first_non_finite(prob: Problem, substep: bool = True):
    """(step, node) of the first sub-step of the plain loop whose row holds a
    non-finite value, the first such node; None if the march stays finite.

    The reference for ``NonFiniteValue``, which both marches also check
    after every sub-step. It marches on to the end and asserts that every
    row after the first non-finite one holds a non-finite value too. A
    zero-source problem marches without its source here, as in the engine.
    """
    first = None
    with np.errstate(over="ignore", invalid="ignore"):
        for m, row, _ in _sub_steps(prob, substep, skip_zero_source=True):
            bad = ~np.isfinite(row)
            assert first is None or bad.any(), f"step {m} is finite again after {first}"
            if first is None and bad.any():
                first = m, int(np.argmax(bad))
    return first


def monotone_warnings(grid, a, b, c, delta, rates) -> list[str]:
    """The messages of the non-monotone step check, with every weight
    diagnosed node by node whatever its sign: the reference for
    ``solver._check_monotone``, which skips the diagnosis when no weight is
    negative."""
    messages = []
    sink = delta * rates[2] / grid.h[1:]
    centre = b - delta * (max(rates[0], rates[1], 0.0) + rates[2] / grid.h[1:])
    for weights, consequence in (
            ({"a": a, "c": c}, ", so prices may leave their payoff's bounds; "
             "drift_discretization='upwind' keeps a and c nonnegative"),
            ({"c - delta*kappa/h_f": np.where(c >= 0.0, c - sink, np.nan)},
             ": the counterparty-bond cost sink kappa*|U_x| outweighs the upper neighbour's "
             "weight where U_x > 0, so a call price may turn negative"),
            ({"b - delta*(max(rho+, rho-, 0) + kappa/h_f)": centre},
             ": what the exposure rates and the cost sink take off the centre weight leaves "
             "it negative, so prices may overshoot; more time levels shrink the sub-step")):
        bad = np.flatnonzero(np.minimum.reduce(list(weights.values())) < 0.0)
        if bad.size:
            k = int(bad[0])
            name = next(n for n, w in weights.items() if w[k] < 0.0)
            messages.append(
                f"non-monotone explicit step: {name} = {weights[name][k]:.6g} < 0 at node "
                f"{k + 1} (S = {grid.spots[k + 1]:.6g}){consequence}")
    return messages
