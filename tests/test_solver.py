"""The explicit march: coefficients, source, sub-stepping, and guards."""

import copy
import csv
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xvapde import (
    EngineError,
    GridSpec,
    Instrument,
    ModelAssumptionWarning,
    ModelParams,
    ModelVariant,
    NonFiniteValue,
    Problem,
    WellPosednessViolation,
    build_space_grid,
    cpty_cost_rate,
    cva_profile,
    greeks_report,
    modified_variance,
    solve,
    solve_stack,
    stability_bound,
    sweep,
    turnover_factor,
    validity_checks,
)
from xvapde.instrument import boundary_values, payoff
from xvapde.model import negative_exposure_rate, positive_exposure_rate
from xvapde.solver import DRIFT_MODES, nonlinear_source, source_rates, step, step_coefficients

from xvapde import _kernel, model, solver
from xvapde.analytics import compare_models, cva_rows

from helpers import (
    STRIKE,
    X_MINUS,
    X_PLUS,
    desk_grid,
    desk_params,
    desk_problem,
    first_non_finite,
    monotone_warnings,
    serial_solve,
)

# regression pins for the desk call at the node nearest the strike (tau = T);
# identical hardware reruns reproduce these to the last bit, the tolerance
# only absorbs ulp-level libm variation
ATM_RISK_FREE = 0.391195292455021
ATM_BK = 0.38886025569903016
ATM_BKTC = 0.34427617215795475
PIN_TOL = 1e-9


# --- Problem validation ---

def test_rejects_unknown_drift_discretization():
    with pytest.raises(ValueError, match="drift_discretization"):
        Problem(params=desk_params(), variant=ModelVariant.BKTC, grid=desk_grid(),
                instrument=Instrument("call", STRIKE), drift_discretization="central")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rejects_a_non_finite_contraction_constant(value):
    with pytest.raises(ValueError, match=f"^condition2_c must be a finite number, got {value!r}$"):
        replace(desk_problem(), condition2_c=value)


def test_effective_params_applies_the_variant():
    prob = desk_problem(variant=ModelVariant.RISK_FREE)
    assert prob.effective_params().lambda_B == 0.0
    assert prob.params.lambda_B == 0.05


# --- Step coefficients ---

def test_coefficients_match_the_stencil_formulas():
    """Pin the exact discretization: diffusion on the nonuniform second
    difference, drift forward-differenced, decay on the center weight."""
    g = build_space_grid(desk_grid())
    p = desk_params()
    dtau = 1e-3
    a, b, c = step_coefficients(g, p, dtau)

    sig2 = modified_variance(p)
    drift = p.q_S - p.gamma_S - 0.5 * sig2
    hb, hf = g.h[:-1], g.h[1:]
    a_ref = sig2 * dtau / (hb * (hb + hf))
    c_ref = sig2 * dtau / (hf * (hb + hf)) + dtau * drift / hf
    # the two diffusion weights sum to sig2*dtau/(hb*hf)
    b_ref = 1.0 - sig2 * dtau / (hb * hf) - dtau * drift / hf - p.r * dtau

    np.testing.assert_allclose(a, a_ref, rtol=1e-13)
    np.testing.assert_allclose(c, c_ref, rtol=1e-13)
    np.testing.assert_allclose(b, b_ref, rtol=1e-13)


def test_upwind_moves_negative_drift_onto_the_backward_leg():
    g = build_space_grid(desk_grid())
    p = desk_params(q_S=0.0, gamma_S=0.08)   # drift < 0
    dtau = 1e-3
    a_f, b_f, c_f = step_coefficients(g, p, dtau, "forward")
    a_u, b_u, c_u = step_coefficients(g, p, dtau, "upwind")
    drift = p.q_S - p.gamma_S - 0.5 * modified_variance(p)
    assert drift < 0.0
    hb, hf = g.h[:-1], g.h[1:]
    np.testing.assert_allclose(a_u - a_f, -dtau * drift / hb, rtol=1e-12)
    np.testing.assert_allclose(c_f - c_u, dtau * drift / hf, rtol=1e-12)
    # both modes keep the row-sum identity
    np.testing.assert_allclose(a_u + b_u + c_u, 1.0 - p.r * dtau, atol=1e-14)


def test_upwind_equals_forward_for_nonnegative_drift():
    g = build_space_grid(desk_grid())
    p = desk_params()   # drift = 0.05 - 0.03 - sig2/2 > 0
    for x, y in zip(step_coefficients(g, p, 1e-3, "forward"),
                    step_coefficients(g, p, 1e-3, "upwind")):
        np.testing.assert_array_equal(x, y)


@given(
    r=st.floats(0.0, 0.15), q=st.floats(0.0, 0.1), gam=st.floats(0.0, 0.08),
    sigma=st.floats(0.05, 0.6), dt=st.floats(1e-3, 0.1),
    n=st.integers(2, 60), upwind=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_row_sum_identity(r, q, gam, sigma, dt, n, upwind):
    """a + b + c = 1 - r*dtau at every interior node, at the step the
    march actually takes (the reporting step clamped to the bound)."""
    p = desk_params(r=r, q_S=q, gamma_S=gam, sigma=sigma, dt=dt,
                    C_S=min(0.002, 0.5 * sigma / turnover_factor(dt)))
    spec = desk_grid(n_space=n, n_time=13)
    g = build_space_grid(spec)
    delta = min(spec.dtau, stability_bound(g, p))
    a, b, c = step_coefficients(g, p, delta, "upwind" if upwind else "forward")
    np.testing.assert_allclose(a + b + c, 1.0 - r * delta, rtol=0.0, atol=1e-12)


# --- Nonlinear source ---

def test_source_hand_computed_on_a_mixed_sign_row():
    spec = GridSpec(x_minus=0.0, x_plus=0.3, x_star=0.15, alpha=1e8,
                    n_space=3, n_time=1, horizon=1.0)
    g = build_space_grid(spec)
    p = desk_params()
    row = np.array([-1.0, 2.0, -3.0, 4.0])
    out = nonlinear_source(row, g, source_rates(p))

    rho_pos = positive_exposure_rate(p)
    rho_neg = negative_exposure_rate(p)
    kappa = cpty_cost_rate(p)
    pos = np.maximum(row, 0.0)
    want = np.array([
        rho_pos * 2.0 + kappa * abs((pos[2] - pos[1]) / g.h[1]),
        rho_neg * -3.0 + kappa * abs((pos[3] - pos[2]) / g.h[2]),
    ])
    np.testing.assert_allclose(out, want, rtol=1e-14)


def test_source_vanishes_for_risk_free_parameters():
    g = build_space_grid(desk_grid())
    p = ModelVariant.RISK_FREE.apply(desk_params())
    row = np.sin(g.nodes) * 3.0
    np.testing.assert_array_equal(nonlinear_source(row, g, source_rates(p)), 0.0)


# --- Solving ---

def test_desk_prices_pin_and_nest(both_marches):
    for _ in both_marches():
        atm = {}
        for variant in ModelVariant:
            surf = solve(desk_problem(variant=variant))
            i = surf.grid.nearest_index(math.log(STRIKE))
            atm[variant] = float(surf.terminal[i])
        assert atm[ModelVariant.RISK_FREE] == pytest.approx(ATM_RISK_FREE, abs=PIN_TOL)
        assert atm[ModelVariant.BK] == pytest.approx(ATM_BK, abs=PIN_TOL)
        assert atm[ModelVariant.BKTC] == pytest.approx(ATM_BKTC, abs=PIN_TOL)
        # every adjustment layer costs the seller
        assert atm[ModelVariant.RISK_FREE] > atm[ModelVariant.BK] > atm[ModelVariant.BKTC]


def test_adjustment_ordering_holds_nodewise():
    rf = solve(desk_problem(variant=ModelVariant.RISK_FREE)).terminal
    bk = solve(desk_problem(variant=ModelVariant.BK)).terminal
    bktc = solve(desk_problem(variant=ModelVariant.BKTC)).terminal
    assert np.all(rf >= bk - 1e-12)
    assert np.all(bk >= bktc - 1e-12)


def test_surface_rows_start_at_the_payoff():
    prob = desk_problem()
    surf = solve(prob)
    np.testing.assert_array_equal(
        surf.values[0], payoff(prob.instrument, surf.grid))


def test_surface_walls_equal_the_boundary_recipe_at_every_level():
    prob = desk_problem()
    surf = solve(prob)
    p = prob.effective_params()
    for m, tau in enumerate(surf.taus):
        lo, hi = boundary_values(prob.instrument, surf.grid, float(tau), p)
        assert surf.values[m, 0] == lo
        assert surf.values[m, -1] == hi


def test_put_solution_obeys_parity_against_the_call():
    """Risk-free call minus put equals the discounted forward minus strike;
    both legs carry the same O(h) scheme bias so the gap check is loose."""
    call = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    put = solve(desk_problem(variant=ModelVariant.RISK_FREE,
                             instrument=Instrument("put", STRIKE)))
    i = call.grid.nearest_index(math.log(STRIKE))
    s = float(call.grid.spots[i])
    carry = 0.05 - 0.03
    parity = s * math.exp((carry - 0.05) * 1.0) - STRIKE * math.exp(-0.05 * 1.0)
    assert float(call.terminal[i] - put.terminal[i]) == pytest.approx(parity, abs=1e-3)


def test_sub_stepping_recovers_the_fine_march():
    """dtau = 0.01 sits above the stability bound; the automatic split must
    keep the answer near the finely stepped one."""
    coarse = solve(desk_problem(grid=desk_grid(n_time=100)))
    fine = solve(desk_problem(grid=desk_grid(n_time=261)))
    i = fine.grid.nearest_index(math.log(STRIKE))
    assert float(coarse.terminal[i]) == pytest.approx(float(fine.terminal[i]), abs=1e-3)
    assert np.isfinite(coarse.values).all()


def test_forced_oversized_step_raises_instead_of_returning_garbage():
    prob = desk_problem(grid=desk_grid(n_space=800))
    with pytest.warns(ModelAssumptionWarning, match="centre weight"), \
            pytest.raises(NonFiniteValue) as err:
        solve(prob, substep=False)
    assert err.value.step >= 0
    assert 0 <= err.value.node <= 800
    assert "non-finite" in str(err.value)


def test_single_step_equals_the_first_surface_level():
    prob = desk_problem()
    surf = solve(prob)
    first = step(surf.values[0], 0, prob)
    np.testing.assert_array_equal(first, surf.values[1])


def test_one_step_of_a_sub_stepped_grid_equals_its_surface_level():
    prob = desk_problem(grid=desk_grid(n_space=60, n_time=7))
    surf = solve(prob)
    np.testing.assert_array_equal(step(surf.values[3], 3, prob), surf.values[4])


def test_solve_equals_the_per_level_reference_march():
    for prob in (desk_problem(), desk_problem(grid=desk_grid(n_space=400, n_time=50))):
        np.testing.assert_array_equal(solve(prob).values, serial_solve(prob))


def test_condition1_is_enforced_on_the_variant_filtered_parameters():
    # BKTC keeps C_S, so a vol below the cost floor is ill-posed...
    with pytest.raises(WellPosednessViolation):
        solve(desk_problem(sigma=0.02))
    # ...but the risk-free variant strips the cost before the check
    surf = solve(desk_problem(variant=ModelVariant.RISK_FREE, sigma=0.02,
                              grid=desk_grid(n_time=40)))
    assert np.isfinite(surf.values).all()


# --- Advisory warnings ---

def test_degenerate_funding_inputs_warn():
    with pytest.warns(ModelAssumptionWarning, match="lambda_B"):
        solve(desk_problem(lambda_B=0.0, grid=desk_grid(n_time=4)))


def test_failed_contraction_constant_warns():
    prob = desk_problem(grid=desk_grid(n_time=4))
    with pytest.warns(ModelAssumptionWarning, match="condition2") as caught:
        solve(Problem(params=prob.params, variant=prob.variant, grid=prob.grid,
                      instrument=prob.instrument, condition2_c=20.0))
    rep = validity_checks(prob.effective_params(), math.exp(prob.grid.x_plus), 20.0)[1]
    assert rep.name == "condition2" and not rep.passed
    assert [rep.detail in str(w.message) for w in caught].count(True) == 1


def test_excessive_drift_warns():
    prob = desk_problem(q_S=0.2, grid=desk_grid(n_time=4))
    with pytest.warns(ModelAssumptionWarning, match="condition4") as caught:
        solve(prob)
    rep = validity_checks(prob.effective_params(), math.exp(prob.grid.x_plus))[2]
    assert rep.name == "condition4" and not rep.passed
    assert [rep.detail in str(w.message) for w in caught].count(True) == 1


def test_desk_scenario_is_warning_free():
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        solve(desk_problem(grid=desk_grid(n_time=4)))


@pytest.mark.parametrize("n_space, floor", [(10, -0.2), (20, -0.02)])
def test_non_monotone_forward_drift_warns_at_its_first_node(n_space, floor):
    """A negative drift differenced forward outruns the diffusion on coarse
    grids: c < 0, and the call price goes negative. The warning names the
    first offending node and the weight; the numbers stay as they were."""
    prob = desk_problem(q_S=0.0, gamma_S=0.06, grid=desk_grid(n_space=n_space))
    with pytest.warns(ModelAssumptionWarning, match="non-monotone") as caught:
        pl = solver.plan(prob)
    k = int(np.flatnonzero(np.minimum(pl.a[0], pl.c[0]) < 0.0)[0])
    message = str(caught[0].message)
    assert f"c = {pl.c[0][k]:.6g} < 0 at node {k + 1}" in message
    assert "upwind" in message
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        values = solve(prob).values
    assert values.min() < floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        upwind = solve(Problem(params=prob.params, variant=prob.variant, grid=prob.grid,
                               instrument=prob.instrument, drift_discretization="upwind"))
    assert upwind.values.min() >= 0.0


def _upper_weight_under_the_cost_sink(pl):
    """c - delta*kappa/h_f of a lone plan: the weight on V[i+1] once the
    forward-differenced cost sink is counted, where U_x > 0."""
    return pl.c[0] - pl.delta[0] * pl.rates[0, 2] / pl.grid.h[1:]


def test_desk_grid_step_is_monotone():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl = solver.plan(desk_problem())
    assert min(pl.a[0].min(), pl.c[0].min()) >= 0.0
    assert _upper_weight_under_the_cost_sink(pl).min() >= 0.0


def _centre_weight_under_the_source(pl):
    """b - delta*(max(rho+, rho-, 0) + kappa/h_f) of a lone plan: the weight on
    V[i] once the exposure rates and the forward-differenced cost sink are
    counted."""
    pos, neg, cost = pl.rates[0].tolist()
    return pl.b[0] - pl.delta[0] * (max(pos, neg, 0.0) + cost / pl.grid.h[1:])


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.3])
def test_desk_grid_centre_weight_stays_nonnegative_under_the_source(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl = solver.plan(desk_problem(sigma=sigma))
    assert _centre_weight_under_the_source(pl).min() > 0.0


def test_a_source_that_outweighs_b_warns_at_its_first_node():
    """At n_time = 4 the desk BKTC call at sigma = 0.2 takes 212 sub-steps,
    which keep b >= 0 but not b less what the source weighs on V[i]. The
    plan names the node, the weight, its value and the spot; nsub and the
    numbers stay as they were."""
    prob = desk_problem(sigma=0.2, grid=desk_grid(n_time=4))
    with pytest.warns(ModelAssumptionWarning, match="centre weight") as caught:
        pl = solver.plan(prob)
    assert int(pl.nsub[0]) == 212 and pl.b[0].min() >= 0.0
    weight = _centre_weight_under_the_source(pl)
    k = int(np.flatnonzero(weight < 0.0)[0])
    message = next(str(w.message) for w in caught if "centre weight" in str(w.message))
    assert (f"b - delta*(max(rho+, rho-, 0) + kappa/h_f) = {weight[k]:.6g} < 0 at node "
            f"{k + 1} (S = {pl.grid.spots[k + 1]:.6g})") in message
    assert weight.min() == pytest.approx(-2.6e-4, rel=0.01)


@pytest.mark.parametrize("C_C, n_space", [(0.1, 10), (0.2, 20)])
def test_a_cost_sink_that_outweighs_c_warns_at_its_first_node(C_C, n_space):
    """A large counterparty-bond cost takes delta*kappa/h_f off the upper
    weight where U_x > 0; on coarse grids that drives it below zero, and the
    call price turns negative. The plan names the node, the weight and the
    sink; the numbers stay as they were."""
    prob = desk_problem(C_C=C_C, grid=desk_grid(n_space=n_space))
    with pytest.warns(ModelAssumptionWarning, match="cost sink") as caught:
        pl = solver.plan(prob)
    assert min(pl.a[0].min(), pl.c[0].min()) >= 0.0
    weight = _upper_weight_under_the_cost_sink(pl)
    k = int(np.flatnonzero(weight < 0.0)[0])
    message = next(str(w.message) for w in caught if "cost sink" in str(w.message))
    assert f"c - delta*kappa/h_f = {weight[k]:.6g} < 0 at node {k + 1}" in message
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        assert solve(prob).values.min() < 0.0


# --- Surface utilities ---

def test_value_near_spot_reports_the_node_and_value():
    surf = solve(desk_problem(grid=desk_grid(n_time=4)))
    s, v = surf.value_near_spot(STRIKE)
    i = surf.grid.nearest_index(math.log(STRIKE))
    assert s == float(surf.grid.spots[i])
    assert v == float(surf.terminal[i])


def test_terminal_is_the_last_level():
    surf = solve(desk_problem(grid=desk_grid(n_time=4)))
    np.testing.assert_array_equal(surf.terminal, surf.values[-1])


def test_surface_csv_round_trips_exactly(tmp_path):
    surf = solve(desk_problem(grid=desk_grid(n_space=20, n_time=3)))
    path = tmp_path / "surface.csv"
    surf.to_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "x" and rows[1][0] == "S"
    assert len(rows) == 2 + 4          # two header rows + one per tau level
    assert len(rows[0]) == 1 + 21
    back = np.array([[float(v) for v in row[1:]] for row in rows[2:]])
    np.testing.assert_array_equal(back, surf.values)
    taus_back = np.array([float(row[0]) for row in rows[2:]])
    np.testing.assert_array_equal(taus_back, surf.taus)


# --- Stacked marches ---

@st.composite
def stacks(draw):
    """Two to five problems on one small grid, each with its own random
    parameters, variant, payoff and drift mode, so members land in
    different sub-step groups."""
    spec = GridSpec(x_minus=X_MINUS, x_plus=X_PLUS, x_star=math.log(STRIKE),
                    alpha=(X_PLUS - X_MINUS) / draw(st.floats(2.0, 20.0)),
                    n_space=draw(st.integers(4, 40)), n_time=draw(st.integers(1, 8)),
                    horizon=draw(st.floats(0.1, 2.0)))
    members = []
    for _ in range(draw(st.integers(2, 5))):
        sigma, dt = draw(st.floats(0.05, 0.5)), draw(st.floats(1e-3, 0.05))
        params = desk_params(
            r=draw(st.floats(0.0, 0.1)), q_S=draw(st.floats(0.0, 0.08)),
            gamma_S=draw(st.floats(0.0, 0.08)), sigma=sigma, dt=dt,
            s_F=draw(st.floats(0.0, 0.05)), lambda_B=draw(st.floats(0.0, 0.1)),
            lambda_C=draw(st.floats(0.0, 0.1)), R_B=draw(st.floats(0.0, 1.0)),
            R_C=draw(st.floats(0.0, 1.0)), C_B=draw(st.floats(0.0, 0.01)),
            C_C=draw(st.floats(0.0, 0.01)),
            C_S=draw(st.floats(0.0, 0.9)) * sigma / turnover_factor(dt))
        members.append(Problem(
            params=params, variant=draw(st.sampled_from(ModelVariant)), grid=spec,
            instrument=Instrument(draw(st.sampled_from(("call", "put"))), STRIKE),
            drift_discretization=draw(st.sampled_from(("forward", "upwind")))))
    return members


def _lone(prob, substep=True):
    """A problem's own one-member solve: its values, or the error it raised."""
    try:
        return solve(prob, substep).values
    except (WellPosednessViolation, NonFiniteValue) as exc:
        return exc


@given(members=stacks(), ill_posed_at=st.none() | st.integers(0, 5),
       time_index=st.integers(-1, 1))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_stacked_march_equals_each_lone_solve(both_marches, members, ill_posed_at, time_index):
    """Each member of a stacked march is bit for bit its own one-member
    solve and the per-level reference march; a member that breaks
    condition 1 gets its error in its own slot while the others solve."""
    if ill_posed_at is not None:
        members.insert(min(ill_posed_at, len(members)),
                       desk_problem(sigma=0.02, grid=members[0].grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        for _ in both_marches():
            stacked = solve_stack(members, time_index=None)
            rows = solve_stack(members, time_index=time_index)
            for prob, values, row in zip(members, stacked, rows):
                lone = _lone(prob)
                if isinstance(lone, Exception):
                    assert type(values) is type(lone) and str(values) == str(lone)
                    assert type(row) is type(lone)
                    continue
                np.testing.assert_array_equal(values, lone)
                np.testing.assert_array_equal(values, serial_solve(prob))
                np.testing.assert_array_equal(row, lone[time_index])
            if ill_posed_at is not None:
                assert isinstance(stacked[min(ill_posed_at, len(members) - 1)],
                                  WellPosednessViolation)


def test_a_non_finite_member_does_not_poison_its_stack(both_marches):
    """Without sub-steps sigma = 0.4 blows up on the desk grid (sigma = 0.3
    only reaches ~1e297) while sigma = 0.1 stays stable; stacked together,
    each keeps its lone result."""
    stable, unstable = desk_problem(sigma=0.1), desk_problem(sigma=0.4)
    for _ in both_marches():
        with pytest.warns(ModelAssumptionWarning, match="centre weight"), \
                pytest.raises(NonFiniteValue) as lone:
            solve(unstable, substep=False)
        for members in ([stable, unstable], [unstable, stable]):
            with pytest.warns(ModelAssumptionWarning, match="centre weight"):
                outs = solve_stack(members, time_index=None, substep=False)
            bad, good = outs[members.index(unstable)], outs[members.index(stable)]
            assert isinstance(bad, NonFiniteValue)
            assert (bad.step, bad.node) == (lone.value.step, lone.value.node)
            np.testing.assert_array_equal(good, solve(stable, substep=False).values)


def test_cva_rows_and_compare_models_subtract_lone_solves(both_marches):
    """A CVA is the lone solve and its lone RiskFree twin, and their
    difference; the model gap is the lone BK row less the lone BKTC one,
    bit for bit; an ill-posed member raises its own error."""
    base = desk_problem(grid=desk_grid(n_time=20))
    rf = desk_problem(variant=ModelVariant.RISK_FREE, grid=base.grid)
    bk, bktc = (desk_problem(variant=v, grid=base.grid) for v in (ModelVariant.BK,
                                                                   ModelVariant.BKTC))
    ill = desk_problem(sigma=0.02, grid=base.grid)
    for _ in both_marches():
        first, second, diff = cva_rows(base)
        np.testing.assert_array_equal(first, solve(base).terminal)
        np.testing.assert_array_equal(second, solve(rf).terminal)
        np.testing.assert_array_equal(diff, first - second)
        np.testing.assert_array_equal(compare_models(base),
                                      solve(bk).terminal - solve(bktc).terminal)
        for call in (cva_rows, compare_models):
            with pytest.raises(WellPosednessViolation):
                call(ill)


def _sigma_sweep_stack():
    """The desk sigma sweep 0.1 -> 0.3 with its RiskFree twins: members at
    every sub-step count from 1 to 9."""
    members = []
    for sigma in np.linspace(0.1, 0.3, 8):
        prob = desk_problem(sigma=float(sigma))
        members += [prob, desk_problem(variant=ModelVariant.RISK_FREE, sigma=float(sigma))]
    return members


def _count_source_calls(monkeypatch):
    """Record the rates of every ``solver.nonlinear_source`` call. The count
    is a property of the numpy march, so the test marches there."""
    monkeypatch.setattr(_kernel, "enabled", False)
    calls = []
    source = solver.nonlinear_source  # what the numpy march calls once per sub-step
    monkeypatch.setattr(solver, "nonlinear_source", lambda row, grid, rates:
                        calls.append(rates) or source(row, grid, rates))
    return calls


def test_each_row_makes_one_source_call_per_sub_step(monkeypatch):
    """In the sigma-sweep stack, members at every sub-step count from 1 to
    9, each member makes n_time * nsub source calls when it has a source
    and none when it is RiskFree."""
    members = _sigma_sweep_stack()
    plans = [(int(pl.nsub[0]), tuple(pl.rates[0].tolist()))
             for pl in map(solver.plan, members)]
    assert {nsub for nsub, _ in plans} == set(range(1, 10))
    assert len({rates for _, rates in plans}) == len(members) // 2 + 1  # RiskFree share theirs
    calls = _count_source_calls(monkeypatch)
    solve_stack(members)
    n_time = members[0].grid.n_time
    for prob, (nsub, rates) in zip(members, plans):
        has_source = prob.variant is not ModelVariant.RISK_FREE
        assert solver._has_source(rates) is has_source
        assert calls.count(rates) == (n_time * nsub if has_source else 0)
    assert len(calls) == sum(n_time * nsub for nsub, _ in plans[::2])


def test_a_risk_free_solve_makes_no_source_call(monkeypatch):
    """RiskFree rates are all +0.0: its march is the linear update alone. A
    -0.0 rate keeps the source (BKTC with R_B = R_C = 1, s_F = 0 and
    lambda_B = 0 < r*C_B has rates (+0.0, -0.0, +0.0)), so that row makes
    one source call per sub-step."""
    calls = _count_source_calls(monkeypatch)
    solve(desk_problem(variant=ModelVariant.RISK_FREE))
    assert calls == []
    negative_zero = desk_problem(s_F=0.0, R_C=1.0, R_B=1.0, lambda_B=0.0, C_B=0.01)
    rates = tuple(solver.plan(negative_zero).rates[0].tolist())
    assert rates == (0.0, 0.0, 0.0) and [math.copysign(1.0, r) for r in rates] == [1, -1, 1]
    assert solver._has_source(rates) and not solver._has_source((0.0, 0.0, 0.0))
    solve(negative_zero)
    assert len(calls) == negative_zero.grid.n_time * int(solver.plan(negative_zero).nsub[0])


@st.composite
def zero_source_stacks(draw):
    """Two to six desk-like problems on one small grid, mixing RiskFree,
    BK and BKTC members whose sigmas spread their nsub, so that zero-source
    rows land between rows with a source. Recoveries of 1 and s_F = 0 make
    BK rows zero-source too, and BKTC rows with lambda_B = 0 < r*C_B the
    (+0.0, -0.0, +0.0) row that keeps its source."""
    spec = GridSpec(x_minus=X_MINUS, x_plus=X_PLUS, x_star=math.log(STRIKE),
                    alpha=(X_PLUS - X_MINUS) / 10.0, n_space=draw(st.integers(6, 30)),
                    n_time=draw(st.integers(1, 4)), horizon=draw(st.floats(0.1, 1.0)))
    members = []
    for _ in range(draw(st.integers(2, 6))):
        full = st.floats(0.0, 1.0)
        overrides = dict(sigma=draw(st.floats(0.1, 0.5)),
                         s_F=draw(st.sampled_from((0.0, 0.01))),
                         R_B=draw(st.sampled_from((1.0, 0.4))), R_C=draw(st.sampled_from((1.0, 0.4))),
                         lambda_B=draw(st.sampled_from((0.0, 0.05))),
                         lambda_C=draw(full) * 0.1, C_B=draw(full) * 0.01)
        members.append(desk_problem(
            variant=draw(st.sampled_from(ModelVariant)), grid=spec,
            instrument=Instrument(draw(st.sampled_from(("call", "put"))), STRIKE), **overrides))
    return members


@given(members=zero_source_stacks())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_zero_source_rows_march_the_linear_update_bit_for_bit(both_marches, members):
    """Whether a row skips its source changes no bit: each member of a mixed
    stack equals its lone solve and the per-sub-step reference march, which
    subtracts every row's source."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        serial = [serial_solve(prob) for prob in members]
        for _ in both_marches():
            stacked = solve_stack(members, time_index=None)
            for prob, values, want in zip(members, stacked, serial):
                np.testing.assert_array_equal(values, solve(prob).values)
                np.testing.assert_array_equal(values, want)


def test_a_zero_source_blow_up_names_where_the_linear_update_overflows(both_marches):
    """Without sub-steps the RiskFree sigma = 0.3 desk call blows up. Its
    march has no source, so the error names the first node where the linear
    update itself overflows: (260, 100). With a source of rate +0 the same
    march read (260, 90), where 0*inf first turned NaN once the slope
    overflowed. Lone, in the sigma-sweep stack and in the reference loop
    alike."""
    blow = desk_problem(variant=ModelVariant.RISK_FREE, sigma=0.3)
    assert first_non_finite(blow, substep=False) == (260, 100)
    members = _sigma_sweep_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        for _ in both_marches():
            with pytest.raises(NonFiniteValue) as lone:
                solve(blow, substep=False)
            assert (lone.value.step, lone.value.node) == (260, 100)
            outs = solve_stack(members, substep=False)
            assert isinstance(outs[-1], NonFiniteValue)
            assert (outs[-1].step, outs[-1].node) == (260, 100)
            for prob, row in zip(members[:-1], outs[:-1]):
                np.testing.assert_array_equal(row, solve(prob, substep=False).terminal)


@pytest.mark.parametrize("n_space, substep, failure", [(20, True, (190, 20)),
                                                        (200, False, (106, 55))],
                         ids=["sub-steps-20", "no-sub-steps-200"])
def test_an_overflowing_wall_fails_its_member_only(both_marches, n_space, substep, failure):
    """The q_S = 800 RiskFree call's model-consistent wall outgrows the
    floats: the wall reads inf instead of raising OverflowError, whatever
    nsub, so the member fails with NonFiniteValue and a healthy member
    marched with it keeps its lone values. Kept at level 0, before the wall
    overflows, the member still fails: the march checks every sub-step up
    to its last level, not only the kept one."""
    grid = desk_grid(n_space=n_space)
    blow = desk_problem(variant=ModelVariant.RISK_FREE, q_S=800.0, grid=grid)
    healthy = desk_problem(grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        assert first_non_finite(blow, substep) == failure
        for _ in both_marches():
            with pytest.raises(NonFiniteValue) as lone:
                solve(blow, substep)
            assert (lone.value.step, lone.value.node) == failure
            want = solve(healthy, substep).values
            for members in ([healthy, blow], [blow, healthy]):
                outs = solve_stack(members, time_index=None, substep=substep)
                bad, good = outs[members.index(blow)], outs[members.index(healthy)]
                assert isinstance(bad, NonFiniteValue) and (bad.step, bad.node) == failure
                np.testing.assert_array_equal(good, want)
            good, bad = solve_stack([healthy, blow], time_index=0, substep=substep)
            assert isinstance(bad, NonFiniteValue) and (bad.step, bad.node) == failure
            np.testing.assert_array_equal(good, want[0])


def test_a_blow_up_inside_a_mixed_stack_stays_in_its_slot(both_marches):
    """A member at nsub 4 whose huge exposure rates overflow the source
    marches between members with larger and smaller nsub: it gets its lone
    error, and every other member its lone values."""
    blow = desk_problem(sigma=0.2, s_F=1e4, lambda_B=1e4)
    wide, narrow = desk_problem(sigma=0.3), desk_problem(sigma=0.1)
    rf = desk_problem(variant=ModelVariant.RISK_FREE, sigma=0.25)
    members = [wide, blow, rf, narrow]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        nsubs = [int(solver.plan(prob).nsub[0]) for prob in members]
        assert nsubs[0] > nsubs[1] == 4 > nsubs[3]
        serial = {k: serial_solve(members[k]) for k in (0, 2, 3)}
        for _ in both_marches():
            with pytest.raises(NonFiniteValue) as lone:
                solve(blow)
            assert (lone.value.step, lone.value.node) == (85, 95)
            lone_values = {k: solve(members[k]).values for k in (0, 2, 3)}
            for k, values in lone_values.items():
                np.testing.assert_array_equal(values, serial[k])
            for time_index in (None, -1):
                outs = solve_stack(members, time_index=time_index)
                bad = outs[1]
                assert isinstance(bad, NonFiniteValue)
                assert (bad.step, bad.node) == (85, 95)
                for k, values in lone_values.items():
                    want = values if time_index is None else values[time_index]
                    np.testing.assert_array_equal(outs[k], want)


@pytest.mark.parametrize("overrides, n_space, substep, nsub, failure", [
    ({"q_S": 800.0}, 200, True, 479, (226, 200)),
    ({"q_S": 800.0}, 400, True, 959, (228, 400)),
    ({"sigma": 0.2, "s_F": 1e4, "lambda_B": 1e4}, 200, True, 4, (85, 95)),
    ({"sigma": 0.4}, 200, False, 1, (217, 99)),
], ids=["wall-mid-level-200", "wall-mid-level-400", "interior", "no-sub-steps"])
def test_non_finite_value_is_the_first_failing_sub_step(both_marches, overrides, n_space,
                                                        substep, nsub, failure):
    """The (step, node) a march reports must be the first non-finite
    sub-step of the plain per-sub-step loop, lone and stacked between a
    stable desk member and a RiskFree sigma = 0.3 member: both marches
    check every sub-step."""
    grid = desk_grid(n_space=n_space)
    blow = desk_problem(grid=grid, **overrides)
    members = [desk_problem(grid=grid), blow,
               desk_problem(variant=ModelVariant.RISK_FREE, sigma=0.3, grid=grid)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        assert int(solver.plan(blow, substep).nsub[0]) == nsub
        assert first_non_finite(blow, substep) == failure
        for _ in both_marches():
            with pytest.raises(NonFiniteValue) as lone:
                solve(blow, substep)
            assert (lone.value.step, lone.value.node) == failure
            outs = solve_stack(members, substep=substep)
            assert isinstance(outs[1], NonFiniteValue)
            assert (outs[1].step, outs[1].node) == failure
            for k in (0, 2):
                want = _lone(members[k], substep)
                if isinstance(want, NonFiniteValue):
                    assert (outs[k].step, outs[k].node) == (want.step, want.node)
                else:
                    np.testing.assert_array_equal(outs[k], want[-1])


def test_an_out_of_range_time_index_fails_before_planning():
    """The index is checked against the level count before any member is
    planned, so no warning is emitted and the error names both."""
    prob = desk_problem(lambda_B=0.0)  # planning it would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for time_index in (262, 400, -263):
            with pytest.raises(IndexError, match=f"time_index {time_index} .* 262 levels"):
                solve_stack([prob], time_index=time_index)
    with pytest.warns(ModelAssumptionWarning, match="lambda_B"):
        rows = solve_stack([prob], time_index=-262)
    np.testing.assert_array_equal(rows[0], payoff(prob.instrument, build_space_grid(prob.grid)))


def test_rows_that_fail_at_different_sub_steps_each_report_their_own(both_marches):
    """Without sub-steps, the huge-rate member of the "interior" case, the
    sigma = 0.4 member of the "no-sub-steps" case and the RiskFree
    sigma = 0.3 member blow up at three different (step, node) pairs. In
    one stack, marched in one call, each reports its own, the one of the
    plain per-sub-step loop, and the healthy members keep their lone bits."""
    blows = [desk_problem(sigma=0.2, s_F=1e4, lambda_B=1e4), desk_problem(sigma=0.4),
             desk_problem(variant=ModelVariant.RISK_FREE, sigma=0.3)]
    healthy = [desk_problem(), desk_problem(variant=ModelVariant.BK, sigma=0.15)]
    members = [healthy[0], blows[0], blows[2], healthy[1], blows[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        failures = [first_non_finite(prob, substep=False) for prob in blows]
        assert len(set(failures)) == 3 and None not in failures
        for _ in both_marches():
            want = [solve(prob, substep=False).terminal for prob in healthy]
            outs = solve_stack(members, substep=False)
            for prob, failure in zip(blows, failures):
                bad = outs[members.index(prob)]
                assert isinstance(bad, NonFiniteValue) and (bad.step, bad.node) == failure
            for prob, row in zip(healthy, want):
                assert outs[members.index(prob)].tobytes() == row.tobytes()


# --- The stacked planner ---

@st.composite
def planner_stacks(draw):
    """One to six members on one small grid, each drawn as a kind: a plain
    member of any variant and drift mode, an upwind member whose drift is
    negative, a custom payoff, one whose payoff has too few samples, the
    (+0.0, -0.0, +0.0) rates row, a member that breaks condition 1, or a
    duplicate of an earlier member; with up to three ties of two members
    and either sub-step setting."""
    n_space = draw(st.integers(4, 24))
    spec = GridSpec(x_minus=X_MINUS, x_plus=X_PLUS, x_star=math.log(STRIKE),
                    alpha=(X_PLUS - X_MINUS) / draw(st.floats(2.0, 20.0)), n_space=n_space,
                    n_time=draw(st.integers(1, 6)), horizon=draw(st.floats(0.1, 1.0)))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("plain", "plain", "upwind", "custom", "-0.0", "ill-posed",
                                     "no-payoff", "duplicate")))
        if kind == "duplicate" and members:
            members.append(draw(st.sampled_from(members)))
            continue
        sigma, dt = draw(st.floats(0.05, 0.5)), draw(st.floats(1e-3, 0.05))
        overrides = dict(
            sigma=sigma, dt=dt, q_S=draw(st.floats(0.0, 0.08)), gamma_S=draw(st.floats(0.0, 0.08)),
            s_F=draw(st.floats(0.0, 0.05)), lambda_C=draw(st.floats(0.0, 0.1)),
            C_C=draw(st.floats(0.0, 0.2)), C_S=draw(st.floats(0.0, 0.9)) * sigma / turnover_factor(dt))
        variant = draw(st.sampled_from(ModelVariant))
        mode = draw(st.sampled_from(DRIFT_MODES))
        instrument = Instrument(draw(st.sampled_from(("call", "put"))), STRIKE)
        if kind == "upwind":
            overrides.update(q_S=0.0, gamma_S=0.06)
            mode = "upwind"
        elif kind == "custom":
            instrument = Instrument("custom", STRIKE, np.array(draw(st.lists(
                st.floats(-10.0, 10.0), min_size=n_space + 1, max_size=n_space + 1))))
        elif kind == "no-payoff":  # fails after its checks, with its warnings
            instrument = Instrument("custom", STRIKE, np.zeros(n_space))
        elif kind == "-0.0":
            overrides.update(s_F=0.0, R_C=1.0, R_B=1.0, lambda_B=0.0, C_B=0.01)
            variant = ModelVariant.BKTC
        elif kind == "ill-posed":
            overrides.update(sigma=0.02, C_S=0.002, dt=1.0 / 261.0)
            variant = ModelVariant.BKTC
        members.append(Problem(params=desk_params(**overrides), variant=variant, grid=spec,
                               instrument=instrument, drift_discretization=mode))
    index = st.integers(0, len(members) - 1)
    ties = st.lists(st.tuples(index, index).filter(lambda tie: tie[0] != tie[1]), max_size=3)
    return members, draw(ties if len(members) > 1 else st.just([])), draw(st.booleans())


def _recorded(call):
    """call()'s result, or the EngineError it raised, and the messages of the
    warnings it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except EngineError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


# a tie that raises a member with a cost-sink warning from nsub 1 to 4; its
# warning must print its weight at nsub 4, the step it marches
_RAISED = desk_grid(n_space=10, n_time=4)


@given(stack=planner_stacks())
@example(stack=([desk_problem(C_C=0.1, grid=_RAISED), desk_problem(sigma=0.5, grid=_RAISED)],
                [(0, 1)], True))
# a member whose payoff fails ahead of one that marches emits only its condition
# warnings, and the one that marches its own monotone warning
@example(stack=([replace(desk_problem(C_C=0.1, grid=_RAISED),
                         instrument=Instrument("custom", STRIKE, np.zeros(3))),
                 desk_problem(C_C=0.3, grid=_RAISED)], [], True))
# a duplicate raised onto a row of its own is the first to march that row, so it
# carries the row's monotone warning, and its head only its own row's
@example(stack=([desk_problem(C_C=0.1, grid=_RAISED), desk_problem(C_C=0.1, grid=_RAISED),
                 desk_problem(sigma=0.5, grid=_RAISED)], [(1, 2)], True))
@settings(max_examples=150, deadline=None)
def test_the_stacked_plan_is_each_members_lone_plan_bit_for_bit(stack):
    """Each member's row of a stacked plan is its lone ``plan`` bit for bit:
    nsub (raised to the largest of its ties), delta, the weights (those of
    ``step_coefficients`` at the raised nsub), rates, walls and start. The
    stacked stability bounds are ``stability_bound``'s; a member that fails
    its checks fails alone, with its lone error; and the planner warns
    nothing itself. It returns, for each member, its condition warnings as
    its lone plan warns them if it is a distinct member, then, if it is the
    first member to march its row, that row's monotone warnings at the
    row's delta."""
    members, ties, substep = stack
    space = build_space_grid(members[0].grid)
    (out, rows, findings, stacked), messages = _recorded(
        lambda: solver._plan_stack(members, substep, ties))
    assert messages == []
    lone = [_recorded(lambda: solver.plan(prob, substep)) for prob in members]

    nsub = {i: int(pl.nsub[0]) for i, (pl, _) in enumerate(lone) if isinstance(pl, solver.Plan)}
    for tie in ties:  # the rule ties follow: each raises its planned members to their largest
        tied = [i for i in tie if i in nsub]
        for i in tied:
            nsub[i] = max(nsub[k] for k in tied)
    distinct, marched = {}, set()
    for i, (prob, (pl, said)) in enumerate(zip(members, lone)):
        expected = ([m for m in said if not m.startswith("non-monotone explicit step")]
                    if distinct.setdefault(solver._plan_key(prob), i) == i else [])
        if not isinstance(pl, solver.Plan):
            assert type(out[i]) is type(pl) and str(out[i]) == str(pl) and rows[i] is None
            assert findings[i] == expected
            continue
        r = rows[i]
        assert out[i] is None and stacked.nsub[r] == nsub[i] and stacked.dtau == pl.dtau
        p = prob.effective_params()
        delta = pl.dtau / nsub[i]
        weights = (step_coefficients(space, p, delta, prob.drift_discretization)
                   if nsub[i] != pl.nsub[0] else (pl.a[0], pl.b[0], pl.c[0]))
        rates = tuple(pl.rates[0].tolist())
        for name, want in [("delta", delta), *zip("abc", weights), ("rates", rates),
                           ("walls", pl.walls[0]), ("start", pl.start[0])]:
            assert np.array(getattr(stacked, name)[r]).tobytes() == np.array(want).tobytes(), name
        assert pl.nsub[0] == (max(1, math.ceil(pl.dtau / stability_bound(space, p)))
                              if substep else 1)
        if r not in marched:  # the first member to march its row
            marched.add(r)
            expected += monotone_warnings(space, *weights, delta, rates)
        assert findings[i] == expected

    posed = [prob.effective_params() for prob, (pl, _) in zip(members, lone)
             if isinstance(pl, solver.Plan)]
    if posed:
        columns = solver._columns([(*model.variance_and_drift(p), p.r) for p in posed])
        assert (solver._stability_bounds(space, *columns)
                == [stability_bound(space, p) for p in posed])


def test_the_engine_counts_its_work(both_marches):
    """The counters add what each stack asked for, planned, built and
    marched: a desk solve is one member, one plan, one grid and one row of
    261 sub-steps over 199 interior nodes; a greeks report is five members,
    plans and rows on the grid it builds and passes in; a duplicate is asked
    for but neither planned nor marched."""
    prob = desk_problem()
    for _ in both_marches():
        solver._counts.reset()
        solve(prob)
        assert vars(solver._counts) == dict(members=1, plans=1, rows=1, substeps=261,
                                            node_updates=261 * 199, grids=1)
        solver._counts.reset()
        greeks_report(prob)
        assert (solver._counts.members, solver._counts.plans, solver._counts.rows,
                solver._counts.grids) == (5, 5, 5, 0)
        solver._counts.reset()
        solve_stack([prob, prob], substep=False)
        assert vars(solver._counts) == dict(members=2, plans=1, rows=1, substeps=261,
                                            node_updates=261 * 199, grids=1)


def test_members_on_two_grids_plan_and_march_as_they_do_alone(both_marches):
    """A stack over two grids that differ in n_time: each outcome is its
    lone solve bit for bit (a tied pair's is that pair's, stacked alone),
    the warnings come in member order across the grids, and the counters
    show one plan per distinct posed member, one row per (member, nsub) and
    one build per grid."""
    coarse, fine = desk_grid(n_space=10, n_time=4), desk_grid(n_space=10, n_time=20)
    members = [desk_problem(q_S=0.2, grid=fine),      # condition 4 warning
               desk_problem(C_C=0.1, grid=coarse),    # cost-sink warning
               desk_problem(C_C=0.1, grid=fine),      # cost-sink warning, another weight
               desk_problem(sigma=0.3, grid=coarse),  # nsub 2
               desk_problem(sigma=0.02, grid=coarse),  # breaks condition 1
               desk_problem(q_S=0.2, grid=fine),      # a duplicate of member 0
               desk_problem(grid=coarse)]             # nsub 1, tied to member 3
    ties = [(3, 6)]
    lone = [_recorded(lambda: solver.plan(prob))[1] for prob in members]
    assert all(lone[k] for k in (0, 1, 2)) and lone[1] != lone[2]
    for _ in both_marches():
        for time_index in (None, -1):
            solver._counts.reset()
            outs, messages = _recorded(
                lambda: solver._solve_stack(members, time_index, ties=ties))
            assert messages == lone[0] + lone[1] + lone[2]
            # rows at nsub 1, 2 and 2 over 4 levels, and two at nsub 1 over 20
            assert vars(solver._counts) == dict(members=7, plans=5, rows=5, substeps=60,
                                                node_updates=60 * 9, grids=2)
            pair, _ = _recorded(lambda: solver._solve_stack([members[3], members[6]],
                                                            time_index, ties=[(0, 1)]))
            for i, out in enumerate(outs):
                want = (pair[0] if i == 3 else pair[1] if i == 6
                        else _recorded(lambda: solve_stack([members[i]], time_index))[0][0])
                if isinstance(want, EngineError):
                    assert type(out) is type(want) and str(out) == str(want)
                else:
                    assert out.shape == want.shape and out.tobytes() == want.tobytes()
            assert isinstance(outs[4], WellPosednessViolation)


# --- Duplicate members ---

def _plans_and_rows():
    """(members planned, rows marched) on the engine's counters since their
    last reset."""
    return solver._counts.plans, solver._counts.rows


SWEEPS = {"lambda_C": (np.linspace(0.005, 0.04, 8), 9),
          "R_C": (np.linspace(0.1, 0.8, 8), 9),
          "C_S": (np.linspace(0.0005, 0.004, 8), 9),
          "sigma": (np.linspace(0.1, 0.3, 8), 16)}


@pytest.mark.parametrize("parameter", SWEEPS)
def test_a_sweep_plans_and_marches_each_distinct_member_once(both_marches, parameter):
    """The RiskFree variant zeroes lambda_C and C_S and reads R_C only
    through terms it zeroes, so the 8 RiskFree twins of such a sweep are one
    problem: 9 plans and 9 marches. A sigma sweep reaches the twins too and
    stays at 16. Every price and CVA is still its member's lone solve, bit
    for bit."""
    values, distinct = SWEEPS[parameter]
    base = desk_problem()
    for _ in both_marches():
        solver._counts.reset()
        result = sweep(base, parameter, values)
        assert _plans_and_rows() == (distinct, distinct)
        assert not result.errors
        rf = desk_problem(variant=ModelVariant.RISK_FREE)
        for v, price, cva in zip(values, result.prices, result.cvas):
            member = desk_problem(**{parameter: float(v)})
            lone = solve(member).terminal
            twin = solve(desk_problem(variant=ModelVariant.RISK_FREE, **{parameter: float(v)}))
            assert price.tobytes() == lone.tobytes()
            assert cva.tobytes() == (lone - twin.terminal).tobytes()
            if distinct == 9:
                assert twin.terminal.tobytes() == solve(rf).terminal.tobytes()


@pytest.mark.parametrize("request_kind, distinct", [("greeks", 5), ("cva", 2)])
def test_greeks_and_cva_keep_their_member_counts(both_marches, request_kind, distinct):
    prob = desk_problem()
    for _ in both_marches():
        solver._counts.reset()
        greeks_report(prob) if request_kind == "greeks" else cva_profile(prob)
        assert _plans_and_rows() == (distinct, distinct)


def test_signed_zero_members_are_not_merged(both_marches):
    """With lambda_C = -0.0, s_F = -0.0 gives a -0.0 positive-exposure rate
    and s_F = +0.0 a +0.0 one: the first row has a source, the second is
    zero-source, so the two BK members plan apart. The zero-source one
    plans with the RiskFree twins, where the variant sets s_F to +0.0: BK
    zeroes C_S too, so all three read the same bits. The two desk members
    plan once, since lambda_C = 0.01 leaves both rates the same bits."""
    shared = dict(grid=desk_grid(n_time=20), instrument=Instrument("call", STRIKE))
    members = [desk_problem(variant=variant, s_F=s_F, lambda_B=0.0, lambda_C=-0.0, **shared)
               for variant in (ModelVariant.BK, ModelVariant.RISK_FREE)
               for s_F in (0.0, -0.0)]
    members += [desk_problem(s_F=s_F, **shared) for s_F in (0.0, -0.0)]
    assert [solver._has_source(source_rates(m.effective_params())) for m in members[:2]] \
        == [False, True]
    for _ in both_marches():
        solver._counts.reset()
        rows = solve_stack(members)
        assert _plans_and_rows() == (3, 3)
        for prob, row in zip(members, rows):
            assert row.tobytes() == solve(prob).terminal.tobytes()


def test_distinct_custom_payoff_instruments_are_not_merged(both_marches):
    """An Instrument counts by value: custom payoffs that differ in one
    sample plan apart, and equal samples in separate arrays plan once."""
    grid = desk_grid(n_space=40, n_time=10)
    spots = build_space_grid(grid).spots
    samples = np.maximum(spots - STRIKE, 0.0)
    one_off = samples.copy()
    one_off[20] += 0.5
    members = [desk_problem(grid=grid, instrument=Instrument("custom", STRIKE, custom_payoff=g))
               for g in (samples, one_off, samples.copy())]
    assert solver._plan_key(members[0]) != solver._plan_key(members[1])
    for _ in both_marches():
        solver._counts.reset()
        rows = solve_stack(members)
        assert _plans_and_rows() == (2, 2)
        for prob, row in zip(members, rows):
            assert row.tobytes() == solve(prob).terminal.tobytes()
        assert not np.array_equal(rows[0], rows[1])


def test_equal_instruments_built_apart_plan_once(both_marches):
    """The plan key reads the instrument's kind, strike and payoff, not the
    object: two desk members and two RiskFree twins, each with its own
    Instrument, plan and march twice, and each row is its lone solve."""
    members = [desk_problem(), desk_problem(), desk_problem(variant=ModelVariant.RISK_FREE),
               desk_problem(variant=ModelVariant.RISK_FREE, lambda_C=0.03)]
    assert len({id(m.instrument) for m in members}) == 4
    for _ in both_marches():
        solver._counts.reset()
        rows = solve_stack(members)
        assert _plans_and_rows() == (2, 2)
        for prob, row in zip(members, rows):
            assert row.tobytes() == solve(prob).terminal.tobytes()


@pytest.mark.parametrize("time_index", [-1, None])
def test_each_duplicate_gets_its_own_rows(both_marches, time_index):
    prob = desk_problem(variant=ModelVariant.RISK_FREE, grid=desk_grid(n_time=20))
    lone = solve(prob).values
    lone = lone if time_index is None else lone[time_index]
    for _ in both_marches():
        first, second = solve_stack([prob, prob], time_index=time_index)
        assert not np.shares_memory(first, second)
        first[...] = 7.0
        assert second.tobytes() == lone.tobytes()


def test_each_duplicate_gets_its_own_error(both_marches):
    """A planning error and a march error reach every duplicate as an error
    of their own, of the same type and message."""
    ill = desk_problem(sigma=0.02, grid=desk_grid(n_time=4))
    unstable = desk_problem(sigma=0.4)
    for _ in both_marches():
        with pytest.warns(ModelAssumptionWarning, match="centre weight"):
            outs = solve_stack([ill, unstable, ill, unstable], substep=False)
        for first, again, kind in ((outs[0], outs[2], WellPosednessViolation),
                                   (outs[1], outs[3], NonFiniteValue)):
            assert type(first) is kind and type(again) is kind and first is not again
            assert str(first) == str(again)
        assert (outs[1].step, outs[1].node) == (outs[3].step, outs[3].node)


def test_a_non_finite_value_survives_copy_and_pickle():
    """Duplicates get a copy of their member's error; a copy or a pickle
    round trip of a NonFiniteValue keeps its step, node and message."""
    err = NonFiniteValue(260, 100)
    for back in (copy.copy(err), pickle.loads(pickle.dumps(err))):
        assert type(back) is NonFiniteValue and (back.step, back.node) == (260, 100)
        assert str(back) == str(err)


def test_duplicates_warn_once():
    prob = desk_problem(q_S=0.2, grid=desk_grid(n_time=4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_stack([prob, prob, prob])
    assert ["condition4" in str(w.message) for w in caught] == [True]


_RATE_INPUTS = ("s_F", "lambda_B", "lambda_C", "R_B", "R_C", "C_B", "C_C")


@given(variant=st.sampled_from(ModelVariant), redrawn=st.sets(st.sampled_from(_RATE_INPUTS)),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_members_with_one_plan_key_plan_to_the_same_bits(variant, redrawn, data):
    """Two members that differ only in inputs the plan reads through the
    source rates share a key exactly when their rates have the same bits,
    and then their plans and warnings are the same. RiskFree members
    always share one; BK members whenever only the costs differ."""
    def draw_input(name):
        if name.startswith("R_"):
            return data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        return data.draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 0.3))

    grid = desk_grid(n_space=data.draw(st.integers(4, 40)), n_time=data.draw(st.integers(1, 6)))
    inputs = {name: draw_input(name) for name in _RATE_INPUTS}
    first = desk_problem(variant=variant, grid=grid, **inputs)
    second = desk_problem(variant=variant, grid=grid, instrument=first.instrument,
                          **dict(inputs, **{name: draw_input(name) for name in redrawn}))
    rates = [np.array(source_rates(m.effective_params())).tobytes() for m in (first, second)]
    same = solver._plan_key(first) == solver._plan_key(second)
    assert same == (rates[0] == rates[1])
    if variant is ModelVariant.RISK_FREE or (variant is ModelVariant.BK and
                                             redrawn <= {"C_B", "C_C"}):
        assert same
    if not same:
        return
    plans, messages = [], []
    for prob in (first, second):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plans.append(solver.plan(prob))
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1]
    for name in ("a", "b", "c", "rates", "walls", "start", "dtau", "delta", "nsub"):
        assert (np.array(getattr(plans[0], name)).tobytes()
                == np.array(getattr(plans[1], name)).tobytes()), name


# --- The cheap plan path ---

def test_a_passing_plan_builds_no_condition_report(monkeypatch):
    """Conditions 2 and 4 are decided by their checks; the reports, and the
    number formatting behind them, are built only when one fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("condition report built on the passing path")
    monkeypatch.setattr(Problem, "validity_checks", refuse)
    monkeypatch.setattr(model, "_sides", refuse)
    for variant in ModelVariant:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solver.plan(desk_problem(variant=variant))
    with pytest.raises(AssertionError, match="passing path"):
        solver.plan(desk_problem(q_S=0.2))


@given(q_S=st.floats(0.0, 0.1), gamma_S=st.floats(0.0, 0.1), sigma=st.floats(0.05, 0.4),
       C_C=st.floats(0.0, 0.3), lambda_B=st.floats(0.0, 0.1), lambda_C=st.floats(0.0, 0.2),
       s_F=st.floats(0.0, 0.05), n_space=st.integers(4, 60),
       n_time=st.sampled_from([1, 4, 261]), substep=st.booleans(),
       variant=st.sampled_from(ModelVariant), drift=st.sampled_from(DRIFT_MODES),
       nan_at=st.none() | st.tuples(st.sampled_from("abc"), st.floats(0.0, 1.0)))
@settings(max_examples=150, deadline=None)
def test_the_monotone_check_warns_as_the_full_diagnosis(q_S, gamma_S, sigma, C_C, lambda_B,
                                                        lambda_C, s_F, n_space, n_time,
                                                        substep, variant, drift, nan_at):
    """Over random desk perturbations, with or without a NaN weight, the
    planned check warns exactly when the node-by-node diagnosis does, with
    the same messages in the same order."""
    prob = desk_problem(variant=variant, grid=desk_grid(n_space=n_space, n_time=n_time),
                        q_S=q_S, gamma_S=gamma_S, sigma=sigma, C_C=C_C,
                        lambda_B=lambda_B, lambda_C=lambda_C, s_F=s_F)
    p = prob.effective_params()
    grid = build_space_grid(prob.grid)
    nsub = max(1, math.ceil(prob.grid.dtau / stability_bound(grid, p))) if substep else 1
    delta = prob.grid.dtau / nsub
    weights = dict(zip("abc", step_coefficients(grid, p, delta, drift)))
    if nan_at is not None:
        name, where = nan_at
        weights[name][int(where * (n_space - 2))] = np.nan
    rates = source_rates(p)
    rows = [w[None] for w in weights.values()]
    assert (solver._check_monotone(grid, *rows, delta, [rates])
            == [monotone_warnings(grid, *weights.values(), delta, rates)])
