"""Stencil greeks, bump greeks, and hedge notionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvapde import (
    GridSpec,
    Instrument,
    InvalidSpec,
    ModelAssumptionWarning,
    ModelVariant,
    Surface,
    WellPosednessViolation,
    build_space_grid,
    closed_form_call_delta,
    greeks_report,
    hedge_notionals,
    solve,
)
from xvapde.greeks import DEFAULT_EPS, bump_greek, delta_gamma
from xvapde import solver

from helpers import STRIKE, desk_grid, desk_params, desk_problem

DELTA_ORACLE_TOL = 2e-2


def _surface_from_row(row, grid_spec):
    g = build_space_grid(grid_spec)
    return Surface(values=np.asarray(row, dtype=float)[np.newaxis, :],
                   grid=g, taus=np.array([0.0]))


# --- Stencil greeks ---

def test_exponential_profile_has_unit_delta_zero_gamma():
    """V = S (that is, e^x in log space) must report Delta = 1 and Gamma = 0.

    A near-uniform fine grid keeps the stencil truncation below 1e-8 at the
    interior nodes; the matched one-sided wall stencils hold the same bar
    for Delta.
    """
    spec = GridSpec(x_minus=math.log(4.0), x_plus=math.log(16.0),
                    x_star=math.log(8.0),
                    alpha=1e3 * (math.log(16.0) - math.log(4.0)),
                    n_space=9240, n_time=1, horizon=1.0)
    g = build_space_grid(spec)
    surf = _surface_from_row(np.exp(g.nodes), spec)
    delta, gamma = delta_gamma(surf, time_index=0)
    np.testing.assert_allclose(delta, 1.0, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(gamma[1:-1], 0.0, rtol=0.0, atol=1e-8)


def test_quadratic_log_profile_is_stencil_exact():
    """V = x^2 + 2x + 3: the nonuniform central stencils (and the one-sided
    wall stencils) reproduce V_x = 2x + 2 and V_xx = 2 exactly, so
    Delta*S = 2x + 2 and Gamma*S^2 = 2 - (2x + 2) to rounding."""
    spec = desk_grid()
    g = build_space_grid(spec)
    x = g.nodes
    surf = _surface_from_row(x ** 2 + 2.0 * x + 3.0, spec)
    delta, gamma = delta_gamma(surf, time_index=0)
    np.testing.assert_allclose(delta * g.spots, 2.0 * x + 2.0,
                               rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(gamma * g.spots ** 2, 2.0 - (2.0 * x + 2.0),
                               rtol=0.0, atol=1e-9)


def test_risk_free_delta_tracks_the_closed_form():
    surf = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    delta, _ = delta_gamma(surf)
    g = surf.grid
    ref = closed_form_call_delta(g.spots, STRIKE, r=0.05, carry=0.02,
                                 sigma=0.1, tau=1.0)
    band = (g.spots >= STRIKE / 2.0) & (g.spots <= 2.0 * STRIKE)
    assert float(np.abs(delta - ref)[band].max()) <= DELTA_ORACLE_TOL


def test_put_delta_is_monotone_and_boxed():
    surf = solve(desk_problem(instrument=Instrument("put", STRIKE)))
    delta, _ = delta_gamma(surf)
    assert float(delta.min()) >= -1.02
    assert float(delta.max()) <= 0.02
    assert float(np.diff(delta).min()) >= -1e-4


def test_gamma_concentrates_at_the_strike():
    surf = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    _, gamma = delta_gamma(surf)
    peak = int(np.argmax(gamma))
    assert abs(peak - surf.grid.nearest_index(math.log(STRIKE))) <= 5
    assert float(gamma[peak]) > 0.0


# --- Bump greeks ---

def test_bump_rejects_unknown_target_and_bad_eps():
    prob = desk_problem(grid=desk_grid(n_time=4))
    with pytest.raises(ValueError, match="which"):
        bump_greek(prob, "theta")
    with pytest.raises(ValueError, match="eps"):
        bump_greek(prob, "vega", eps=0.0)


def test_vega_down_bump_must_stay_well_posed():
    prob = desk_problem(grid=desk_grid(n_time=4))
    with pytest.raises(WellPosednessViolation, match="not positive"):
        bump_greek(prob, "vega", eps=0.15)
    # sigma - eps = 0.02 is positive but sits below the cost floor
    with pytest.raises(WellPosednessViolation, match="cost floor"):
        bump_greek(prob, "vega", eps=0.08)


def test_vega_bump_converges_quadratically():
    """Central differences: shrinking eps 2x must cut the eps-dependence ~4x.

    All three bumps stay inside the window where the solver needs no
    sub-stepping, so the solved surface is a smooth function of sigma.
    """
    prob = desk_problem(variant=ModelVariant.RISK_FREE)
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    v = {eps: float(bump_greek(prob, "vega", eps=eps)[i])
         for eps in (2e-3, 1e-3, 5e-4)}
    wide = abs(v[2e-3] - v[5e-4])
    narrow = abs(v[1e-3] - v[5e-4])
    assert narrow <= 0.35 * wide


def test_rho_bump_converges_quadratically():
    prob = desk_problem(variant=ModelVariant.RISK_FREE)
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    r = {eps: float(bump_greek(prob, "rho", eps=eps)[i])
         for eps in (2e-4, 1e-4, 5e-5)}
    wide = abs(r[2e-4] - r[5e-5])
    narrow = abs(r[1e-4] - r[5e-5])
    assert narrow <= 0.35 * wide


def test_atm_vega_is_positive_and_near_the_lognormal_scale():
    """At the money the price is roughly linear in sigma*sqrt(tau)*S*phi(d1),
    so vega sits near S*phi(d1)*sqrt(tau) ~ 3.1 at the desk scenario."""
    prob = desk_problem(variant=ModelVariant.RISK_FREE)
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    vega = float(bump_greek(prob, "vega")[i])
    assert 2.5 <= vega <= 3.5


def test_rho_bumps_the_rate_not_the_financing_spread():
    """r enters the discounting and the r*C_B funding leg, but q_S is its own
    input: the bumped problems must leave q_S untouched, which shows up as a
    negative rho deep in the money (a call financed at fixed q_S loses value
    when discounting rises)."""
    prob = desk_problem()
    rho = bump_greek(prob, "rho", eps=1e-4)
    g = build_space_grid(prob.grid)
    itm = g.spots > STRIKE
    assert float(rho[itm].min()) < -1e-3
    assert float(rho.max()) <= 1e-3


def test_vega_bumps_across_a_sub_step_boundary_share_one_nsub():
    """At N = 400, sigma = 0.10325 +- 1e-4 straddles the step from nsub 3
    to 4. Marched at their own counts the two bumps carry different
    time-truncation errors and vega drops 2.3% below its neighbours; tied
    to the larger count it reads like them."""
    grid = desk_grid(n_space=400)
    i = build_space_grid(grid).nearest_index(math.log(STRIKE))
    crossing = desk_problem(grid=grid, sigma=0.10325)
    up = int(solver.plan(desk_problem(grid=grid, sigma=0.10335)).nsub[0])
    dn = int(solver.plan(desk_problem(grid=grid, sigma=0.10315)).nsub[0])
    assert up != dn
    vega = bump_greek(crossing, "vega", eps=1e-4)
    for sigma in (0.1031, 0.1034):
        near = float(bump_greek(desk_problem(grid=grid, sigma=sigma), "vega", eps=1e-4)[i])
        assert abs(float(vega[i]) - near) <= 1e-3 * abs(near)
    report = greeks_report(crossing, eps_sigma=1e-4, eps_r=1e-4)
    np.testing.assert_array_equal(report.vega, vega)
    np.testing.assert_array_equal(report.rho, bump_greek(crossing, "rho", eps=1e-4))


def test_a_tied_bump_warns_only_about_the_step_it_marches():
    """At n_time = 4 and sigma = 0.15055 the down-bump alone plans 113
    sub-steps, where its centre weight goes negative, but marches at its
    up-bump's 117, where it does not; a larger nsub only shrinks the step.
    The down-bump's lone plan warns; vega and the report do not."""
    prob = desk_problem(sigma=0.15055, grid=desk_grid(n_time=4))
    up = desk_problem(sigma=0.15055 + DEFAULT_EPS["vega"], grid=prob.grid)
    dn = desk_problem(sigma=0.15055 - DEFAULT_EPS["vega"], grid=prob.grid)
    assert int(solver.plan(up).nsub[0]) == 117
    with pytest.warns(ModelAssumptionWarning) as caught:
        assert int(solver.plan(dn).nsub[0]) == 113
    assert [str(w.message).split(" < 0")[0] for w in caught] == [
        "non-monotone explicit step: b - delta*(max(rho+, rho-, 0) + kappa/h_f) = -0.00031527"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bump_greek(prob, "vega")
        greeks_report(prob)


# --- Reports ---

def test_greeks_report_shapes_and_csv(tmp_path):
    prob = desk_problem(grid=desk_grid(n_space=60, n_time=30))
    rep = greeks_report(prob)
    n = 61
    assert (len(rep.spots), len(rep.delta), len(rep.gamma),
            len(rep.vega), len(rep.rho)) == (n,) * 5
    assert rep.tau == 1.0
    path = tmp_path / "greeks.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "S,delta,gamma,vega,rho"
    assert len(lines) == 1 + n
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(2.0, abs=1e-12)


def test_default_bumps_are_the_table_entries():
    prob = desk_problem(grid=desk_grid(n_space=60, n_time=30))
    default = greeks_report(prob)
    explicit = greeks_report(prob, eps_sigma=DEFAULT_EPS["vega"], eps_r=DEFAULT_EPS["rho"])
    for name in ("spots", "delta", "gamma", "vega", "rho"):
        np.testing.assert_array_equal(getattr(default, name), getattr(explicit, name))


# --- Hedge notionals ---

def test_hedge_shares_mirror_delta():
    surf = solve(desk_problem(grid=desk_grid(n_time=20)))
    hedge = hedge_notionals(surf, desk_params())
    delta, _ = delta_gamma(surf)
    np.testing.assert_array_equal(hedge.delta_shares, -delta)


@given(st.lists(st.floats(-50.0, 50.0), min_size=7, max_size=7))
@settings(max_examples=200, deadline=None)
def test_hedge_bond_legs_split_by_exposure_sign(row):
    """alpha_B*P_B = -V + V+ + R_B*V- and alpha_C*P_C = -V + R_C*V+ + V-:
    the own-bond leg only carries negative exposure, the counterparty leg
    only positive exposure."""
    spec = desk_grid(n_space=6, n_time=1)
    surf = _surface_from_row(row, spec)
    p = desk_params()
    hedge = hedge_notionals(surf, p, time_index=0)
    v = np.asarray(row)
    np.testing.assert_allclose(
        hedge.own_bond_value, np.where(v < 0.0, (p.R_B - 1.0) * v, 0.0),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        hedge.cpty_bond_value, np.where(v > 0.0, (p.R_C - 1.0) * v, 0.0),
        rtol=1e-12, atol=1e-12)


def test_call_seller_shorts_counterparty_bonds_only():
    """A call is pure positive exposure: the own-bond leg is exactly zero."""
    surf = solve(desk_problem(grid=desk_grid(n_time=20)))
    hedge = hedge_notionals(surf, desk_params())
    np.testing.assert_array_equal(hedge.own_bond_value, 0.0)
    assert float(hedge.cpty_bond_value.min()) <= -1e-2   # short where V is large
    assert np.all(hedge.cpty_bond_value <= 0.0)


def test_stencil_greeks_need_four_nodes(monkeypatch):
    """The wall stencils read four nodes: on a three-node grid (n_space = 2)
    delta_gamma and greeks_report raise InvalidSpec naming that need, and
    greeks_report does so before it plans any solve."""
    spec = desk_grid(n_space=2, n_time=4)
    surface = solve(desk_problem(grid=spec))
    with pytest.raises(InvalidSpec, match="at least 4 grid nodes"):
        delta_gamma(surface)
    monkeypatch.setattr(solver, "_plan_stack", None)  # any planning would fail with TypeError
    with pytest.raises(InvalidSpec, match="at least 4 grid nodes"):
        greeks_report(desk_problem(grid=spec))
    monkeypatch.undo()
    rep = greeks_report(desk_problem(grid=desk_grid(n_space=3, n_time=4)))
    assert rep.delta.shape == (4,) and np.isfinite(rep.delta).all()
