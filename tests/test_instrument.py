"""Payoffs and the Dirichlet walls."""

import math

import numpy as np
import pytest

from xvapde import (
    Instrument,
    MissingPayoff,
    ModelVariant,
    build_space_grid,
    closed_form_call,
    solve,
)
from xvapde.instrument import boundary_values, payoff

from helpers import STRIKE, desk_grid, desk_params, desk_problem

GRID = build_space_grid(desk_grid())


# --- Instrument validation ---

def test_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Instrument(kind="swap", strike=8.0)


def test_rejects_nonpositive_strike():
    with pytest.raises(ValueError, match="strike"):
        Instrument(kind="call", strike=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="int-10**400")])
def test_rejects_non_finite_strike(value):
    with pytest.raises(ValueError, match="^strike must be a finite number"):
        Instrument(kind="call", strike=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rejects_a_non_finite_custom_payoff_sample(value):
    samples = np.zeros(11)
    samples[3] = value
    with pytest.raises(ValueError, match=rf"^custom_payoff\[3\] must be a finite number, "
                                         rf"got {value!r}$"):
        Instrument("custom", STRIKE, custom_payoff=samples)
    with pytest.raises(ValueError, match=r"^custom_payoff\[3\]"):
        Instrument("custom", STRIKE, custom_payoff=samples.tolist())


def test_rejects_a_custom_payoff_sample_too_large_for_a_float():
    """A sample of 401 digits, which no float holds, is named as a NaN one is."""
    samples = [0.0] * 11
    samples[3] = 10**400
    for given in (samples, np.array(samples, dtype=object)):
        with pytest.raises(ValueError, match=rf"^custom_payoff\[3\] must be a finite number, "
                                             rf"got {10**400}$"):
            Instrument("custom", STRIKE, custom_payoff=given)
    with pytest.raises(ValueError, match=r"^custom_payoff must be a list of numbers, "
                                         r"got shape \(1, 11\)$"):
        Instrument("custom", STRIKE, custom_payoff=[samples])


@pytest.mark.parametrize("samples, match", [
    (["a"] * 11, r"^custom_payoff must be a list of numbers$"),
    (np.zeros((11, 1)), r"^custom_payoff must be a list of numbers, got shape \(11, 1\)$"),
    (1.0, r"^custom_payoff must be a list of numbers, got shape \(\)$")])
def test_rejects_a_custom_payoff_that_is_not_a_list_of_numbers(samples, match):
    with pytest.raises(ValueError, match=match):
        Instrument("custom", STRIKE, custom_payoff=samples)


# --- Payoffs ---

def test_call_payoff_hinge():
    g = payoff(Instrument("call", STRIKE), GRID)
    np.testing.assert_allclose(g, np.maximum(GRID.spots - STRIKE, 0.0), rtol=0.0)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(32.0 - STRIKE, abs=1e-12)


def test_put_payoff_hinge():
    g = payoff(Instrument("put", STRIKE), GRID)
    np.testing.assert_allclose(g, np.maximum(STRIKE - GRID.spots, 0.0), rtol=0.0)
    assert g[-1] == 0.0


def test_custom_payoff_round_trips_and_copies():
    samples = np.sin(GRID.nodes)
    inst = Instrument("custom", STRIKE, custom_payoff=samples)
    g = payoff(inst, GRID)
    np.testing.assert_allclose(g, samples, rtol=0.0)
    g[0] = 99.0   # the returned array is a copy, not a view of the instrument
    assert payoff(inst, GRID)[0] == samples[0]


def test_custom_payoff_missing_or_misshaped():
    with pytest.raises(MissingPayoff, match="no payoff samples"):
        payoff(Instrument("custom", STRIKE), GRID)
    with pytest.raises(MissingPayoff, match="201 nodes"):
        payoff(Instrument("custom", STRIKE, custom_payoff=np.zeros(5)), GRID)


# --- Wall values ---

# the ids name the recipe, model_consistent, that every vanilla wall uses
@pytest.mark.parametrize("kind", ["call", "put"], ids=lambda kind: f"model_consistent-{kind}")
def test_walls_match_payoff_at_expiry(kind):
    """At tau = 0 both discounted legs must collapse to the hinge."""
    inst = Instrument(kind, STRIKE)
    lo, hi = boundary_values(inst, GRID, 0.0, desk_params())
    g = payoff(inst, GRID)
    assert lo == pytest.approx(float(g[0]), abs=1e-12)
    assert hi == pytest.approx(float(g[-1]), abs=1e-12)


def test_dead_side_wall_is_zero_in_every_mode():
    """Zero under every variant's rates, not only the desk's."""
    for variant in ModelVariant:
        p = variant.apply(desk_params())
        assert boundary_values(Instrument("call", STRIKE), GRID, 0.7, p)[0] == 0.0
        assert boundary_values(Instrument("put", STRIKE), GRID, 0.7, p)[1] == 0.0


def test_custom_walls_hold_the_payoff_endpoints_in_every_mode():
    """Whatever the variant's rates, a custom payoff's walls are its end samples."""
    samples = np.cos(GRID.nodes)
    inst = Instrument("custom", STRIKE, custom_payoff=samples)
    for variant in ModelVariant:
        lo, hi = boundary_values(inst, GRID, 0.9, variant.apply(desk_params()))
        assert lo == pytest.approx(float(samples[0]), abs=0.0)
        assert hi == pytest.approx(float(samples[-1]), abs=0.0)


def test_model_consistent_strike_leg_discounts_at_the_exposure_rate():
    """With the stock leg silenced (S -> 0 wall of a put), only the strike
    leg remains and it must carry r + s_F + lambda_C*(1 - R_C)."""
    p = desk_params(s_F=0.01)
    rho = 0.05 + 0.01 + 0.01 * 0.6
    lo, _ = boundary_values(Instrument("put", STRIKE), GRID, 1.0, p)
    s_lo = float(GRID.spots[0])
    # the stock-leg rate is read off the same recipe with tau varied
    lo2, _ = boundary_values(Instrument("put", STRIKE), GRID, 0.5, p)
    strike_leg_1 = STRIKE * math.exp(-rho * 1.0)
    strike_leg_half = STRIKE * math.exp(-rho * 0.5)
    # subtracting the strike legs isolates the stock legs; both must be
    # positive and below s_lo (discounting shrinks the deep wall stock leg)
    stock_1 = strike_leg_1 - lo
    stock_half = strike_leg_half - lo2
    assert 0.0 < stock_1 < s_lo
    assert stock_1 < stock_half < s_lo


def test_model_consistent_call_wall_shrinks_when_exposure_costs_rise():
    base = boundary_values(Instrument("call", STRIKE), GRID, 1.0, desk_params())[1]
    costly = boundary_values(Instrument("call", STRIKE), GRID, 1.0,
                             desk_params(lambda_C=0.05))[1]
    assert costly < base


def test_model_consistent_wall_tracks_the_discrete_march():
    """One explicit step applied to the deep-call affine profile must land on
    the wall recipe's own value: the wall is the march's fixed line, so the
    junction carries no first-order step.
    """
    surf = solve(desk_problem())
    # compare the wall-adjacent interior node against an affine continuation
    # of the two nodes further in: no visible kink at the junction
    v = surf.terminal
    s = surf.grid.spots
    slope = (v[-2] - v[-3]) / (s[-2] - s[-3])
    extrapolated = v[-2] + slope * (s[-1] - s[-2])
    assert v[-1] == pytest.approx(extrapolated, abs=5e-4)


def test_risk_free_wall_approaches_carry_forward():
    """With every adjustment off, the upper wall must sit near the closed-form
    deep-call asymptote S*exp((q_S - gamma_S - r)*tau)*... at desk spacing the
    discrete stock-leg rate differs from the continuous one only at O(h)."""
    p = ModelVariant.RISK_FREE.apply(desk_params())
    _, hi = boundary_values(Instrument("call", STRIKE), GRID, 1.0, p)
    s_hi = 32.0
    continuous = (s_hi * math.exp((p.q_S - p.gamma_S - p.r) * 1.0)
                  - STRIKE * math.exp(-p.r * 1.0))
    assert hi == pytest.approx(continuous, abs=0.02 * s_hi)
    assert hi >= continuous  # forward-differenced drift runs slightly hot


def test_the_wall_converges_under_refinement():
    """On the RiskFree desk call the largest error against the closed form,
    over every node and the walls too, falls by at least 3.5x from N = 200
    to N = 800 (measured 7.84e-3 -> 1.92e-3): the far wall keeps pace with
    the interior march instead of holding an error of its own."""
    errors = []
    for n_space in (200, 800):
        prob = desk_problem(variant=ModelVariant.RISK_FREE, grid=desk_grid(n_space=n_space))
        p = prob.effective_params()
        surf = solve(prob)
        oracle = closed_form_call(surf.grid.spots, STRIKE, p.r, p.q_S - p.gamma_S, p.sigma,
                                  prob.grid.horizon)
        errors.append(float(np.abs(surf.terminal - oracle).max()))
    assert errors[0] / errors[1] >= 3.5, errors
