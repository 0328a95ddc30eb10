"""Closed-form oracle, adjustment profiles, and the parameter sweep.

The frozen closed-form values come from a 50-digit mpmath evaluation; the
binomial-lattice cross-check below recomputes its own reference so the
closed form is validated by an independent construction, not by itself.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import norm

from xvapde import (
    ModelVariant,
    build_space_grid,
    closed_form_call,
    closed_form_call_delta,
    compare_models,
    cva_profile,
    solve,
    sweep,
)

from helpers import STRIKE, desk_grid, desk_problem

# mpmath-frozen values at r=0.05, carry=0.02, sigma=0.1, tau=1, K=8
ATM_CALL = 0.38949651369974732
ATM_DELTA = 0.58101187966623182
ITM_CALL_AT_10 = 2.096743397553168
FREEZE_TOL = 1e-12

# desk-scenario regression pin (same caveat as the solver pins)
ATM_CVA = -0.04691912029706624


def _binomial_call(S, K, r, carry, sigma, tau, n):
    """Lattice price with log-binomial weights, stable for large n."""
    dt = tau / n
    up = math.exp(sigma * math.sqrt(dt))
    q = (math.exp(carry * dt) - 1.0 / up) / (up - 1.0 / up)
    j = np.arange(n + 1)
    log_pick = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    log_weight = log_pick + j * math.log(q) + (n - j) * math.log1p(-q)
    terminal = S * np.exp((2.0 * j - n) * sigma * math.sqrt(dt))
    pay = np.maximum(terminal - K, 0.0)
    alive = pay > 0.0
    return math.exp(-r * tau) * float(
        np.exp(log_weight[alive] + np.log(pay[alive])).sum())


# --- Closed form ---

def test_closed_form_frozen_values():
    assert closed_form_call(8.0, STRIKE, 0.05, 0.02, 0.1, 1.0) == pytest.approx(
        ATM_CALL, abs=FREEZE_TOL)
    assert closed_form_call(10.0, STRIKE, 0.05, 0.02, 0.1, 1.0) == pytest.approx(
        ITM_CALL_AT_10, abs=FREEZE_TOL)


def test_closed_form_agrees_with_binomial_lattice():
    lattice = _binomial_call(8.0, STRIKE, 0.05, 0.02, 0.1, 1.0, n=50_000)
    assert closed_form_call(8.0, STRIKE, 0.05, 0.02, 0.1, 1.0) == pytest.approx(
        lattice, abs=5e-6)


def test_closed_form_expiry_is_intrinsic():
    assert closed_form_call(10.0, STRIKE, 0.05, 0.02, 0.1, 0.0) == 2.0
    assert closed_form_call(6.0, STRIKE, 0.05, 0.02, 0.1, 0.0) == 0.0


def test_closed_form_handles_arrays_and_scalars():
    spots = np.array([4.0, 8.0, 16.0])
    vec = closed_form_call(spots, STRIKE, 0.05, 0.02, 0.1, 1.0)
    assert vec.shape == (3,)
    assert vec[1] == pytest.approx(ATM_CALL, abs=FREEZE_TOL)
    assert isinstance(closed_form_call(8.0, STRIKE, 0.05, 0.02, 0.1, 1.0), float)


def test_closed_form_is_increasing_and_convex_in_spot():
    s = np.linspace(2.0, 32.0, 301)
    v = closed_form_call(s, STRIKE, 0.05, 0.02, 0.1, 1.0)
    assert np.all(np.diff(v) >= 0.0)
    assert np.all(np.diff(v, 2) >= -1e-12)


def test_closed_form_delta_frozen_value_and_consistency():
    assert closed_form_call_delta(8.0, STRIKE, 0.05, 0.02, 0.1, 1.0) == pytest.approx(
        ATM_DELTA, abs=FREEZE_TOL)
    # the delta is the S-derivative of the price
    h = 1e-5
    for s in (5.0, 8.0, 13.0):
        fd = (closed_form_call(s + h, STRIKE, 0.05, 0.02, 0.1, 1.0)
              - closed_form_call(s - h, STRIKE, 0.05, 0.02, 0.1, 1.0)) / (2.0 * h)
        assert closed_form_call_delta(s, STRIKE, 0.05, 0.02, 0.1, 1.0) == pytest.approx(
            fd, abs=1e-8)


def test_closed_form_delta_expiry_is_the_indicator():
    assert closed_form_call_delta(10.0, STRIKE, 0.05, 0.02, 0.1, 0.0) == 1.0
    assert closed_form_call_delta(6.0, STRIKE, 0.05, 0.02, 0.1, 0.0) == 0.0


def _norm_cdf_call(S, K, r, carry, sigma, tau):
    """The closed form as written against scipy.stats.norm."""
    S = np.asarray(S, dtype=float)
    if tau <= 0.0:
        return np.maximum(S - K, 0.0)
    srt = sigma * np.sqrt(tau)
    F = S * np.exp(carry * tau)
    d1 = (np.log(F / K) + 0.5 * sigma ** 2 * tau) / srt
    return np.exp(-r * tau) * (F * norm.cdf(d1) - K * norm.cdf(d1 - srt))


def _norm_cdf_delta(S, K, r, carry, sigma, tau):
    S = np.asarray(S, dtype=float)
    if tau <= 0.0:
        return np.where(S > K, 1.0, 0.0)
    d1 = (np.log(S / K) + (carry + 0.5 * sigma ** 2) * tau) / (sigma * np.sqrt(tau))
    return np.exp((carry - r) * tau) * norm.cdf(d1)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("tau", [1.0, 0.25, 1e-6, 0.0])
@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_closed_form_is_the_norm_cdf_formula_bit_for_bit(tau, sigma):
    # the desk ATM node (the atm_abs_err reference), deep out and deep in the money
    desk = build_space_grid(desk_grid())
    atm = float(desk.spots[desk.nearest_index(math.log(STRIKE))])
    spots = np.concatenate([[atm, 1e-3, 0.5, 2.0, 32.0, 1e3, 1e6], desk.spots])
    args = dict(K=STRIKE, r=0.05, carry=0.02, sigma=sigma, tau=tau)
    for ours, ref in ((closed_form_call, _norm_cdf_call),
                      (closed_form_call_delta, _norm_cdf_delta)):
        np.testing.assert_array_equal(_bits(ours(spots, **args)), _bits(ref(spots, **args)))
        for s in spots[:7]:
            assert _bits(ours(float(s), **args)) == _bits(ref(float(s), **args))


# --- Adjustment profiles ---

def test_cva_profile_is_a_cost_and_pins_at_the_money(both_marches):
    prob = desk_problem()
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    for _ in both_marches():
        cva = cva_profile(prob)
        assert np.all(cva <= 1e-15)
        assert float(cva[i]) == pytest.approx(ATM_CVA, abs=1e-9)


def test_cost_gap_is_nonnegative_for_the_convex_call():
    prob = desk_problem(C_S=0.0)
    gap = compare_models(prob)
    assert float(gap.min()) >= 0.0
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    assert float(gap[i]) > 1e-3


# --- Sweeps ---

def test_sweep_rejects_bad_requests():
    prob = desk_problem(grid=desk_grid(n_time=4))
    with pytest.raises(ValueError, match="not a model parameter"):
        sweep(prob, "strike", [1.0, 2.0])
    with pytest.raises(ValueError, match="at least one"):
        sweep(prob, "lambda_C", [])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(prob, "lambda_C", [0.02, 0.01])


def test_sweep_records_failures_and_keeps_going():
    prob = desk_problem(grid=desk_grid(n_time=20))
    res = sweep(prob, "C_S", [0.0, 0.002, 0.004, 0.01])
    assert res.values == (0.0, 0.002, 0.004, 0.01)
    # 0.01 breaches the condition-1 cost floor sigma/sqrt(2/(pi*dt)) = 0.0078
    assert list(res.errors) == [0.01]
    assert "WellPosednessViolation" in res.errors[0.01]
    assert res.prices[3] is None and res.cvas[3] is None
    for k in range(3):
        assert res.prices[k] is not None
        assert len(res.prices[k]) == len(res.spots)


def test_sweep_prices_fall_as_the_share_cost_rises():
    prob = desk_problem(grid=desk_grid(n_time=40))
    res = sweep(prob, "C_S", [0.0, 0.002, 0.004])
    i = build_space_grid(prob.grid).nearest_index(math.log(STRIKE))
    atm = [float(price[i]) for price in res.prices]
    assert atm[0] > atm[1] > atm[2]


def test_sweep_members_equal_their_lone_solves():
    """Members march stacked with their RiskFree twins, grouped by sub-step
    count (sigma 0.1 -> 0.3 crosses nsub 1 -> 10 at N = 60, M = 20); each
    member's price and cva are bit for bit those of its own two solves."""
    prob = desk_problem(grid=desk_grid(n_space=60, n_time=20))
    values = [0.1, 0.15, 0.2, 0.3]
    res = sweep(prob, "sigma", values)
    assert res.errors == {}
    for v, price, cva in zip(values, res.prices, res.cvas):
        member = replace(prob, params=replace(prob.params, sigma=v))
        alone = solve(member).terminal
        np.testing.assert_array_equal(price, alone)
        np.testing.assert_array_equal(
            cva, alone - solve(replace(member, variant=ModelVariant.RISK_FREE)).terminal)


def test_sweep_csv_is_long_format_and_skips_failures(tmp_path):
    prob = desk_problem(grid=desk_grid(n_space=10, n_time=4))
    res = sweep(prob, "C_S", [0.0, 0.01])   # second member fails
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,value,S,price,cva"
    assert len(lines) == 1 + 11             # one successful member, 11 nodes
    assert all(line.startswith("C_S,0,") for line in lines[1:])
