"""Parameter plumbing, variant filtering, and the well-posedness checks.

Derived constants were frozen from a 50-digit mpmath evaluation of the
closed-form expressions at the desk scenario (dt = 1/261).
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvapde import (
    ModelParams,
    ModelVariant,
    WellPosednessViolation,
    check_condition1,
    cpty_cost_rate,
    modified_variance,
    turnover_factor,
    validity_checks,
)
from xvapde.model import (
    check_condition2,
    check_condition4,
    condition2_value,
    condition4_bound,
    effective_rates,
    negative_exposure_rate,
    positive_exposure_rate,
)

from helpers import desk_params

TOL = 1e-15

# frozen at dt = 1/261, desk parameters
TURNOVER_DESK = 12.890219570974683
MODIFIED_VARIANCE_DESK = 0.0074219560858050635
COST_FLOOR_DESK = 0.025780439141949365
KAPPA_DESK = 0.00077341317425848096
CONDITION2_BRACKET_DESK = 0.066713413174258481
CONDITION4_M_DESK = 0.068749221576271391
R1_DESK = 0.044
R2_DESK = 0.02003


# --- Parameter validation ---

def test_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma"):
        desk_params(sigma=0.0)


def test_rejects_nonpositive_dt():
    with pytest.raises(ValueError, match="dt"):
        desk_params(dt=-1.0)


@pytest.mark.parametrize("name", ["R_B", "R_C"])
def test_rejects_recovery_outside_unit_interval(name):
    with pytest.raises(ValueError, match=name):
        desk_params(**{name: 1.2})


@pytest.mark.parametrize("name", ["lambda_B", "lambda_C", "C_S", "C_B", "C_C"])
def test_rejects_negative_rates_and_costs(name):
    with pytest.raises(ValueError, match=name):
        desk_params(**{name: -0.01})


@pytest.mark.parametrize("name, value, message", [
    ("sigma", 1e200, "sigma must have a positive finite square, got 1e+200"),
    ("sigma", 1.4e154, "sigma must have a positive finite square, got 1.4e+154"),
    ("sigma", 1e-200, "sigma must have a positive finite square, got 1e-200"),
    ("dt", 1e-310, "dt must have a finite turnover factor sqrt(2/(pi*dt)), got 1e-310"),
    ("dt", 5e-324, "dt must have a finite turnover factor sqrt(2/(pi*dt)), got 5e-324"),
], ids=["sigma-1e200", "sigma-1.4e154", "sigma-1e-200", "dt-1e-310", "dt-smallest"])
def test_rejects_a_sigma_or_dt_whose_variance_would_not_be_a_number(name, value, message):
    """A huge sigma**2 raises OverflowError, and one that underflows to 0
    makes the variance 0*-inf = NaN once the cost floor passes sigma;
    sqrt(2/(pi*dt)) would be inf, and times C_S = 0, as every RiskFree and
    BK member has, NaN."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        desk_params(**{name: value})


@given(sigma=st.floats(1e-300, 1e300), dt=st.floats(5e-324, 1e300),
       c_s=st.just(0.0) | st.floats(0.0, 1e300))
@settings(max_examples=300, deadline=None)
def test_accepted_params_give_a_variance_or_break_condition_1(sigma, dt, c_s):
    """A sigma and dt that ModelParams accepts give a positive finite
    modified variance or a WellPosednessViolation, never an OverflowError or
    a NaN; one it rejects is named in the ValueError."""
    try:
        p = desk_params(sigma=sigma, dt=dt, C_S=c_s)
    except ValueError as exc:
        assert str(exc).startswith(("sigma must have a positive finite square",
                                    "dt must have a finite turnover factor"))
        return
    try:
        v = modified_variance(p)
    except WellPosednessViolation:
        return
    assert math.isfinite(v) and v > 0.0


# 10**400 is finite as an int, but no float holds it
NON_FINITE = [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-10**400")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", list(vars(desk_params())))
def test_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        desk_params(**{name: value})


def test_rejects_an_int_sigma_whose_square_no_float_holds():
    """The exact square of an int sigma of 10**200 is an int, finite as such;
    modified_variance would overflow converting it, so it fails here."""
    with pytest.raises(ValueError, match=f"^sigma must have a positive finite square, "
                                         f"got {10**200}$"):
        desk_params(sigma=10**200)


# --- Variant filtering ---

def test_risk_free_variant_zeroes_every_adjustment():
    p = ModelVariant.RISK_FREE.apply(desk_params())
    assert (p.s_F, p.lambda_B, p.lambda_C, p.C_S, p.C_B, p.C_C) == (0.0,) * 6
    assert (p.r, p.q_S, p.gamma_S, p.sigma) == (0.05, 0.05, 0.03, 0.1)


def test_bk_variant_keeps_credit_zeroes_costs():
    p = ModelVariant.BK.apply(desk_params())
    assert (p.C_S, p.C_B, p.C_C) == (0.0, 0.0, 0.0)
    assert (p.lambda_B, p.lambda_C, p.s_F) == (0.05, 0.01, 0.0)


def test_bktc_variant_is_identity():
    p = desk_params()
    assert ModelVariant.BKTC.apply(p) == p


def test_variant_apply_is_idempotent():
    p = desk_params()
    for v in ModelVariant:
        assert v.apply(v.apply(p)) == v.apply(p)


# --- Derived rates ---

def test_turnover_factor_frozen_value():
    assert turnover_factor(1.0 / 261.0) == pytest.approx(TURNOVER_DESK, abs=TOL)


def test_modified_variance_frozen_value():
    assert modified_variance(desk_params()) == pytest.approx(
        MODIFIED_VARIANCE_DESK, abs=TOL)


def test_modified_variance_without_share_cost_is_plain_variance():
    assert modified_variance(desk_params(C_S=0.0)) == pytest.approx(0.01, abs=TOL)


def test_modified_variance_raises_below_cost_floor():
    with pytest.raises(WellPosednessViolation, match="cost floor"):
        modified_variance(desk_params(sigma=0.02))


def test_cpty_cost_rate_frozen_value():
    assert cpty_cost_rate(desk_params()) == pytest.approx(KAPPA_DESK, abs=TOL)


def test_exposure_rates():
    p = desk_params()
    assert positive_exposure_rate(p) == pytest.approx(0.01 * 0.6, abs=TOL)
    assert negative_exposure_rate(p) == pytest.approx(
        (0.05 - 0.05 * 0.001) * 0.6, abs=TOL)


def test_effective_rates_frozen_values():
    r1, r2 = effective_rates(desk_params())
    assert r1 == pytest.approx(R1_DESK, abs=TOL)
    assert r2 == pytest.approx(R2_DESK, abs=TOL)


def test_condition2_bracket_frozen_value():
    assert condition2_value(desk_params()) == pytest.approx(
        CONDITION2_BRACKET_DESK, abs=TOL)


def test_condition4_bound_frozen_value():
    assert condition4_bound(desk_params(), S_max=32.0) == pytest.approx(
        CONDITION4_M_DESK, abs=TOL)


# --- Well-posedness checks ---

def test_condition1_matches_cost_floor():
    assert check_condition1(desk_params())
    assert not check_condition1(desk_params(sigma=COST_FLOOR_DESK))
    assert check_condition1(desk_params(sigma=COST_FLOOR_DESK + 1e-12))


def test_condition2_scales_with_contraction_constant():
    p = desk_params()
    assert check_condition2(p)
    assert check_condition2(p, c=14.0)   # 14 * 0.0667 = 0.934 < 1
    assert not check_condition2(p, c=20.0)


def test_condition4_flags_excessive_drift():
    assert check_condition4(desk_params(), S_max=32.0)
    assert not check_condition4(desk_params(q_S=0.2), S_max=32.0)


def test_validity_checks_worked_examples():
    """The three scenario verdicts the validator documents."""
    fig = {r.name: r.passed for r in validity_checks(desk_params(), S_max=32.0)}
    assert fig == {"condition1": True, "condition2": True, "condition4": True}

    lowvol = {r.name: r.passed
              for r in validity_checks(desk_params(sigma=0.02), S_max=32.0)}
    assert lowvol["condition1"] is False

    bigc = {r.name: r.passed
            for r in validity_checks(desk_params(), S_max=32.0, c=20.0)}
    assert bigc["condition2"] is False


def test_validity_checks_report_the_numbers():
    reports = validity_checks(desk_params(), S_max=32.0)
    assert [r.name for r in reports] == ["condition1", "condition2", "condition4"]
    assert "0.0257804" in reports[0].detail
    assert "0.0667134" in reports[1].detail
    assert "0.0687492" in reports[2].detail


def test_validity_checks_print_sides_that_tie_at_6_digits_in_full():
    p = desk_params()
    floor = turnover_factor(p.dt) * p.C_S
    tied = validity_checks(desk_params(sigma=floor * (1.0 + 1e-9)), S_max=32.0)[0]
    assert tied.detail == (f"sigma = {floor * (1.0 + 1e-9):.17g} vs cost floor "
                           f"sqrt(2/(pi*dt))*C_S = {floor:.17g}")
    assert validity_checks(p, S_max=32.0)[0].detail == (
        f"sigma = 0.1 vs cost floor sqrt(2/(pi*dt))*C_S = {floor:.6g}")


# --- Properties ---

@given(sigma=st.floats(1e-3, 2.0), c_s=st.floats(0.0, 0.1), dt=st.floats(1e-4, 0.5))
@settings(max_examples=200, deadline=None)
def test_condition1_agrees_with_modified_variance(sigma, c_s, dt):
    """check_condition1 is exactly the predicate modified_variance enforces."""
    p = desk_params(sigma=sigma, C_S=c_s, dt=dt)
    if check_condition1(p):
        assert modified_variance(p) > 0.0
    else:
        with pytest.raises(WellPosednessViolation):
            modified_variance(p)


@given(lam=st.floats(0.0, 0.5), rec=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_positive_exposure_rate_linear_in_loss_given_default(lam, rec):
    p = desk_params(s_F=0.0, lambda_C=lam, R_C=rec)
    assert positive_exposure_rate(p) == pytest.approx(lam * (1.0 - rec), abs=TOL)
