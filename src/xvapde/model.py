"""Model parameters, variant filtering, and validity checks.

The engine prices a derivative whose seller hedges market risk with the
underlying share and hedges both default legs with issuer and counterparty
bonds, paying proportional costs on every rebalancing trade. Costs enter
two ways: expected share turnover shrinks the effective variance,

    sigma_hat^2 = sigma^2 * (1 - sqrt(2/(pi*dt)) * C_S / sigma),

and trading counterparty bonds adds a sink proportional to |dV/dx|. Three
nested variants of the same equation are exposed: a risk-free baseline,
the credit/funding-adjusted model, and the full model with costs.

The check_condition* functions are the well-posedness guards: (1) the
modified variance must stay positive (hard error in the solver), (2) the
source term must stay contractive, (3 is the payoff growth bound, free for
vanilla options) and (4) the share drift must stay below the effective
discount rates (both advisory).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import WellPosednessViolation

__all__ = [
    "ModelParams",
    "ModelVariant",
    "ConditionReport",
    "turnover_factor",
    "modified_variance",
    "variance_and_drift",
    "cpty_cost_rate",
    "positive_exposure_rate",
    "negative_exposure_rate",
    "effective_rates",
    "condition2_value",
    "condition4_bound",
    "check_condition1",
    "check_condition2",
    "check_condition4",
    "validity_checks",
]


@dataclass(frozen=True)
class ModelParams:
    r: float         # risk-free short rate
    q_S: float       # financing rate earned on the share hedge
    gamma_S: float   # dividend yield paid by the share
    sigma: float     # lognormal volatility of the share
    s_F: float       # funding spread of the issuer
    lambda_B: float  # issuer default intensity
    lambda_C: float  # counterparty default intensity
    R_B: float       # issuer recovery
    R_C: float       # counterparty recovery
    C_S: float       # proportional cost of trading the share
    C_B: float       # proportional cost of trading issuer bonds
    C_C: float       # proportional cost of trading counterparty bonds
    dt: float        # rehedging interval backing the cost terms

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        for name in ("R_B", "R_C"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("lambda_B", "lambda_C", "C_S", "C_B", "C_C"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


class ModelVariant(enum.Enum):
    """Which adjustments participate in a solve.

    RISK_FREE zeroes every credit, funding, and cost input; BK keeps credit
    and funding but zeroes the three cost coefficients; BKTC runs the full
    model. The values are the wire tags used in scenario configs.
    """

    RISK_FREE = "RiskFree"
    BK = "BK"
    BKTC = "BKTC"

    def apply(self, p: ModelParams) -> ModelParams:
        """Return ``p`` with the adjustments this variant excludes forced to zero."""
        if self is ModelVariant.RISK_FREE:
            return replace(p, s_F=0.0, lambda_B=0.0, lambda_C=0.0,
                           C_S=0.0, C_B=0.0, C_C=0.0)
        if self is ModelVariant.BK:
            return replace(p, C_S=0.0, C_B=0.0, C_C=0.0)
        return p


def turnover_factor(dt: float) -> float:
    """sqrt(2/(pi*dt)): expected hedge turnover per unit time for interval dt."""
    return math.sqrt(2.0 / (math.pi * dt))


def _cost_floor(p: ModelParams) -> float:
    """sqrt(2/(pi*dt))*C_S: the volatility condition 1 asks sigma to exceed."""
    return turnover_factor(p.dt) * p.C_S


def modified_variance(p: ModelParams) -> float:
    """Cost-adjusted squared volatility sigma^2 * (1 - sqrt(2/(pi*dt))*C_S/sigma).

    Raises WellPosednessViolation when the share-cost drag makes the value
    nonpositive; the pricing equation would turn backward-parabolic.
    """
    v = p.sigma ** 2 * (1.0 - _cost_floor(p) / p.sigma)
    if v <= 0.0:
        raise WellPosednessViolation(
            "condition1 violated: sigma = {:.6g} does not exceed the cost floor "
            "sqrt(2/(pi*dt))*C_S = {:.6g}".format(p.sigma, _cost_floor(p))
        )
    return v


def variance_and_drift(p: ModelParams) -> tuple[float, float]:
    """(sigma_hat^2, q_S - gamma_S - sigma_hat^2/2): diffusion and drift of log S."""
    sig2 = modified_variance(p)
    return sig2, p.q_S - p.gamma_S - 0.5 * sig2


def cpty_cost_rate(p: ModelParams) -> float:
    """sigma*sqrt(2/(pi*dt))*C_C*(1-R_C): counterparty-bond cost per unit |dV/dx|."""
    return p.sigma * turnover_factor(p.dt) * p.C_C * (1.0 - p.R_C)


def positive_exposure_rate(p: ModelParams) -> float:
    """s_F + lambda_C*(1-R_C): the rate multiplying max(V, 0) in the source."""
    return p.s_F + p.lambda_C * (1.0 - p.R_C)


def negative_exposure_rate(p: ModelParams) -> float:
    """(lambda_B - r*C_B)*(1-R_B): the rate multiplying min(V, 0) in the source.

    Negative only for the degenerate input lambda_B < r*C_B, which the solver
    accepts but flags with a warning.
    """
    return (p.lambda_B - p.r * p.C_B) * (1.0 - p.R_B)


def effective_rates(p: ModelParams) -> tuple[float, float]:
    """(r_1, r_2): the rates condition 4 is built on.

    r_1 = r - [s_F + lambda_C*(1-R_C)] and r_2 = r - (lambda_B - r*C_B)*(1-R_B),
    the risk-free rate less the positive and the negative exposure rate.
    They are not the discount rates of the march: an all-positive solution
    is discounted at r + [s_F + lambda_C*(1-R_C)] (the source adds the
    positive exposure rate to r), and an all-negative one at
    r + (lambda_B - r*C_B)*(1-R_B).
    """
    return p.r - positive_exposure_rate(p), p.r - negative_exposure_rate(p)


def condition2_value(p: ModelParams) -> float:
    """Source bracket [s_F + lambda_C(1-R_C)] + 2(lambda_B - r C_B)(1-R_B) + cost rate."""
    return (positive_exposure_rate(p)
            + 2.0 * negative_exposure_rate(p)
            + cpty_cost_rate(p))


def condition4_bound(p: ModelParams, S_max: float) -> float:
    """M = max(r_1 + S_max * cost rate, r_2): admissible ceiling for q_S - gamma_S."""
    r1, r2 = effective_rates(p)
    return max(r1 + S_max * cpty_cost_rate(p), r2)


def check_condition1(p: ModelParams) -> bool:
    """True iff sigma > sqrt(2/(pi*dt))*C_S, i.e. the modified variance is positive."""
    return p.sigma > _cost_floor(p)


def check_condition2(p: ModelParams, c: float = 1.0) -> bool:
    """True iff c * condition2_value(p) < 1 for the caller's constant c."""
    return c * condition2_value(p) < 1.0


def check_condition4(p: ModelParams, S_max: float) -> bool:
    """True iff q_S - gamma_S < condition4_bound(p, S_max)."""
    return p.q_S - p.gamma_S < condition4_bound(p, S_max)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    detail: str


def _sides(x: float, y: float) -> tuple[str, str]:
    """Two compared numbers at 6 significant digits, or at 17 when 6 print
    them the same, so that a report never reads like a tie it is not."""
    spec = ".17g" if f"{x:.6g}" == f"{y:.6g}" else ".6g"
    return format(x, spec), format(y, spec)


def validity_checks(p: ModelParams, S_max: float, c: float = 1.0) -> list[ConditionReport]:
    """Evaluate the three checks and report the numbers behind each verdict."""
    sigma, floor = _sides(p.sigma, _cost_floor(p))
    value, one = _sides(c * condition2_value(p), 1.0)
    drift, bound = _sides(p.q_S - p.gamma_S, condition4_bound(p, S_max))
    return [
        ConditionReport(
            "condition1", check_condition1(p),
            f"sigma = {sigma} vs cost floor sqrt(2/(pi*dt))*C_S = {floor}"),
        ConditionReport(
            "condition2", check_condition2(p, c),
            f"c * bracket = {c:.6g} * {condition2_value(p):.6g} = {value} vs {one}"),
        ConditionReport(
            "condition4", check_condition4(p, S_max),
            f"q_S - gamma_S = {drift} vs M = {bound} at S_max = {S_max:.6g}"),
    ]
