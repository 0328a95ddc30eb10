"""Pricing engine for derivatives under bilateral counterparty risk, funding
costs, and proportional transaction costs.

The value function solves a nonlinear extension of the lognormal pricing
PDE: trading costs on the share shrink the effective variance, and
funding/credit exposure plus counterparty-bond rebalancing costs enter as a
nonlinear source. The solver marches the payoff backward on a sinh-stretched
log-price grid with an explicit scheme that sub-steps itself below its
monotonicity bound; variants of one scenario march together in one stack.
"""

from .analytics import (
    SweepResult,
    closed_form_call,
    closed_form_call_delta,
    compare_models,
    cva_profile,
    sweep,
)
from .errors import (
    ConfigError,
    EngineError,
    InvalidSpec,
    MissingPayoff,
    ModelAssumptionWarning,
    NonFiniteValue,
    WellPosednessViolation,
)
from .greeks import (
    GreeksReport,
    HedgeNotionals,
    bump_greek,
    delta_gamma,
    greeks_report,
    hedge_notionals,
)
from .grid import GridSpec, SpaceGrid, build_space_grid, build_time_grid, stability_bound
from .instrument import Instrument, boundary_values, payoff
from .model import (
    ConditionReport,
    ModelParams,
    ModelVariant,
    check_condition1,
    check_condition2,
    check_condition4,
    condition2_value,
    condition4_bound,
    cpty_cost_rate,
    effective_rates,
    modified_variance,
    negative_exposure_rate,
    positive_exposure_rate,
    turnover_factor,
    validity_checks,
)
from .solver import (
    Problem,
    Surface,
    nonlinear_source,
    solve,
    solve_pairs,
    solve_stack,
    step,
    step_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "ConfigError",
    "EngineError",
    "GreeksReport",
    "GridSpec",
    "HedgeNotionals",
    "Instrument",
    "InvalidSpec",
    "MissingPayoff",
    "ModelAssumptionWarning",
    "ModelParams",
    "ModelVariant",
    "NonFiniteValue",
    "Problem",
    "SpaceGrid",
    "Surface",
    "SweepResult",
    "WellPosednessViolation",
    "boundary_values",
    "build_space_grid",
    "build_time_grid",
    "bump_greek",
    "check_condition1",
    "check_condition2",
    "check_condition4",
    "closed_form_call",
    "closed_form_call_delta",
    "compare_models",
    "condition2_value",
    "condition4_bound",
    "cpty_cost_rate",
    "cva_profile",
    "delta_gamma",
    "effective_rates",
    "greeks_report",
    "hedge_notionals",
    "modified_variance",
    "negative_exposure_rate",
    "nonlinear_source",
    "payoff",
    "positive_exposure_rate",
    "solve",
    "solve_pairs",
    "solve_stack",
    "stability_bound",
    "step",
    "step_coefficients",
    "sweep",
    "turnover_factor",
    "validity_checks",
]
