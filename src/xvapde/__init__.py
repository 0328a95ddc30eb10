"""Pricing engine for derivatives under bilateral counterparty risk, funding
costs, and proportional transaction costs.

The value function solves a nonlinear extension of the lognormal pricing
PDE: trading costs on the share shrink the effective variance, and
funding/credit exposure plus counterparty-bond rebalancing costs enter as a
nonlinear source. The solver marches the payoff backward on a sinh-stretched
log-price grid with an explicit scheme that sub-steps itself below its
stability bound; variants of one scenario share their grid build and
march one row at a time.
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
from .greeks import GreeksReport, HedgeNotionals, greeks_report, hedge_notionals
from .grid import GridSpec, SpaceGrid, build_space_grid, stability_bound
from .instrument import Instrument
from .model import (
    ConditionReport,
    ModelParams,
    ModelVariant,
    check_condition1,
    cpty_cost_rate,
    modified_variance,
    turnover_factor,
    validity_checks,
)
from .solver import Problem, Surface, solve, solve_pairs, solve_stack

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
    "build_space_grid",
    "check_condition1",
    "closed_form_call",
    "closed_form_call_delta",
    "compare_models",
    "cpty_cost_rate",
    "cva_profile",
    "greeks_report",
    "hedge_notionals",
    "modified_variance",
    "solve",
    "solve_pairs",
    "solve_stack",
    "stability_bound",
    "sweep",
    "turnover_factor",
    "validity_checks",
]
