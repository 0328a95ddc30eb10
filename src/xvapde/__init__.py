"""Pricing engine for derivatives under bilateral counterparty risk, funding
costs, and proportional transaction costs.

The value function solves a nonlinear extension of the lognormal pricing
PDE: trading costs on the share shrink the effective variance, and
funding/credit exposure plus counterparty-bond rebalancing costs enter as a
nonlinear source. The solver marches the payoff backward on a sinh-stretched
log-price grid with an explicit scheme that sub-steps itself below its
stability bound; variants of one scenario share their grid build, and
all of a grid's rows march in one kernel call.

The package imports lazily (PEP 562): ``import xvapde`` loads no submodule
and no numpy, and the first read of any public name binds all of them at
once, as an eager import would. So ``python -m xvapde.cli`` runs the CLI
module before anything loads numpy.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "analytics": ("SweepResult", "closed_form_call", "closed_form_call_delta",
                  "compare_models", "cva_profile", "sweep"),
    "errors": ("ConfigError", "EngineError", "InvalidSpec", "MissingPayoff",
               "ModelAssumptionWarning", "NonFiniteValue", "WellPosednessViolation"),
    "greeks": ("GreeksReport", "HedgeNotionals", "greeks_report", "hedge_notionals"),
    "grid": ("GridSpec", "SpaceGrid", "build_space_grid", "stability_bound"),
    "instrument": ("Instrument",),
    "model": ("ConditionReport", "ModelParams", "ModelVariant", "check_condition1",
              "cpty_cost_rate", "modified_variance", "turnover_factor", "validity_checks"),
    "solver": ("Problem", "Surface", "solve", "solve_stack"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """Bind every public name on the first read of any one of them.

    All at once, never one by one: afterwards the names are plain module
    attributes, so ``vars(xvapde)`` holds the same objects as each
    submodule and no later read comes back here.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    for module, names in _EXPORTS.items():
        mod = import_module(f".{module}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
