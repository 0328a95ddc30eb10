"""Cross-model analytics: closed-form oracle, CVA profiles, cost gaps, sweeps.

The closed form prices the European call under lognormal dynamics with a
cost-of-carry: with F = S*exp(carry*tau),

    call = exp(-r*tau) * (F*N(d1) - K*N(d2)),
    d1 = (log(F/K) + sigma^2*tau/2) / (sigma*sqrt(tau)),  d2 = d1 - sigma*sqrt(tau).

It is the reference the risk-free PDE solve is held against. CVA here is
the all-in adjustment solve(variant) - solve(RISK_FREE) at tau = T, negative
when the adjustments are a cost to the seller.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .csvio import write_rows
from .errors import EngineError
from .grid import build_space_grid
from .model import ModelParams, ModelVariant
from .solver import Problem, _solve_stack, solved

__all__ = ["closed_form_call", "closed_form_call_delta", "cva_rows", "cva_profile",
           "compare_models", "sweep", "SweepResult"]

_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))


def closed_form_call(S, K: float, r: float, carry: float, sigma: float, tau: float):
    """Lognormal European call with cost-of-carry; tau = 0 returns the intrinsic."""
    from scipy.special import ndtr  # the standard normal cdf; scipy loads only here

    S = np.asarray(S, dtype=float)
    if tau <= 0.0:
        out = np.maximum(S - K, 0.0)
        return out if out.ndim else float(out)
    srt = sigma * np.sqrt(tau)
    F = S * np.exp(carry * tau)
    d1 = (np.log(F / K) + 0.5 * sigma ** 2 * tau) / srt
    d2 = d1 - srt
    out = np.exp(-r * tau) * (F * ndtr(d1) - K * ndtr(d2))
    return out if out.ndim else float(out)


def closed_form_call_delta(S, K: float, r: float, carry: float, sigma: float, tau: float):
    """dV/dS of the closed-form call."""
    from scipy.special import ndtr

    S = np.asarray(S, dtype=float)
    if tau <= 0.0:
        out = np.where(S > K, 1.0, 0.0)
        return out if out.ndim else float(out)
    srt = sigma * np.sqrt(tau)
    d1 = (np.log(S / K) + (carry + 0.5 * sigma ** 2) * tau) / srt
    out = np.exp((carry - r) * tau) * ndtr(d1)
    return out if out.ndim else float(out)


def _with_risk_free(prob: Problem) -> tuple[Problem, Problem]:
    """``prob`` and its RiskFree twin, the pair a CVA subtracts."""
    return prob, replace(prob, variant=ModelVariant.RISK_FREE)


def cva_rows(prob: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal rows (price, risk-free price, price - risk-free price), per node."""
    price, risk_free = (solved(row) for row in _solve_stack(_with_risk_free(prob)))
    return price, risk_free, price - risk_free


def cva_profile(prob: Problem) -> np.ndarray:
    """Terminal-row adjustment solve(variant) - solve(RISK_FREE), per node."""
    return cva_rows(prob)[2]


def compare_models(prob: Problem) -> np.ndarray:
    """Terminal-row cost-of-costs gap solve(BK) - solve(BKTC), per node.

    Both solves are ``prob`` under those variants; ``prob.variant`` is not
    read. Nonnegative for convex payoffs: every cost term lowers the seller's price.
    """
    bk, bktc = (solved(row) for row in _solve_stack(
        [replace(prob, variant=ModelVariant.BK), replace(prob, variant=ModelVariant.BKTC)]))
    return bk - bktc


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One-parameter sweep output.

    prices[k] and cvas[k] are terminal-row curves for values[k], or None when
    that member failed; errors maps the failed value to the failure text.
    """

    parameter: str
    values: tuple[float, ...]
    prices: tuple
    cvas: tuple
    spots: np.ndarray
    variant: ModelVariant
    errors: dict[float, str]

    def to_csv(self, path) -> None:
        """Long format: one row per (value, node) of every member that solved."""
        write_rows(path, ("parameter", "value", "S", "price", "cva"),
                   [((self.parameter,),
                     np.column_stack([np.full(len(self.spots), v), self.spots, price, cva]))
                    for v, price, cva in zip(self.values, self.prices, self.cvas)
                    if price is not None])


def sweep(base: Problem, parameter: str, values) -> SweepResult:
    """Re-solve ``base`` for each value of one ModelParams field.

    Values must be strictly increasing. A member that fails (bad parameter
    value, ill-posed solve) is recorded under errors and the sweep moves on.
    Every member and its RiskFree twin go through one stack on one grid
    build; RiskFree twins that the swept parameter does not reach plan and
    march once.
    """
    if parameter not in _PARAM_FIELDS:
        raise ValueError(f"{parameter!r} is not a model parameter "
                         f"(one of {', '.join(_PARAM_FIELDS)})")
    vals = tuple(float(v) for v in values)
    if len(vals) == 0:
        raise ValueError("sweep needs at least one value")
    if any(not b > a for a, b in zip(vals, vals[1:])):  # a NaN breaks the order too
        raise ValueError("sweep values must be strictly increasing")

    grid = build_space_grid(base.grid)
    outcomes: dict[float, object] = {}
    pairs = {}
    for v in vals:
        try:
            prob = replace(base, params=replace(base.params, **{parameter: v}))
        except ValueError as exc:
            outcomes[v] = exc
            continue
        pairs[v] = _with_risk_free(prob)
    rows = _solve_stack([m for pair in pairs.values() for m in pair], grids={base.grid: grid})
    for v, price, risk_free in zip(pairs, rows[::2], rows[1::2]):  # the first error, if any
        errors = [row for row in (price, risk_free) if isinstance(row, EngineError)]
        outcomes[v] = errors[0] if errors else (price, price - risk_free)
    failed = {v for v in vals if isinstance(outcomes[v], Exception)}
    return SweepResult(
        parameter=parameter, values=vals,
        prices=tuple(None if v in failed else outcomes[v][0] for v in vals),
        cvas=tuple(None if v in failed else outcomes[v][1] for v in vals),
        spots=grid.spots, variant=base.variant,
        errors={v: f"{type(outcomes[v]).__name__}: {outcomes[v]}" for v in vals if v in failed})
