"""Terminal payoffs and Dirichlet boundary data in log-price space.

The far wall of a call or put is the deep in-the-money affine value
V = A(tau)*S - B(tau)*K. The strike leg discounts at the positive-exposure
rate r + s_F + lambda_C*(1-R_C); the stock leg compounds at the rate the
forward-drift stencil itself realizes on e^x at the wall spacing (the grid
continued one cell past the wall by its last ratio). Pinning the stock leg
at its continuous-limit rate instead leaves the wall a first-order-in-h
step behind the interior march, which surfaces as a concave kink in the
value and a Delta dip over the last few nodes. Both legs agree with the
payoff at tau = 0, and the dead-side wall is zero. Custom instruments hold
their endpoint payoff values fixed; an instrument keeps their samples as
the read-only float64 copy it checked, so a later write to the caller's
list or array changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingPayoff
from .grid import SpaceGrid
from .model import (ModelParams, _finite, cpty_cost_rate, positive_exposure_rate,
                    variance_and_drift)

__all__ = ["Instrument", "payoff", "boundary_curves", "curve_values", "boundary_values"]

KINDS = ("call", "put", "custom")


@dataclass(frozen=True, eq=False)
class Instrument:
    kind: str = "call"
    strike: float = 8.0
    custom_payoff: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not _finite(self.strike):
            raise ValueError(f"strike must be a finite number, got {self.strike!r}")
        if not self.strike > 0.0:
            raise ValueError("strike must be positive")
        if self.custom_payoff is None:
            return
        try:  # a list of finite numbers; payoff checks its length against the grid
            g = np.array(self.custom_payoff, dtype=float)  # a copy, kept read-only below
        except OverflowError:  # an int too large for a float, named as a NaN is
            g = np.array(self.custom_payoff, dtype=object)  # a wrong shape is named below
            if g.ndim == 1:
                k, v = next((k, v) for k, v in enumerate(g.tolist()) if not _finite(v))
                raise ValueError(f"custom_payoff[{k}] must be a finite number, got {v!r}") from None
        except (TypeError, ValueError):
            raise ValueError("custom_payoff must be a list of numbers") from None
        if g.ndim != 1:
            raise ValueError(f"custom_payoff must be a list of numbers, got shape {g.shape}")
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"custom_payoff[{k}] must be a finite number, got {float(g[k])!r}")
        g.flags.writeable = False
        object.__setattr__(self, "custom_payoff", g)


def payoff(inst: Instrument, grid: SpaceGrid) -> np.ndarray:
    """Terminal value g(x_i) over the grid nodes."""
    if inst.kind == "call":
        return np.maximum(grid.spots - inst.strike, 0.0)
    if inst.kind == "put":
        return np.maximum(inst.strike - grid.spots, 0.0)
    if inst.custom_payoff is None:
        raise MissingPayoff("custom instrument has no payoff samples")
    g = inst.custom_payoff
    if g.size != grid.nodes.size:
        raise MissingPayoff(
            f"custom payoff has {g.size} samples but the grid has {grid.nodes.size} nodes")
    return g.copy()


def _wall_stock_rate(p: ModelParams, hb: float, hf: float, cost_sign: float) -> float:
    """Exponential rate of the stock leg under the discrete operator.

    Applies the interior stencil to e^x with backward/forward spacings
    (hb, hf) and divides out e^x: the second difference contributes d2, the
    forward first difference d1. Both tend to 1 as the spacings vanish,
    recovering the continuous rate q_S - gamma_S - r - rho_plus -+ kappa.
    """
    var, drift = variance_and_drift(p)
    d2 = (2.0 * (math.exp(-hb) - 1.0) / (hb * (hb + hf))
          + 2.0 * (math.exp(hf) - 1.0) / (hf * (hb + hf)))
    d1 = (math.exp(hf) - 1.0) / hf
    return (0.5 * var * d2 + drift * d1 - p.r - positive_exposure_rate(p)
            + cost_sign * cpty_cost_rate(p) * d1)


def boundary_curves(inst: Instrument, grid: SpaceGrid, p: ModelParams):
    """Dirichlet data as curves in backward time, tau-free factors hoisted.

    Returns ``(lower, upper)``, each wall as the coefficients (P, p, Q, q)
    of P*exp(p*tau) - Q*exp(q*tau): every wall has that shape, and a
    constant c is (c, 0, 0, 0), exact since exp(0) is 1. ``curve_values``
    evaluates them. ``p`` should already be variant-filtered; the far wall
    reads the funding/credit and cost inputs off it.
    """
    if inst.kind == "custom":
        g = payoff(inst, grid)
        return _constant(float(g[0])), _constant(float(g[-1]))

    h = grid.h
    K = inst.strike
    rho = p.r + positive_exposure_rate(p)  # deep ITM value is positive either kind
    if inst.kind == "call":
        # the wall node's own spacings: h into the wall, last ratio beyond it
        g_s = _wall_stock_rate(p, h[-1], h[-1] * h[-1] / h[-2], -1.0)
        return _constant(0.0), (math.exp(grid.nodes[-1]), g_s, K, -rho)
    g_s = _wall_stock_rate(p, h[0] * h[0] / h[1], h[0], +1.0)
    return (K, -rho, math.exp(grid.nodes[0]), g_s), _constant(0.0)


def _constant(value: float) -> tuple[float, float, float, float]:
    return value, 0.0, 0.0, 0.0


def curve_values(curves, taus) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) walls of ``boundary_curves`` at the given taus.

    Each exponential goes through ``math.exp``, one tau at a time, so each
    value is the one the formula gives for that tau alone; a factor that
    overflows reads as inf, so a wall that outgrows the floats turns
    non-finite instead of raising. A constant wall needs no exponential.
    """
    return tuple(np.full(len(taus), P - Q) if p == q == 0.0 else
                 np.array([P * _exp(p * t) - Q * _exp(q * t) for t in taus], dtype=float)
                 for P, p, Q, q in curves)


def _exp(x: float) -> float:
    """``math.exp``, with an overflow read as inf instead of raised."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def boundary_values(inst: Instrument, grid: SpaceGrid, tau: float,
                    p: ModelParams) -> tuple[float, float]:
    """Dirichlet data (lower, upper) at backward time tau; see boundary_curves."""
    lo, hi = curve_values(boundary_curves(inst, grid, p), [tau])
    return float(lo[0]), float(hi[0])
