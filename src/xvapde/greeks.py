"""Greeks and hedge notionals read off a solved surface.

Delta and Gamma come from differentiating one tau level in log space and
mapping back: Delta = V_x / S, Gamma = (V_xx - V_x) / S^2. Interior nodes
use the nonuniform central stencils, the two walls one-sided ones. Vega and
Rho are plain central differences of bumped re-solves: sigma (or r) is
bumped everywhere it appears, including the cost terms, while q_S stays
put. The base and bumped variants are solved together, sharing one grid
build. Each up/down pair marches at the larger sub-step count of the two,
so a bump that crosses the stability bound cannot put two
time-truncation errors into the difference; the base solve keeps its own
sub-step count. Each one-sided wall stencil reads four nodes, so Delta
and Gamma need a grid of at least four nodes (n_space >= 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_rows
from .errors import InvalidSpec, WellPosednessViolation
from .grid import build_space_grid, build_time_grid
from .model import ModelParams
from .solver import Problem, Surface, _solve_stack, solved

__all__ = ["GreeksReport", "HedgeNotionals", "delta_gamma", "bump_greek",
           "greeks_report", "hedge_notionals"]

DEFAULT_EPS = {"vega": 1e-3, "rho": 1e-4}


def _one_sided_weights(offsets: np.ndarray, cubic_term: float) -> np.ndarray:
    """Weights w with sum_j w_j f(x + d_j) = f'(x) + cubic_term f'''(x) + ...

    Given four offsets, the spare degree of freedom pins the f''' coefficient
    rather than zeroing one more Taylor term. The wall stencils pass the
    adjacent interior node's central coefficient hb*hf/6: a sharper wall
    stencil next to the biased central interior makes smooth exponential
    profiles look locally non-monotone across the junction.
    """
    lhs = np.vstack([offsets ** k / math.factorial(k) for k in range(4)])
    return np.linalg.solve(lhs, np.array([0.0, 1.0, 0.0, cubic_term]))


def _dx(row: np.ndarray, grid) -> np.ndarray:
    """First log-space derivative: central stencil inside, one-sided walls."""
    hb, hf = grid.h[:-1], grid.h[1:]
    out = np.empty_like(row)
    out[1:-1] = (-hf / (hb * (hb + hf)) * row[:-2]
                 + (hf - hb) / (hb * hf) * row[1:-1]
                 + hb / (hf * (hb + hf)) * row[2:])
    lo = _one_sided_weights(grid.nodes[:4] - grid.nodes[0], hb[0] * hf[0] / 6.0)
    hi = _one_sided_weights(grid.nodes[-4:] - grid.nodes[-1], hb[-1] * hf[-1] / 6.0)
    out[0] = lo @ row[:4]
    out[-1] = hi @ row[-4:]
    return out


def _dxx(row: np.ndarray, grid) -> np.ndarray:
    """Second log-space derivative via the h_plus/h_minus weights."""
    out = np.empty_like(row)
    out[1:-1] = (grid.h_minus * row[:-2]
                 - (grid.h_plus + grid.h_minus) * row[1:-1]
                 + grid.h_plus * row[2:])
    h1, h2 = grid.h[0], grid.h[1]
    out[0] = 2.0 * (row[0] / (h1 * (h1 + h2)) - row[1] / (h1 * h2)
                    + row[2] / (h2 * (h1 + h2)))
    g1, g2 = grid.h[-1], grid.h[-2]
    out[-1] = 2.0 * (row[-1] / (g1 * (g1 + g2)) - row[-2] / (g1 * g2)
                     + row[-3] / (g2 * (g1 + g2)))
    return out


def _check_wall_stencils(nodes: int) -> None:
    """Raise InvalidSpec unless the grid has the four nodes a wall stencil reads."""
    if nodes < 4:
        raise InvalidSpec(f"delta and gamma need at least 4 grid nodes (n_space >= 3), "
                          f"got {nodes}")


def delta_gamma(surface: Surface, time_index: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (Delta, Gamma) at the chosen tau level (terminal by default).

    Raises InvalidSpec on a grid of fewer than four nodes.
    """
    _check_wall_stencils(len(surface.grid.nodes))
    return _delta_gamma_row(surface.values[time_index], surface.grid)


def _delta_gamma_row(row: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    s = grid.spots
    vx = _dx(row, grid)
    vxx = _dxx(row, grid)
    return vx / s, (vxx - vx) / s ** 2


def _bumped(prob: Problem, which: str, eps: float | None) -> tuple[float, Problem, Problem]:
    """(eps, up-bumped problem, down-bumped problem) for vega or rho."""
    if which not in DEFAULT_EPS:
        raise ValueError(f"which must be one of {tuple(DEFAULT_EPS)}, got {which!r}")
    if eps is None:
        eps = DEFAULT_EPS[which]
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    name = "sigma" if which == "vega" else "r"
    lo = getattr(prob.params, name) - eps
    hi = getattr(prob.params, name) + eps
    if which == "vega" and lo <= 0.0:
        raise WellPosednessViolation(f"sigma - eps = {lo:.6g} is not positive")
    return (eps, replace(prob, params=replace(prob.params, **{name: hi})),
            replace(prob, params=replace(prob.params, **{name: lo})))


def bump_greek(prob: Problem, which: str, eps: float | None = None) -> np.ndarray:
    """Central-difference sensitivity of the terminal level, tau = T.

    which = "vega" bumps sigma, "rho" bumps r. The down-bump must leave the
    parameters valid; for vega that means sigma - eps must stay above the
    condition-1 cost floor, else WellPosednessViolation. Both bumps march
    at the larger sub-step count of the two.
    """
    eps, up, dn = _bumped(prob, which, eps)
    up, dn = (solved(row) for row in _solve_stack([up, dn], ties=[(0, 1)]))
    return (up - dn) / (2.0 * eps)


@dataclass(frozen=True, eq=False)
class GreeksReport:
    spots: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    vega: np.ndarray
    rho: np.ndarray
    tau: float

    def to_csv(self, path) -> None:
        write_rows(path, ("S", "delta", "gamma", "vega", "rho"),
                   [((), np.column_stack([self.spots, self.delta, self.gamma,
                                          self.vega, self.rho]))])


def greeks_report(prob: Problem, eps_sigma: float | None = None,
                  eps_r: float | None = None) -> GreeksReport:
    """Delta/Gamma from the base solve, Vega/Rho from four bumped ones.

    A bump size left as None comes from ``DEFAULT_EPS``. Raises InvalidSpec
    on a grid of fewer than four nodes, before any solve.

    The five solves share one grid build and keep only the terminal level;
    each bump pair marches at the larger sub-step count of its two, as in
    ``bump_greek``.
    """
    _check_wall_stencils(prob.grid.n_space + 1)
    eps_sigma, sigma_up, sigma_dn = _bumped(prob, "vega", eps_sigma)
    eps_r, r_up, r_dn = _bumped(prob, "rho", eps_r)
    grid = build_space_grid(prob.grid)
    base, s_up, s_dn, up, dn = (solved(row) for row in _solve_stack(
        [prob, sigma_up, sigma_dn, r_up, r_dn], ties=[(1, 2), (3, 4)],
        grids={prob.grid: grid}))
    delta, gamma = _delta_gamma_row(base, grid)
    return GreeksReport(spots=grid.spots, delta=delta, gamma=gamma,
                        vega=(s_up - s_dn) / (2.0 * eps_sigma), rho=(up - dn) / (2.0 * eps_r),
                        tau=float(build_time_grid(prob.grid)[-1]))


@dataclass(frozen=True, eq=False)
class HedgeNotionals:
    """Per-node replication amounts for the seller's hedge.

    delta_shares is the share position -dV/dS; own_bond_value and
    cpty_bond_value are the cash values alpha_B*P_B = -V + V+ + R_B*V- and
    alpha_C*P_C = -V + R_C*V+ + V- of the two bond legs.
    """

    delta_shares: np.ndarray
    own_bond_value: np.ndarray
    cpty_bond_value: np.ndarray


def hedge_notionals(surface: Surface, p: ModelParams,
                    time_index: int = -1) -> HedgeNotionals:
    row = surface.values[time_index]
    pos = np.maximum(row, 0.0)
    neg = np.minimum(row, 0.0)
    delta, _ = delta_gamma(surface, time_index)
    return HedgeNotionals(
        delta_shares=-delta,
        own_bond_value=-row + pos + p.R_B * neg,
        cpty_bond_value=-row + p.R_C * pos + neg,
    )
