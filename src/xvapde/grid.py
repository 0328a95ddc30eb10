"""Sinh-stretched spatial grid in x = log S and the uniform backward-time grid.

Nodes follow x_i = x* + alpha*sinh(c2*i/N + c1*(1 - i/N)) with
c1 = asinh((x_minus - x*)/alpha) and c2 = asinh((x_plus - x*)/alpha), which
pins the endpoints to the requested walls and clusters nodes around x*,
densest where the payoff kinks. Smaller alpha stretches harder; a huge
alpha degenerates to a uniform grid.

``build_space_grid`` builds each spec once per process, so every variant
and every consumer of a scenario reads one read-only ``SpaceGrid``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .model import ModelParams, _finite, variance_and_drift

__all__ = ["GridSpec", "SpaceGrid", "build_space_grid", "build_time_grid", "stability_bound"]


@dataclass(frozen=True)
class GridSpec:
    x_minus: float   # left wall of the log-price domain
    x_plus: float    # right wall
    x_star: float    # concentration point (strike log-price, normally)
    alpha: float     # stretch scale; smaller concentrates harder
    n_space: int     # N: number of spatial intervals
    n_time: int      # number of reporting time steps
    horizon: float   # T: maturity in years

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # vars(self) would slow every later read
            if not _finite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("n_space", "n_time"):
            count = getattr(self, name)
            if isinstance(count, bool) or count != int(count):
                raise InvalidSpec(f"{name} must be a whole number, got {count!r}")
            object.__setattr__(self, name, int(count))  # so 200.0 builds as 200 does
        if not self.x_minus < self.x_star < self.x_plus:
            raise InvalidSpec("need x_minus < x_star < x_plus")
        try:  # the upper wall's spot, S_max, must be a float
            math.exp(self.x_plus)
        except OverflowError:
            raise InvalidSpec(f"x_plus must have a finite exp, got {self.x_plus!r}") from None
        if not self.alpha > 0.0:
            raise InvalidSpec("alpha must be positive")
        if self.n_space < 2:
            raise InvalidSpec("n_space must be at least 2")
        if self.n_time < 0:
            raise InvalidSpec("n_time must be nonnegative")
        if not self.horizon > 0.0:
            raise InvalidSpec("horizon must be positive")

    @property
    def dtau(self) -> float:
        if self.n_time == 0:
            raise InvalidSpec("no time step on a grid with n_time = 0")
        return self.horizon / self.n_time


@dataclass(frozen=True, eq=False)
class SpaceGrid:
    """Realized spatial grid.

    nodes has N+1 entries; h[j] = nodes[j+1] - nodes[j] has N. h_plus and
    h_minus are the nonuniform second-difference weights at the N-1 interior
    nodes: entry k belongs to node i = k+1, with

        h_plus[k]  = 2 / (h[k+1] * (h[k] + h[k+1]))
        h_minus[k] = 2 / (h[k]   * (h[k] + h[k+1]))

    so that V_xx(x_i) ~ h_minus*V[i-1] - (h_plus + h_minus)*V[i] + h_plus*V[i+1].
    On a uniform grid both collapse to 1/h^2.
    """

    nodes: np.ndarray
    h: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    @functools.cached_property
    def spots(self) -> np.ndarray:
        return _read_only(np.exp(self.nodes))

    def nearest_index(self, x: float) -> int:
        """Index of the node closest to log-price x."""
        return int(np.argmin(np.abs(self.nodes - x)))


def build_space_grid(spec: GridSpec) -> SpaceGrid:
    """The grid of ``spec``, read-only and built once per process for specs of
    equal bits: a zero wall of either sign is a node, so each sign has its own."""
    return _build(spec, struct.pack("7d", spec.x_minus, spec.x_plus, spec.x_star, spec.alpha,
                                    spec.n_space, spec.n_time, spec.horizon))


@functools.lru_cache(maxsize=16)
def _build(spec: GridSpec, bits: bytes) -> SpaceGrid:
    c1 = math.asinh((spec.x_minus - spec.x_star) / spec.alpha)
    c2 = math.asinh((spec.x_plus - spec.x_star) / spec.alpha)
    t = np.arange(spec.n_space + 1) / spec.n_space
    nodes = spec.x_star + spec.alpha * np.sinh(c2 * t + c1 * (1.0 - t))
    # asinh/sinh round-trip is exact to ~1 ulp; snap the walls anyway
    nodes[0] = spec.x_minus
    nodes[-1] = spec.x_plus
    h = nodes[1:] - nodes[:-1]
    if not (h > 0.0).all():
        raise InvalidSpec("grid nodes are not strictly increasing")
    hb, hf = h[:-1], h[1:]
    span = hb + hf
    return SpaceGrid(*map(_read_only, (nodes, h, 2.0 / (hf * span), 2.0 / (hb * span))))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_time_grid(spec: GridSpec) -> np.ndarray:
    """Backward-time levels tau_m = m * (horizon / n_time), m = 0..n_time."""
    return np.linspace(0.0, spec.horizon, spec.n_time + 1)


def stability_bound(grid: SpaceGrid, p: ModelParams) -> float:
    """Largest explicit-Euler step that keeps the centre weight b of the
    linear update nonnegative.

    min over interior nodes of 1 / (sig2/2*(h_plus+h_minus) + |drift|/h_fwd + r)
    with drift = q_S - gamma_S - sig2/2. It counts the linear weights only,
    with |drift|/h_fwd even under ``upwind``, where a negative drift sits on
    the backward spacing instead; it counts neither the exposure rates nor
    the cost sink. ``solver.plan`` warns where what it leaves out makes a
    step non-monotone. Returns +inf when the denominator vanishes everywhere
    (no decay, no diffusion, no drift).
    """
    sig2, drift = variance_and_drift(p)
    return _stability_bounds(grid, sig2, drift, p.r)[0]


def _stability_bounds(grid: SpaceGrid, sig2, drift, r) -> list[float]:
    """``stability_bound`` of scalars, or of per-member (K, 1) columns of
    sig2, drift and r, one bound per member; each element is computed as
    the scalar formula computes it. A diffusion or drift that overflows
    reads as a bound of 0, with no RuntimeWarning."""
    with np.errstate(over="ignore"):
        denom = 0.5 * sig2 * (grid.h_plus + grid.h_minus) + abs(drift) / grid.h[1:] + r
    return [1.0 / worst if worst > 0.0 else math.inf
            for worst in denom.max(axis=-1).reshape(-1).tolist()]
