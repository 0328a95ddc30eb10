"""Sinh-stretched space grid, time grid, and the explicit-step bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvapde import (
    GridSpec,
    InvalidSpec,
    ModelVariant,
    build_space_grid,
    stability_bound,
)
from xvapde.grid import build_time_grid

from helpers import desk_grid, desk_params

# frozen realizations of the desk grid (N = 200 on [log 2, log 32], alpha = range/10)
C2_DESK = 2.312438341272753
H_MIN_DESK = 0.0064120118870212295
H_MAX_DESK = 0.032324305697352895
BOUND_DESK = 0.005461131735184879


# --- Spec validation ---

def test_rejects_unordered_walls():
    with pytest.raises(InvalidSpec, match="x_minus < x_star < x_plus"):
        GridSpec(x_minus=1.0, x_plus=0.0, x_star=0.5, alpha=1.0,
                 n_space=10, n_time=10, horizon=1.0)


def test_rejects_concentration_point_outside_domain():
    with pytest.raises(InvalidSpec):
        GridSpec(x_minus=0.0, x_plus=1.0, x_star=2.0, alpha=1.0,
                 n_space=10, n_time=10, horizon=1.0)


@pytest.mark.parametrize("field,value", [
    ("alpha", 0.0), ("n_space", 1), ("n_time", -1), ("horizon", 0.0)])
def test_rejects_degenerate_sizes(field, value):
    kw = dict(x_minus=0.0, x_plus=1.0, x_star=0.5, alpha=1.0,
              n_space=10, n_time=10, horizon=1.0)
    kw[field] = value
    with pytest.raises(InvalidSpec):
        GridSpec(**kw)


def test_dtau_requires_time_steps():
    spec = GridSpec(x_minus=0.0, x_plus=1.0, x_star=0.5, alpha=1.0,
                    n_space=10, n_time=0, horizon=1.0)
    with pytest.raises(InvalidSpec, match="n_time = 0"):
        spec.dtau


# --- Space grid construction ---

def test_walls_are_pinned_exactly():
    g = build_space_grid(desk_grid())
    assert g.nodes[0] == desk_grid().x_minus
    assert g.nodes[-1] == desk_grid().x_plus
    assert g.n == 200
    assert len(g.nodes) == 201


def test_nodes_strictly_increasing():
    g = build_space_grid(desk_grid())
    assert np.all(g.h > 0.0)


def test_spacing_tightest_at_the_concentration_point():
    spec = desk_grid()
    g = build_space_grid(spec)
    assert float(g.h.min()) == pytest.approx(H_MIN_DESK, abs=1e-15)
    assert float(g.h.max()) == pytest.approx(H_MAX_DESK, abs=1e-15)
    # the smallest cell sits next to x_star, the largest at a wall
    i_star = g.nearest_index(spec.x_star)
    assert abs(int(np.argmin(g.h)) - i_star) <= 1
    assert int(np.argmax(g.h)) in (0, g.n - 1)


def test_desk_grid_is_symmetric_about_the_strike():
    """x_star is the midpoint of the desk domain, so the stretch is even."""
    spec = desk_grid()
    c1 = math.asinh((spec.x_minus - spec.x_star) / spec.alpha)
    c2 = math.asinh((spec.x_plus - spec.x_star) / spec.alpha)
    assert c2 == pytest.approx(C2_DESK, abs=1e-15)
    assert c1 == pytest.approx(-C2_DESK, abs=1e-12)
    g = build_space_grid(spec)
    np.testing.assert_allclose(g.h, g.h[::-1], atol=1e-12, rtol=0.0)


def test_huge_alpha_degenerates_to_uniform():
    spec = GridSpec(x_minus=0.0, x_plus=1.0, x_star=0.4, alpha=1e6,
                    n_space=50, n_time=1, horizon=1.0)
    g = build_space_grid(spec)
    np.testing.assert_allclose(g.h, 0.02, rtol=1e-9)


def test_second_difference_weights_on_uniform_grid():
    spec = GridSpec(x_minus=0.0, x_plus=1.0, x_star=0.5, alpha=1e8,
                    n_space=100, n_time=1, horizon=1.0)
    g = build_space_grid(spec)
    np.testing.assert_allclose(g.h_plus, 1.0 / 0.01 ** 2, rtol=1e-7)
    np.testing.assert_allclose(g.h_minus, 1.0 / 0.01 ** 2, rtol=1e-7)


def test_second_difference_weights_annihilate_affine_rows():
    g = build_space_grid(desk_grid())
    row = 3.0 + 2.0 * g.nodes
    second = (g.h_minus * row[:-2] - (g.h_plus + g.h_minus) * row[1:-1]
              + g.h_plus * row[2:])
    np.testing.assert_allclose(second, 0.0, atol=1e-10)


def test_second_difference_weights_exact_on_quadratics():
    g = build_space_grid(desk_grid())
    row = g.nodes ** 2
    second = (g.h_minus * row[:-2] - (g.h_plus + g.h_minus) * row[1:-1]
              + g.h_plus * row[2:])
    np.testing.assert_allclose(second, 2.0, rtol=1e-9)


def test_nearest_index():
    g = build_space_grid(desk_grid())
    assert g.nearest_index(desk_grid().x_minus) == 0
    assert g.nearest_index(desk_grid().x_plus) == g.n
    i = g.nearest_index(math.log(8.0))
    assert abs(g.nodes[i] - math.log(8.0)) <= float(g.h.min())


def test_spots_are_exponentials_of_nodes():
    g = build_space_grid(desk_grid())
    np.testing.assert_allclose(g.spots, np.exp(g.nodes), rtol=0.0)


# --- Time grid ---

def test_time_grid_spans_zero_to_horizon():
    taus = build_time_grid(desk_grid())
    assert len(taus) == 262
    assert taus[0] == 0.0
    assert taus[-1] == 1.0
    np.testing.assert_allclose(np.diff(taus), 1.0 / 261.0, rtol=1e-12)


# --- Stability bound ---

def test_stability_bound_frozen_desk_value():
    g = build_space_grid(desk_grid())
    p = ModelVariant.BKTC.apply(desk_params())
    assert stability_bound(g, p) == pytest.approx(BOUND_DESK, abs=1e-15)
    # the desk reporting step sits under the bound: no sub-stepping needed
    assert desk_grid().dtau < BOUND_DESK


def test_stability_bound_shrinks_quadratically_with_spacing():
    p = ModelVariant.RISK_FREE.apply(desk_params())
    b1 = stability_bound(build_space_grid(desk_grid(n_space=100)), p)
    b2 = stability_bound(build_space_grid(desk_grid(n_space=200)), p)
    assert b1 / b2 == pytest.approx(4.0, rel=0.1)


@given(n=st.integers(4, 120), alpha_scale=st.floats(0.05, 10.0))
@settings(max_examples=200, deadline=None)
def test_stability_bound_keeps_the_center_weight_nonnegative(n, alpha_scale):
    """At dtau equal to the bound, the explicit center weight stays >= 0."""
    from xvapde.solver import step_coefficients
    spec = GridSpec(x_minus=math.log(2.0), x_plus=math.log(32.0),
                    x_star=math.log(8.0), alpha=alpha_scale * (math.log(32.0) - math.log(2.0)),
                    n_space=n, n_time=1, horizon=1.0)
    g = build_space_grid(spec)
    p = desk_params()
    bound = stability_bound(g, p)
    a, b, c = step_coefficients(g, p, bound)
    assert float(b.min()) >= -1e-12
    assert float(a.min()) >= 0.0
