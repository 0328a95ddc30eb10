"""Greeks and replication notionals for the desk call.

Delta and gamma come from nonuniform central stencils on the solved
surface; vega and rho are plain central differences of bumped re-solves
of the full nonlinear equation, so they carry the credit, funding, and
cost channels, not just the lognormal core.
"""

import math

from xvapde import (
    GridSpec,
    Instrument,
    ModelParams,
    ModelVariant,
    Problem,
    greeks_report,
    hedge_notionals,
    solve,
)

PARAMS = ModelParams(r=0.05, q_S=0.05, gamma_S=0.03, sigma=0.1, s_F=0.0,
                     lambda_B=0.05, lambda_C=0.01, R_B=0.4, R_C=0.4,
                     C_S=0.002, C_B=0.001, C_C=0.001, dt=1.0 / 261.0)
GRID = GridSpec(x_minus=math.log(2.0), x_plus=math.log(32.0),
                x_star=math.log(8.0),
                alpha=(math.log(32.0) - math.log(2.0)) / 10.0,
                n_space=200, n_time=261, horizon=1.0)
CALL = Instrument(kind="call", strike=8.0)


def main() -> None:
    prob = Problem(params=PARAMS, variant=ModelVariant.BKTC, grid=GRID,
                   instrument=CALL)
    report = greeks_report(prob)
    surface = solve(prob)
    hedge = hedge_notionals(surface, prob.effective_params())

    print("seller greeks, desk call, K = 8, T = 1 (tau = T slice)")
    print()
    print(f"{'S':>8}  {'delta':>9}  {'gamma':>9}  {'vega':>9}  {'rho':>9}")
    print("-" * 52)
    grid = surface.grid
    for spot in (5.0, 6.5, 8.0, 9.5, 11.0, 14.0):
        i = grid.nearest_index(math.log(spot))
        print(f"{float(report.spots[i]):8.3f}  "
              f"{float(report.delta[i]):9.5f}  "
              f"{float(report.gamma[i]):9.5f}  "
              f"{float(report.vega[i]):9.5f}  "
              f"{float(report.rho[i]):9.5f}")

    print()
    print("replication notionals at the same spots (seller's book):")
    print()
    print(f"{'S':>8}  {'shares':>9}  {'own bond':>9}  {'cpty bond':>9}")
    print("-" * 42)
    for spot in (5.0, 6.5, 8.0, 9.5, 11.0, 14.0):
        i = grid.nearest_index(math.log(spot))
        print(f"{float(grid.spots[i]):8.3f}  "
              f"{float(hedge.delta_shares[i]):9.5f}  "
              f"{float(hedge.own_bond_value[i]):9.5f}  "
              f"{float(hedge.cpty_bond_value[i]):9.5f}")

    print()
    print("a long call never owes the seller anything, so the own-bond leg")
    print("is flat zero and the counterparty bond carries the whole credit")
    print(f"hedge: max |own| = {float(abs(hedge.own_bond_value).max()):.3g}, "
          f"max |cpty| = {float(abs(hedge.cpty_bond_value).max()):.4g}")


if __name__ == "__main__":
    main()
