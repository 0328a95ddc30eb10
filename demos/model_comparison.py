"""What transaction costs do to the solve, channel by channel.

Share costs shave the effective variance; counterparty-bond costs add a
|dV/dx| sink.  This script prints the cost-adjusted coefficients, runs
the validity checks on two parameter sets (the desk set and one where
share costs overwhelm the volatility), then compares the credit-only
and full-cost solves across the spot ladder.
"""

import math
from dataclasses import replace

from xvapde import (
    GridSpec,
    Instrument,
    ModelParams,
    ModelVariant,
    Problem,
    build_space_grid,
    compare_models,
    cpty_cost_rate,
    modified_variance,
    turnover_factor,
    validity_checks,
)

PARAMS = ModelParams(r=0.05, q_S=0.05, gamma_S=0.03, sigma=0.1, s_F=0.0,
                     lambda_B=0.05, lambda_C=0.01, R_B=0.4, R_C=0.4,
                     C_S=0.002, C_B=0.001, C_C=0.001, dt=1.0 / 261.0)
GRID = GridSpec(x_minus=math.log(2.0), x_plus=math.log(32.0),
                x_star=math.log(8.0),
                alpha=(math.log(32.0) - math.log(2.0)) / 10.0,
                n_space=200, n_time=261, horizon=1.0)
CALL = Instrument(kind="call", strike=8.0)


def print_checks(tag: str, p: ModelParams) -> None:
    print(f"validity checks, {tag}:")
    for rep in validity_checks(p, S_max=math.exp(GRID.x_plus)):
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"  {rep.name}: {verdict}  ({rep.detail})")


def main() -> None:
    k = turnover_factor(PARAMS.dt)
    print("cost channels at the desk parameters:")
    print(f"  turnover factor sqrt(2/(pi*dt))   {k:.6f}")
    print(f"  raw variance sigma^2              {PARAMS.sigma ** 2:.6f}")
    print(f"  cost-adjusted variance            {modified_variance(PARAMS):.6f}")
    print(f"  cpty-bond cost rate               {cpty_cost_rate(PARAMS):.8f}")
    print()

    print_checks("desk parameters", PARAMS)
    print()
    # same costs against a fifth of the volatility: the variance floor breaks
    print_checks("sigma = 2% against the same costs", replace(PARAMS, sigma=0.02))
    print()

    gap = compare_models(Problem(PARAMS, ModelVariant.BKTC, GRID, CALL))
    spots = build_space_grid(GRID).spots
    print("credit-only minus full-cost price (what the costs charge):")
    print()
    print(f"{'S':>8}  {'gap':>10}")
    print("-" * 20)
    for spot in (4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0):
        i = int(abs(spots - spot).argmin())
        print(f"{float(spots[i]):8.3f}  {float(gap[i]):10.6f}")
    print()
    print(f"gap is nonnegative everywhere: {bool((gap >= 0.0).all())}, "
          f"largest charge {float(gap.max()):.6f}")


if __name__ == "__main__":
    main()
