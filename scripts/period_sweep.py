#!/usr/bin/env python3
"""Sweep rules, cell counts and evaluation presets and tabulate the detected
probability-pattern periods, with the search `qca2 period` runs over
--horizon columns.

The initial state places a single 1 on the most significant state qubit,
mirroring the bundled figure configs.  Rules containing two-control flips
are searched at a looser tolerance since their gate set is not Clifford.
"""

import argparse

from qca2.analysis import search_period
from qca2.rules import (
    BoundaryCondition,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    NeighborhoodRule,
    QcaConfig,
)

EVALS = [("h_both", H_BOTH_EVAL), ("h_s_then_cn", H_S_THEN_CN_EVAL)]


def sweep(max_cells: int, horizon: int, boundary: BoundaryCondition) -> None:
    print(f"{'rule':<6} {'eval':<12} {'cells':>5} {'period':>7} {'deviation':>10}")
    for rule in NeighborhoodRule:
        for eval_name, evaluation in EVALS:
            for n in range(1, max_cells + 1):
                cfg = QcaConfig(
                    n_cells=n,
                    rule=rule,
                    boundary=boundary,
                    evaluation=evaluation,
                    initial_index=1 << (2 * n - 1),
                )
                tol = 1e-6 if rule is NeighborhoodRule.BOTH else 1e-9
                report = search_period(cfg, horizon, tol=tol)
                period = report.period if report.found else "-"
                dev = f"{report.max_deviation:.1e}" if report.found else "n/a"
                print(f"{rule.value:<6} {eval_name:<12} {n:>5} {period!s:>7} {dev:>10}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cells", type=int, default=4)
    parser.add_argument("--horizon", type=int, default=1024)
    parser.add_argument(
        "--boundary",
        choices=[b.value for b in BoundaryCondition],
        default="const0",
    )
    args = parser.parse_args()
    sweep(args.max_cells, args.horizon, BoundaryCondition(args.boundary))
