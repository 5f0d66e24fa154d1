"""Sweep the rate-limited common-randomness capacity across channel budgets.

For each flip probability of the doubly symmetric binary source, evaluates
the capacity over a grid of one-way rate budgets C and writes one CSV row
per (flip, C) pair. The curve saturates at H(X) = 1 once C reaches h(flip).

Usage:
    python scripts/capacity_curve.py --flips 0.05,0.1,0.2 --step 0.05 \
        --out results/capacity_curve.csv
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from ucrlab.probspace import JointPmf
from ucrlab.serialize import write_csv
from ucrlab.ucrcap import ucr_curve


def dsbs(p: float) -> JointPmf:
    return JointPmf(np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flips", default="0.05,0.1,0.2",
                    help="comma-separated DSBS flip probabilities")
    ap.add_argument("--step", type=float, default=0.05,
                    help="budget grid step in bits")
    ap.add_argument("--max-budget", type=float, default=1.0)
    ap.add_argument("--out", default="results/capacity_curve.csv")
    args = ap.parse_args(argv)

    grid = [k * args.step for k in range(int(args.max_budget / args.step) + 1)]
    rows = []
    for flip in (float(f) for f in args.flips.split(",")):
        knee = binary_entropy(flip)
        points = ucr_curve(dsbs(flip), grid)
        for c, sol in points:
            rows.append((flip, c, sol.value_bits, sol.constraint_slack,
                         c >= knee))
        past = [sol.value_bits for c, sol in points if c >= knee]
        there = (f"value there {past[0]:.6f} (saturation target 1.0)" if past
                 else "beyond the budget grid")
        print(f"flip {flip}: knee at C = {knee:.4f}, {there}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["flip", "c_bits", "value_bits", "slack_bits",
                    "past_knee"], list(zip(*rows)))
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
