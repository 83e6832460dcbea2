#!/usr/bin/env python3
"""Map the worsening region of weighted two-vertex graphs.

Sweeps a grid over (a11, a12, a22), classifies every point through the closed
forms, and prints the worsening instances with their scan flags; a
sweep-confirmed one is a counterexample. The region clusters
where det(A) = a11 a22 - a12^2 is at or near zero with a11 != a22; points
with strongly negative determinant (negative non-unit eigenvalue) never
worsen.
"""

import argparse
import sys

import numpy as np

from rwj import two_node_grid_search
from rwj.cli import fmt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=float, default=0.0)
    ap.add_argument("--max", type=float, default=5.0)
    ap.add_argument("--steps", type=int, default=21)
    ap.add_argument("--a12-min", type=float, default=0.25)
    ap.add_argument("--a12-max", type=float, default=4.0)
    ap.add_argument("--a12-steps", type=int, default=8)
    args = ap.parse_args()

    diag = np.linspace(args.min, args.max, args.steps)
    a12 = np.linspace(args.a12_min, args.a12_max, args.a12_steps)
    records = two_node_grid_search(diag, a12, diag)

    confirmed = sum(bool(r.sweep_confirmed) for r in records)
    print(f"grid: {args.steps}x{args.a12_steps}x{args.steps} points, "
          f"{len(records)} worsening instances, {confirmed} sweep-confirmed")
    for r in sorted(records, key=lambda r: r.margin)[:25]:
        print(f"  {r.id}: lambda_star={fmt(r.lambda_star)} "
              f"lambda_first={fmt(r.lambda_first)} margin={fmt(r.margin)} flags={r.flags()}")
    if len(records) > 25:
        print(f"  ... {len(records) - 25} more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
