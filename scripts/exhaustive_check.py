#!/usr/bin/env python3
"""Run the unweighted-graph conjecture check over graph6 catalogs.

By default scans the bundled connected catalogs for n = 5, 6, 7 under both
selection conventions and reports counterexample counts, the closest calls
(smallest improvement margins), and paper-constant witnesses.

Long-run mode: the n = 8 catalog (11117 connected graphs) ships with the
benchmark as perfbench/data/graph8c.g6 (regenerate it offline with
python3 perfbench/make_graph8c.py); pass it explicitly:

    python scripts/exhaustive_check.py --catalog perfbench/data/graph8c.g6 --parallel 2
"""

import argparse
import sys
from pathlib import Path

from rwj import scan_catalog
from rwj.cli import fmt, summary_text

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--catalog", action="append", default=None,
                    help="graph6 file(s); default: bundled n=5,6,7 catalogs")
    ap.add_argument("--convention", choices=["slem", "paper", "both"], default="both")
    ap.add_argument("--parallel", type=int, default=1)
    ap.add_argument("--top-k", type=int, default=5)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args()

    catalogs = args.catalog or [str(DATA / f"graph{n}c.g6") for n in (5, 6, 7)]
    conventions = ["slem", "paper"] if args.convention == "both" else [args.convention]

    found = 0
    for catalog in catalogs:
        for conv in conventions:
            summary, records = scan_catalog(
                catalog, conv, limit=args.limit, top_k=args.top_k, parallelism=args.parallel
            )
            print(summary_text(summary))
            found += summary.counterexamples
            for r in records:
                if r.classification == "WORSENS":
                    print(f"  WORSENS: {r.id} lambda_star={fmt(r.lambda_star)} "
                          f"lambda_first={fmt(r.lambda_first)} flags={r.flags()}")
    if found:
        print(f"conjecture falsified: {found} confirmed counterexample(s)")
        return 10
    print("no counterexamples found; the conjecture stands on these catalogs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
