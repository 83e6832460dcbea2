#!/usr/bin/env python3
"""Regenerate the graph6 catalogs of all connected graphs on 3..7 vertices.

Writes data/graph{n}c.g6, one graph per line, drawn from the networkx Graph
Atlas (which covers every graph up to 7 vertices exactly once per isomorphism
class). The encoder is networkx's, kept independent of the package's own
graph6 writer so the round-trip tests cross two implementations.

Expected connected counts: n=3: 2, n=4: 6, n=5: 21, n=6: 112, n=7: 853.

The n = 8 catalog (11117 graphs) is not generated here: it ships as
perfbench/data/graph8c.g6 and is regenerated offline from data/graph7c.g6 by
perfbench/make_graph8c.py. Point `rwj scan --catalog` at it for the long-run
mode.
"""

import sys
from collections import Counter
from pathlib import Path

import networkx as nx

EXPECTED = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "data"
    out_dir.mkdir(exist_ok=True)
    by_n: dict[int, list[bytes]] = {n: [] for n in EXPECTED}
    counts: Counter[int] = Counter()
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n not in by_n or not nx.is_connected(g):
            continue
        counts[n] += 1
        by_n[n].append(nx.to_graph6_bytes(g, header=False).strip())
    for n, expected in EXPECTED.items():
        if counts[n] != expected:
            print(f"atlas gave {counts[n]} connected graphs for n={n}, expected {expected}")
            return 1
        path = out_dir / f"graph{n}c.g6"
        path.write_bytes(b"\n".join(by_n[n]) + b"\n")
        print(f"wrote {path} ({counts[n]} graphs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
