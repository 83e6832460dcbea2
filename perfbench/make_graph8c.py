#!/usr/bin/env python3
"""Generate perfbench/data/graph8c.g6: every connected graph on 8 vertices, once.

Every connected graph has a vertex whose removal leaves it connected, so
adding one vertex, with every nonempty neighbourhood, to each connected
7-vertex graph of data/graph7c.g6 reaches every connected 8-vertex graph.
Isomorphic duplicates are removed with networkx (Weisfeiler-Lehman hash as
the bucket key, exact isomorphism test inside a bucket). The result must hold
11,117 graphs, the OEIS A001349 count.

Run once, offline (about a minute): python3 perfbench/make_graph8c.py
The output order is deterministic; perfbench/run.py pins its sha256.
"""

import hashlib
import sys
from pathlib import Path

import networkx as nx

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "data" / "graph7c.g6"
TARGET = Path(__file__).resolve().parent / "data" / "graph8c.g6"
EXPECTED = 11117


def main() -> int:
    base = [line for line in SOURCE.read_bytes().splitlines() if line.strip()]
    buckets: dict[str, list[nx.Graph]] = {}
    out: list[bytes] = []
    for line in base:
        g7 = nx.from_graph6_bytes(line)
        for mask in range(1, 1 << 7):
            g = g7.copy()
            g.add_edges_from((7, v) for v in range(7) if mask >> v & 1)
            # the hash only buckets candidates: the first candidate of each
            # isomorphism class is kept, so the output does not depend on it
            bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, iterations=3), [])
            if any(nx.is_isomorphic(g, h) for h in bucket):
                continue
            bucket.append(g)
            out.append(nx.to_graph6_bytes(g, header=False).strip())
    if len(out) != EXPECTED:
        print(f"got {len(out)} graphs, expected {EXPECTED}")
        return 1
    payload = b"\n".join(out) + b"\n"
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_bytes(payload)
    print(f"wrote {TARGET} ({len(out)} graphs, sha256 {hashlib.sha256(payload).hexdigest()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
