"""Shared fixtures, graph builders, and hypothesis strategies."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from rwj import WeightedGraph, generate, parse_edgelist, write_graph6

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("default")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def catalog_lines() -> dict[int, list[bytes]]:
    """graph6 lines of the connected catalogs for n = 5, 6, 7."""
    out = {}
    for n in (5, 6, 7):
        out[n] = [
            line for line in (DATA_DIR / f"graph{n}c.g6").read_bytes().splitlines() if line.strip()
        ]
    return out


@pytest.fixture
def k4() -> WeightedGraph:
    return generate("complete", n=4)


@pytest.fixture
def p3() -> WeightedGraph:
    return generate("path", n=3)


@pytest.fixture
def c5() -> WeightedGraph:
    return generate("cycle", n=5)


@pytest.fixture
def star4() -> WeightedGraph:
    return generate("star", n=4)


DET_ZERO_PAIR_TEXT = "2\n0 0 4\n0 1 2\n1 1 1\n"


@pytest.fixture
def det_zero_pair() -> WeightedGraph:
    """The weighted two-vertex graph [[4, 2], [2, 1]] with det(A) = 0."""
    return parse_edgelist(DET_ZERO_PAIR_TEXT)


def two_node(a11: float, a12: float, a22: float) -> WeightedGraph:
    edges = [(0, 1, a12)]
    if a11 > 0:
        edges.append((0, 0, a11))
    if a22 > 0:
        edges.append((1, 1, a22))
    return WeightedGraph(2, tuple(edges))


def random_connected_weighted(rng: np.random.Generator, n: int, extra: float = 0.3,
                              self_loops: bool = False) -> WeightedGraph:
    """Random spanning tree plus extra edges, log-uniform weights."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(np.exp(rng.uniform(-1.5, 1.5)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges[(u, v)] = float(np.exp(rng.uniform(-1.5, 1.5)))
    if self_loops:
        for u in range(n):
            if rng.random() < 0.3:
                edges[(u, u)] = float(np.exp(rng.uniform(-1.5, 1.5)))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


# hypothesis strategies ------------------------------------------------------

@st.composite
def connected_pairs(draw, max_n: int = 9, min_n: int = 2):
    """(n, edge pairs) of a random connected unweighted graph."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        pairs.add((u, v))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    extra = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    pairs.update(extra)
    return n, sorted(pairs)


@st.composite
def connected_unweighted(draw, max_n: int = 9, min_n: int = 2):
    n, pairs = draw(connected_pairs(max_n=max_n, min_n=min_n))
    return WeightedGraph.from_pairs(n, pairs)


@st.composite
def connected_weighted(draw, max_n: int = 8, self_loops: bool = True):
    n, pairs = draw(connected_pairs(max_n=max_n))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
    if self_loops:
        loops = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n))
        for u in loops:
            edges.append((u, u, draw(st.floats(min_value=0.05, max_value=20.0, allow_nan=False))))
    return WeightedGraph(n, tuple(edges))


@st.composite
def same_order_stacks(draw):
    """(adjacency stack, degree stack, graphs) of one order n = 3..10.

    Random connected graphs (often trees, so bipartite) mixed with paths,
    cycles, stars and complete graphs: simple, tied, degenerate and near-unit levels.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    family = st.sampled_from(("path", "cycle", "star", "complete")).map(lambda model: generate(model, n=n))
    graphs = draw(st.lists(st.one_of(connected_unweighted(max_n=n, min_n=n), family), min_size=1, max_size=8))
    return np.stack([g.adjacency() for g in graphs]), np.stack([g.degrees() for g in graphs]), graphs


# malformed graph6 lines: truncated or overlong bodies, bytes outside [63, 126],
# nonzero padding bits, n < 2, headers out of range, truncated 4-byte headers,
# the 8-byte header
MALFORMED_GRAPH6 = (b"garbage!!", b"A", b"B~~", b"Bx", b"A`", b"B!", b"C ", b"@", b"?", b">", b"\x7f?", b"~??",
                    b"~?", b"~", b"~~??????")


def _graph6_of_bits(n: int, bits: int) -> bytes:
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return write_graph6(WeightedGraph.from_pairs(n, [p for k, p in enumerate(pairs) if bits >> k & 1]))


@st.composite
def long_graph6_line(draw):
    """A graph6 line with a 4-byte size header, n = 63..66, often faulty.

    The graph is random with a drawn edge density, so it is often
    disconnected at the lowest one. The faults: a body one byte short or one
    byte long, a body byte outside [63, 126], nonzero padding bits, and a
    4-byte header that encodes n = 62, which takes one byte.
    """
    n = draw(st.integers(min_value=63, max_value=66))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    p = draw(st.sampled_from([0.03, 0.1, 0.5]))
    pairs = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]
    line = write_graph6(WeightedGraph.from_pairs(n, pairs))
    fault = draw(st.sampled_from(["none", "none", "none", "short", "long", "byte", "padding", "n62"]))
    if fault == "short":
        return line[:-1]
    if fault == "long":
        return line + b"?"
    if fault == "byte":
        return line[:-2] + b" " + line[-1:]
    if fault == "padding":  # n = 64 has no padding bits, so its line stays valid
        return line[:-1] + bytes([63 + ((line[-1] - 63) | 1)])
    if fault == "n62":
        return b"~??}" + write_graph6(WeightedGraph.from_pairs(62, [(u, v) for u, v in pairs if v < 62]))[1:]
    return line


@st.composite
def graph6_lines(draw, max_n: int = 12):
    """A list of graph6 lines: connected graphs, any graphs (often disconnected), 4-byte-header lines
    (:func:`long_graph6_line`) and malformed lines."""
    any_graph = st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=0, max_value=2 ** (n * (n - 1) // 2) - 1).map(
            lambda bits: _graph6_of_bits(n, bits)
        )
    )
    line = st.one_of(
        connected_unweighted(max_n=max_n).map(write_graph6), any_graph, long_graph6_line(),
        st.sampled_from(MALFORMED_GRAPH6),
    )
    return draw(st.lists(line, max_size=40))
