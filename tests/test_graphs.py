"""Graph type, formats, generators, degree statistics."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import networkx as nx

from rwj import (
    DisconnectedGraphError,
    GenerationError,
    GraphFormatError,
    WeightedGraph,
    degree_stats,
    generate,
    is_connected,
    parse_edgelist,
    parse_graph6,
    write_edgelist,
    write_graph6,
)

from rwj.graphs import connected_stack, decode_graph6_stack, graph6_groups, graph6_n, sample_stack, stack_edges

from conftest import (
    DET_ZERO_PAIR_TEXT,
    MALFORMED_GRAPH6,
    connected_unweighted,
    connected_weighted,
    graph6_lines,
    random_connected_weighted,
)
from oracles import graph6_body_valid


# ---------------------------------------------------------------------------
# WeightedGraph type
# ---------------------------------------------------------------------------

def test_graph_normalises_and_sorts_edges():
    g = WeightedGraph(3, ((2, 1, 0.5), (0, 1, 1.0)))
    assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))


def test_graph_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        WeightedGraph(1, ())
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, ((0, 3, 1.0),))
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, ((0, 1, 0.0),))
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, ((0, 1, -2.0),))
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, ((0, 1, float("nan")),))
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))  # same unordered pair


def test_adjacency_symmetric_with_self_loop(det_zero_pair):
    a = det_zero_pair.adjacency()
    assert np.array_equal(a, np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.array_equal(det_zero_pair.degrees(), np.array([6.0, 3.0]))
    assert det_zero_pair.volume == 9.0


@given(connected_weighted(max_n=8))
@settings(max_examples=30)
def test_adjacency_and_degrees_cached_read_only(g):
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    assert np.array_equal(g.adjacency(), a)
    assert np.array_equal(g.degrees(), a.sum(axis=1))
    assert g.adjacency() is g.adjacency() and g.degrees() is g.degrees()
    with pytest.raises(ValueError):
        g.adjacency()[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.degrees()[0] = 1.0


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "line,n,pairs",
    [
        (b"Bw", 3, [(0, 1), (0, 2), (1, 2)]),   # K3: bits 111000 -> 'w'
        (b"Bg", 3, [(0, 1), (1, 2)]),           # path: bits 101000 -> 'g'
        (b"A_", 2, [(0, 1)]),                   # K2: bits 100000 -> '_'
        (b"Ch", 4, [(0, 1), (1, 2), (2, 3)]),   # P4: bits x01 x02 x12 x03 x13 x23 = 101001 -> 'h'
    ],
)
def test_parse_graph6_hand_encoded(line, n, pairs):
    g = parse_graph6(line)
    assert g.n == n
    assert g.edges == tuple((u, v, 1.0) for u, v in pairs)
    assert write_graph6(g) == line


@pytest.mark.parametrize("g", [generate("path", n=63), generate("er", n=100, p=0.1, seed=0)],
                         ids=["path63", "er100"])
def test_graph6_four_byte_header_round_trip(g):
    line = write_graph6(g)
    assert line[:4] == b"~" + bytes(63 + ((g.n >> k) & 63) for k in (12, 6, 0))
    assert parse_graph6(line) == g
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((u, v) for u, v, _ in g.edges)
    assert nx.to_graph6_bytes(ref, header=False) == line + b"\n"


def test_parse_graph6_tolerates_newline_and_str():
    assert parse_graph6(b"Bw\n").n == 3
    assert parse_graph6("Bw").n == 3


@pytest.mark.parametrize(
    "line",
    [
        b"",                # empty
        b"~??",             # truncated 4-byte size header
        b"~??E",            # 4-byte size header for n = 6, which takes one byte
        b"~~??????",        # 8-byte size header (n > 258047)
        b"\x20w",           # header below 63
        b"B\x20",           # body byte below 63
        b"B",               # body too short
        b"Bww",             # body too long
        b"Ba",              # nonzero padding bits: 'a'=34 -> 100010
        b"@",               # n = 1
        b"?",               # n = 0
    ],
)
def test_parse_graph6_rejects_malformed(line):
    with pytest.raises(GraphFormatError):
        parse_graph6(line)


def test_parse_graph6_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_graph6(b"A?")  # two vertices, no edge


@pytest.mark.parametrize("line", MALFORMED_GRAPH6)
def test_parse_graph6_rejects_malformed_catalog_lines(line):
    with pytest.raises(GraphFormatError):
        parse_graph6(line)


def test_parse_graph6_strips_the_optional_prefix():
    g = parse_graph6(b">>graph6<<Bw\n")
    assert g == parse_graph6(b"Bw") and g.name == "Bw"
    petersen = nx.petersen_graph()
    g = parse_graph6(nx.to_graph6_bytes(petersen))  # networkx writes the prefix by default
    assert {(u, v) for u, v, _ in g.edges} == {tuple(sorted(e)) for e in petersen.edges()}


@given(graph6_lines())
def test_decode_graph6_stack_matches_networkx(lines):
    groups = graph6_groups(lines)
    by_line: dict[int, list[int]] = {}
    for i, line in enumerate(lines):
        by_line.setdefault(graph6_n(line), []).append(i)
    for i in by_line.pop(0, []):  # a malformed header or body length
        with pytest.raises(GraphFormatError):
            parse_graph6(lines[i])
    assert groups == by_line
    for n, positions in groups.items():
        stack = [lines[i] for i in positions]
        a, valid, connected = decode_graph6_stack(stack, n)
        assert a.shape == (len(stack), n, n)
        for line, adjacency, edges, ok, conn in zip(stack, a, stack_edges(a), valid.tolist(), connected.tolist()):
            assert ok == graph6_body_valid(line, n), line
            if not ok:
                with pytest.raises(GraphFormatError):
                    parse_graph6(line)
                continue
            ref = nx.from_graph6_bytes(line)
            assert (adjacency == nx.to_numpy_array(ref, nodelist=range(n))).all()
            assert conn == nx.is_connected(ref), line
            if not conn:
                with pytest.raises(DisconnectedGraphError):
                    parse_graph6(line)
                continue
            g = parse_graph6(line)
            assert (adjacency == g.adjacency()).all()
            assert edges == g.edges


@pytest.mark.parametrize("n", [63, 300, 600])
def test_decode_graph6_stack_long_diameter_lines(n):
    # 4-byte headers; a path has diameter n - 1, and two disjoint paths are disconnected
    half = n // 2
    graphs = [generate("path", n=n), generate("cycle", n=n),
              WeightedGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1) if i != half - 1])]
    lines = [write_graph6(g) for g in graphs]
    a, valid, connected = decode_graph6_stack(lines, n)
    assert valid.all()
    assert connected.tolist() == [nx.is_connected(nx.from_graph6_bytes(line)) for line in lines] == [True, True, False]
    for g, adjacency in zip(graphs, a):
        assert (adjacency == g.adjacency()).all()
    assert parse_graph6(lines[0]) == graphs[0] and parse_graph6(lines[1]) == graphs[1]
    with pytest.raises(DisconnectedGraphError):
        parse_graph6(lines[2])


def test_write_graph6_rejects_weighted_and_loops(det_zero_pair):
    with pytest.raises(GraphFormatError):
        write_graph6(det_zero_pair)
    g = WeightedGraph(3, ((0, 1, 2.0), (1, 2, 1.0)))
    with pytest.raises(GraphFormatError):
        write_graph6(g)


@given(connected_unweighted(max_n=20))
def test_graph6_round_trip_matches_networkx(g):
    encoded = write_graph6(g)
    assert parse_graph6(encoded) == g
    # cross-check both directions against networkx
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u, v, _ in g.edges)
    assert encoded == nx.to_graph6_bytes(nxg, header=False).strip()
    back = nx.from_graph6_bytes(encoded)
    assert set(back.edges()) == {(u, v) for u, v, _ in g.edges}


# ---------------------------------------------------------------------------
# edge list
# ---------------------------------------------------------------------------

def test_parse_edgelist_det_zero_instance():
    g = parse_edgelist(DET_ZERO_PAIR_TEXT)
    assert g.n == 2
    assert np.array_equal(g.adjacency(), np.array([[4.0, 2.0], [2.0, 1.0]]))


def test_parse_edgelist_path():
    g = parse_edgelist("3\n0 1 1\n1 2 1\n")
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert g.name is None
    assert parse_edgelist("3\n0 1 1\n1 2 1\n", name="p3").name == "p3"


@pytest.mark.parametrize(
    "text",
    [
        "2\n0 1 1\n0 1 2\n",      # duplicate pair
        "2\n0 1 0\n",             # zero weight
        "2\n0 1 -1\n",            # negative weight
        "2\n0 1 inf\n",           # non-finite weight
        "2\n0 1 x\n",             # unparseable
        "2\n0 2 1\n",             # index out of range
        "2\n0 1\n",               # missing weight
        "",                       # no data
        "x\n",                    # bad count line
    ],
)
def test_parse_edgelist_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_edgelist(text)


def test_parse_edgelist_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_edgelist("4\n0 1 1\n2 3 1\n")


def test_too_few_edges_are_disconnected_before_any_per_vertex_work():
    # a spanning tree needs n - 1 edges, self-loops not counted: one edge on
    # two million vertices is rejected without a list per vertex
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError):
            parse_edgelist("2000000\n0 1 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not is_connected(WeightedGraph(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0))))
    assert is_connected(WeightedGraph(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0))))


def test_edgelist_round_trip_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 16))
        g = random_connected_weighted(rng, n, self_loops=True)
        assert parse_edgelist(write_edgelist(g, comments=["round trip"])) == g


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_complete_and_star_shapes():
    k4 = generate("complete", n=4)
    assert len(k4.edges) == 6
    star = generate("star", n=4)
    assert {(u, v) for u, v, _ in star.edges} == {(0, 1), (0, 2), (0, 3)}
    d = star.degrees()
    assert d[0] == 3 and all(d[1:] == 1)


def test_path_and_cycle():
    p = generate("path", n=4)
    assert {(u, v) for u, v, _ in p.edges} == {(0, 1), (1, 2), (2, 3)}
    c = generate("cycle", n=4)
    assert {(u, v) for u, v, _ in c.edges} == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_er_deterministic_and_connected():
    g1 = generate("er", n=20, p=0.3, seed=7)
    g2 = generate("er", n=20, p=0.3, seed=7)
    assert g1 == g2
    assert is_connected(g1)
    assert g1 != generate("er", n=20, p=0.3, seed=8)


def test_sbm_deterministic():
    params = dict(sizes=(6, 6), b=[[0.8, 0.1], [0.1, 0.8]])
    g1 = generate("sbm", seed=3, **params)
    g2 = generate("sbm", seed=3, **params)
    assert g1 == g2 and g1.n == 12 and is_connected(g1)


@pytest.mark.parametrize("n,p,seed", [(2, 1.0, 0), (5, 0.5, 1), (12, 0.2, 3), (30, 0.1, 4), (45, 0.07, 9)])
def test_er_is_the_one_block_sbm(n, p, seed):
    er = generate("er", seed=seed, n=n, p=p)
    sbm = generate("sbm", seed=seed, sizes=(n,), b=[[p]])
    assert er.edges == sbm.edges
    assert er.name.split(",seed=")[1] == sbm.name.split(",seed=")[1]


def test_random_draws_are_pinned():
    # one uniform per pair u < v in np.triu_indices order, one rng.random call per attempt
    b = [[0.8, 0.05, 0.1], [0.05, 0.6, 0.02], [0.1, 0.02, 0.9]]
    text = ""
    resampled = 0
    for seed in range(40):
        er = generate("er", seed=seed, n=30, p=0.1)
        sbm = generate("sbm", seed=seed, sizes=(5, 6, 7), b=b)
        resampled += "resampled=" in er.name
        text += write_edgelist(er, comments=[er.name]) + write_edgelist(sbm, comments=[sbm.name])
    assert resampled == 29
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e26e6e79563498666d4726b52bc3ae186e802b79bf0cb3bfac03a4ce44c92cd6"
    )


@pytest.mark.parametrize("model, params", [
    ("er", {"n": 30, "p": 0.1}),
    ("sbm", {"sizes": (5, 6, 7), "b": [[0.8, 0.05, 0.1], [0.05, 0.6, 0.02], [0.1, 0.02, 0.9]]}),
])
def test_sample_stack_rows_are_the_generated_graphs(model, params):
    # every row of a stack is the draw generate makes from its seed alone,
    # resampled draws included, whatever the other seeds of the stack
    seeds = [17, 3, 9, 0, 34, 1, 27, 5]
    a, names, drawn = sample_stack(model, seeds, **params)
    n = 18 if model == "sbm" else 30
    assert a.shape == (8, n, n) and drawn.all()
    assert connected_stack(a).all()
    for seed, row, name, edges in zip(seeds, a, names, stack_edges(a)):
        g = generate(model, seed=seed, **params)
        assert np.array_equal(row, g.adjacency()) and name == g.name and edges == g.edges
    if model == "er":
        assert sum("resampled=" in name for name in names) == 5


def test_sample_stack_masks_only_the_draw_that_exhausts_its_retries():
    # of ER(30, 0.1) seeds 0..8 only seed 1 needs more than 5 attempts (its 7th is connected)
    a, names, drawn = sample_stack("er", range(9), retry_budget=5, n=30, p=0.1)
    assert drawn.tolist() == [True, False] + [True] * 7
    assert generate("er", seed=1, n=30, p=0.1).name == "er(n=30,p=0.1,seed=1,resampled=6)"
    for seed in (0, 2, 3, 4, 5, 6, 7, 8):
        assert stack_edges(a[seed:seed + 1])[0] == generate("er", seed=seed, n=30, p=0.1).edges


def test_connected_stack_ignores_self_loops_and_reads_weights():
    a = np.zeros((3, 4, 4))
    a[:, [0, 1, 2], [1, 2, 3]] = a[:, [1, 2, 3], [0, 1, 2]] = 0.5  # the path 0-1-2-3
    a[1, 2, 3] = a[1, 3, 2] = 0.0
    a[1, 3, 3] = 2.0  # a self-loop does not reach vertex 3
    a[2, 0, 0] = 1.0
    assert connected_stack(a).tolist() == [True, False, True]
    assert connected_stack(a > 0).tolist() == [True, False, True]


def test_generator_validation():
    with pytest.raises(GraphFormatError):
        generate("er", n=10)  # missing p
    with pytest.raises(GraphFormatError):
        generate("er", n=10, p=1.5)
    with pytest.raises(GraphFormatError):
        generate("nope", n=5)
    with pytest.raises(GraphFormatError):
        generate("sbm", sizes=(3, 3), b=[[0.5, 0.1], [0.2, 0.5]])  # asymmetric
    with pytest.raises(GraphFormatError):
        generate("cycle", n=2)
    with pytest.raises(GraphFormatError):
        generate("sbm", sizes=(2.7, 3.9), b=[[0.9, 0.5], [0.5, 0.9]])  # non-integer block sizes
    with pytest.raises(GraphFormatError):
        generate("sbm", sizes=(3, 0), b=[[0.9, 0.5], [0.5, 0.9]])
    # numpy integer block sizes are integers, and an empty array is no block sizes
    g = generate("sbm", sizes=np.array([3, 3]), b=[[0.9, 0.5], [0.5, 0.9]])
    assert g == generate("sbm", sizes=[3, 3], b=[[0.9, 0.5], [0.5, 0.9]])
    assert g.name == "sbm(sizes=(3, 3),seed=0)"
    with pytest.raises(GraphFormatError):
        generate("sbm", sizes=np.array([], dtype=int), b=np.zeros((0, 0)))


def test_er_connectivity_budget():
    with pytest.raises(GenerationError) as err:
        generate("er", n=30, p=0.01, seed=0, retry_budget=3)
    assert str(err.value) == "no connected er(n=30,p=0.01) sample in 3 attempts (seed=0)"


# ---------------------------------------------------------------------------
# degree statistics and connectivity
# ---------------------------------------------------------------------------

def test_degree_stats_path3(p3):
    s = degree_stats(p3)
    assert np.array_equal(s.d, np.array([1.0, 2.0, 1.0]))
    assert s.d_mean == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert s.d_second_moment == pytest.approx(2.0, rel=1e-15)
    assert s.snr == pytest.approx(8.0 / 9.0, rel=1e-15)
    assert s.d_max == 2.0
    assert s.volume == 4.0


def test_degree_stats_regular(k4):
    s = degree_stats(k4)
    assert np.array_equal(s.d, np.full(4, 3.0))
    assert s.snr == pytest.approx(1.0, abs=1e-15)


def test_degree_stats_weighted(det_zero_pair):
    s = degree_stats(det_zero_pair)
    assert np.array_equal(s.d, np.array([6.0, 3.0]))
    assert s.volume == 9.0


def test_is_connected_cases(k4, p3):
    assert is_connected(k4)
    assert is_connected(p3)
    assert not is_connected(WeightedGraph.from_pairs(4, [(0, 1), (2, 3)]))


@given(connected_weighted(max_n=8))
@settings(max_examples=60)
def test_degree_identities(g):
    a = g.adjacency()
    d = g.degrees()
    assert np.allclose(d, a.sum(axis=1), rtol=0, atol=0)
    assert g.volume == pytest.approx(float(d.sum()), rel=1e-15)
    s = degree_stats(g)
    assert 0.0 < s.snr <= 1.0 + 1e-15
    regular = np.isclose(d.max(), d.min(), rtol=1e-12)
    assert (abs(s.snr - 1.0) < 1e-12) == regular
