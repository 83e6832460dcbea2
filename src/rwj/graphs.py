"""Weighted graphs, graph6 and edge-list formats, generators, degree statistics.

graph6 is known here alone: one line reader, one size rule, one body decoder.

Conventions used throughout:

* a self-loop (u, u, w) contributes its weight once to the degree d_u,
  i.e. d = A 1 with a_uu = w on the diagonal;
* ``volume`` is the sum of all weighted degrees (the quantity the stationary
  distribution d_i / volume normalises against);
* graphs are immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GenerationError, GraphFormatError

GRAPH6_MAX_N = 258047  # largest n with a 1-byte or 4-byte size header
_GRAPH6_SHORT_MAX_N = 62  # largest n with a 1-byte size header

GENERATOR_MODELS = ("path", "cycle", "star", "complete", "er", "sbm")


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative weighted adjacency, stored once per unordered pair.

    ``edges`` holds triples (u, v, w) with 0 <= u <= v < n and w > 0; u == v
    encodes a self-loop of weight a_uu. Absent pairs have weight zero.
    Equality and hashing ignore ``name``. The dense adjacency, the degree
    vector and connectivity are derived once, on first use, and cached.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GraphFormatError(f"need at least 2 vertices, got n={self.n}")
        seen: set[tuple[int, int]] = set()
        normalized = []
        for u, v, w in self.edges:
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            if not (0 <= u <= v < self.n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={self.n}")
            w = float(w)
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphFormatError(f"edge ({u},{v}) has nonpositive or non-finite weight {w}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            normalized.append((u, v, w))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]], name: str | None = None) -> "WeightedGraph":
        """Unweighted helper: every listed pair gets weight 1."""
        return cls(n, tuple((u, v, 1.0) for u, v in pairs), name)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix (cached, read-only)."""
        return self._adjacency

    def degrees(self) -> np.ndarray:
        """Weighted degree vector d = A 1, self-loops counted once (cached, read-only)."""
        return self._degrees

    @cached_property
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
        a.flags.writeable = False
        return a

    @cached_property
    def _degrees(self) -> np.ndarray:
        d = self._adjacency.sum(axis=1)
        d.flags.writeable = False
        return d

    @cached_property
    def connected(self) -> bool:
        """True iff the positive-weight adjacency has one component (self-loops ignored)."""
        # not connected_stack: a shared CSR frontier was slower on every input, and a dense stack takes n^2 memory
        if sum(u != v for u, v, _ in self.edges) < self.n - 1:
            return False  # too few edges for a spanning tree; nothing is allocated per vertex
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n

    @property
    def volume(self) -> float:
        return float(self.degrees().sum())

    def is_unweighted(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges)

    def has_self_loops(self) -> bool:
        return any(u == v for u, v, _ in self.edges)


@dataclass(frozen=True, eq=False)
class DegreeStats:
    """Degree summary quantities used by the sufficient-condition ladder."""

    d: np.ndarray
    volume: float
    d_max: float
    d_mean: float
    d_second_moment: float
    snr: float  # d_mean^2 / d_second_moment, in (0, 1], 1 iff regular


def degree_stats(g: WeightedGraph) -> DegreeStats:
    return degree_stats_of(g.degrees())


def degree_stats_of(d: np.ndarray) -> DegreeStats:
    """Degree statistics of a degree vector, or elementwise of a stack of them (last axis)."""
    d_mean = d.mean(axis=-1)
    d2 = (d * d).mean(axis=-1)
    return DegreeStats(
        d=d,
        volume=d.sum(axis=-1),
        d_max=d.max(axis=-1),
        d_mean=d_mean,
        d_second_moment=d2,
        snr=d_mean * d_mean / d2,
    )


def is_connected(g: WeightedGraph) -> bool:
    """True iff the positive-weight adjacency has one component (self-loops ignored).

    The search runs once per graph; later checks read ``g.connected``.
    """
    return g.connected


# ---------------------------------------------------------------------------
# graph6 (McKay's format; 1-byte size header for n <= 62, 4-byte for n <= 258047)
# ---------------------------------------------------------------------------

GRAPH6_PREFIX = b">>graph6<<"  # optional, as networkx's write_graph6 writes it


def read_graph6_lines(source) -> tuple[str, list[bytes]]:
    """(provenance, lines) of a path, stream or iterable of lines: no blank line, line end or :data:`GRAPH6_PREFIX`."""
    if isinstance(source, (str, Path)):
        provenance = str(source)
        raw = Path(source).read_bytes().splitlines()
    elif hasattr(source, "read"):
        provenance = getattr(source, "name", "<stream>")
        data = source.read()
        if isinstance(data, str):
            data = data.encode("ascii")
        raw = data.splitlines()
    else:
        provenance = "<lines>"
        raw = [line.encode("ascii") if isinstance(line, str) else bytes(line) for line in source]
    return provenance, [line.rstrip(b"\r\n").removeprefix(GRAPH6_PREFIX) for line in raw if line.strip()]


def _graph6_size(line: bytes) -> int:
    """n of a graph6 line whose size header and body length are valid; else :class:`GraphFormatError`.

    n <= 62 is one byte 63+n; 63 <= n <= 258047 is '~' followed by n as 18
    bits, big-endian, in three bytes of 6 bits each offset by 63. The 8-byte
    form ('~~', n > 258047), an empty line and n < 2 are rejected.
    """
    if not line:
        raise GraphFormatError("empty graph6 line")
    header = line[0]
    if not 63 <= header <= 126:
        raise GraphFormatError(f"graph6 header byte {header} outside [63, 126]")
    if header != 126:
        n, body = header - 63, line[1:]
        if n < 2:
            raise GraphFormatError(f"graph6 line encodes n={n}; need n >= 2")
    else:
        size = line[1:4]
        if size[:1] == b"~":
            raise GraphFormatError(f"8-byte graph6 size header (n > {GRAPH6_MAX_N}) is not supported")
        if len(size) != 3 or any(not 63 <= b <= 126 for b in size):
            raise GraphFormatError("truncated or invalid 4-byte graph6 size header")
        n, body = ((size[0] - 63) << 12) | ((size[1] - 63) << 6) | (size[2] - 63), line[4:]
        if n <= _GRAPH6_SHORT_MAX_N:
            raise GraphFormatError(f"4-byte graph6 size header encodes n={n}; n <= 62 takes one byte")
    if len(body) != _graph6_body_bytes(n):
        raise GraphFormatError(f"graph6 body has {len(body)} bytes, expected {_graph6_body_bytes(n)} for n={n}")
    return n


def _graph6_body_bytes(n: int) -> int:
    """Length of the graph6 body of an n-vertex graph: n(n-1)/2 bits, six to a byte."""
    return (n * (n - 1) // 2 + 5) // 6


def _graph6_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of every pair u < v in graph6 bit order x01, x02, x12, x03, ...: the upper triangle column by column.

    That is the lower triangle (1,0), (2,0), (2,1), ... read row by row.
    """
    v, u = np.tril_indices(n, -1)
    return u, v


def graph6_n(line: bytes) -> int:
    """n of a graph6 line whose size header (1-byte or 4-byte) and body length :func:`parse_graph6` accepts, else 0."""
    try:
        return _graph6_size(line)
    except GraphFormatError:
        return 0


def graph6_groups(lines: Sequence[bytes]) -> dict[int, list[int]]:
    """For each n, the positions of the lines :func:`graph6_n` maps to n, in input order.

    n depends only on a line's size header and length, so :func:`graph6_n`
    reads one line of each (header, length) group.
    """
    groups: dict[tuple[bytes, int], list[int]] = {}
    for i, line in enumerate(lines):
        groups.setdefault((line[:4] if line[:1] == b"~" else line[:1], len(line)), []).append(i)
    sized = {graph6_n(lines[positions[0]]): positions for positions in groups.values()}
    sized.pop(0, None)
    return sized


def parse_graph6(data: bytes | str) -> WeightedGraph:
    """Parse one graph6 line, with or without :data:`GRAPH6_PREFIX`, into an unweighted graph.

    A malformed line raises :class:`GraphFormatError`; a disconnected graph
    raises :class:`DisconnectedGraphError`, which catalog scans count as a skip.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphFormatError(f"non-ASCII graph6 input: {exc}") from exc
    line = data.rstrip(b"\r\n").removeprefix(GRAPH6_PREFIX)
    n = _graph6_size(line)
    a, valid, connected = decode_graph6_stack([line], n)
    if not valid[0]:
        raise GraphFormatError(f"graph6 line {line!r} has a body byte outside [63, 126] or nonzero padding bits")
    if not connected[0]:
        raise DisconnectedGraphError(f"graph6 line {line.decode('ascii')!r} is disconnected")
    return WeightedGraph(n, stack_edges(a)[0], name=line.decode("ascii"))


def decode_graph6_stack(lines: Sequence[bytes], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The only graph6 body decoder: adjacency matrices of n-vertex lines in one vectorised pass.

    :func:`parse_graph6` is its stack of one. Every line must be one that
    :func:`graph6_n` maps to n. Returns the (k, n, n) adjacency stack, a mask
    of the valid bodies (bytes in [63, 126], zero padding bits; bits map to
    pairs in :func:`_graph6_pairs` order) and a mask of the connected graphs
    (:func:`connected_stack`).
    """
    k = len(lines)
    nbits = n * (n - 1) // 2
    header = 1 if n <= _GRAPH6_SHORT_MAX_N else 4
    body = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(k, -1)[:, header:]
    valid = ((body >= 63) & (body <= 126)).all(axis=1)
    bits = np.unpackbits((body - 63)[..., None], axis=-1)[..., 2:].reshape(k, -1)
    valid &= ~bits[:, nbits:].any(axis=1)
    u, v = _graph6_pairs(n)
    adj = np.zeros((k, n, n), dtype=bool)
    adj[:, u, v] = bits[:, :nbits]
    adj[:, v, u] = bits[:, :nbits]
    return adj.astype(float), valid, connected_stack(adj)


def connected_stack(adj: np.ndarray) -> np.ndarray:
    """Mask of the connected graphs of a (k, n, n) adjacency stack; self-loops are ignored.

    It costs O(k·n²) whatever the diameters: the frontier grown from vertex 0
    of every graph at once reads each reached vertex's adjacency row once.
    """
    k, n = adj.shape[:2]
    rows = adj.reshape(k * n, n)  # row g * n + x: vertex x of graph g
    reached = np.zeros(k * n, dtype=bool)
    frontier = np.arange(0, k * n, n)
    reached[frontier] = True
    while frontier.size:
        i, w = np.nonzero(rows[frontier])
        hit = np.zeros(k * n, dtype=bool)
        hit[frontier[i] // n * n + w] = True
        frontier = np.flatnonzero(hit > reached)
        reached[frontier] = True
    return reached.reshape(k, n).all(axis=1)


def stack_edges(a: np.ndarray) -> list[tuple[tuple[int, int, float], ...]]:
    """``WeightedGraph.edges`` of each unweighted graph without self-loops of a (k, n, n) adjacency stack."""
    return [unpack_edges(a.shape[-1], bits) for bits in pack_edges(a)]


def pack_edges(a: np.ndarray) -> list[bytes]:
    """The upper-triangle pairs of each unweighted graph of a (k, n, n) adjacency stack, one bit per pair, packed.

    :func:`unpack_edges` reads them back as the graph's edges.
    """
    u, v = np.triu_indices(a.shape[-1], 1)
    return [row.tobytes() for row in np.packbits(a[:, u, v] > 0.0, axis=-1)]


def unpack_edges(n: int, bits: bytes) -> tuple[tuple[int, int, float], ...]:
    """``WeightedGraph.edges`` of the n-vertex unweighted graph whose pairs :func:`pack_edges` packed into ``bits``."""
    u, v = np.triu_indices(n, 1)
    row = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=len(u)).view(bool)
    # a tuple built from a list, not from an iterator: tuple() grows and shrinks
    # an iterator's result in place, which leaves the heap fragmented
    return tuple(list(zip(u[row].tolist(), v[row].tolist(), repeat(1.0))))


def write_graph6(g: WeightedGraph) -> bytes:
    """Encode an unweighted graph without self-loops as one graph6 line (no newline).

    The body packs one bit per pair in the :func:`_graph6_pairs` order that
    :func:`decode_graph6_stack` reads, six bits to a byte, zero-padded.
    """
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(f"graph6 with a 1- or 4-byte size header supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    if g.has_self_loops():
        raise GraphFormatError("graph6 cannot encode self-loops")
    if not g.is_unweighted():
        raise GraphFormatError("graph6 cannot encode weighted edges")
    u, v = _graph6_pairs(g.n)
    bits = np.zeros(6 * _graph6_body_bytes(g.n), dtype=np.uint8)
    bits[:len(u)] = g.adjacency()[u, v] > 0.0
    if g.n <= _GRAPH6_SHORT_MAX_N:
        header = [63 + g.n]
    else:
        header = [126] + [63 + ((g.n >> shift) & 63) for shift in (12, 6, 0)]
    return bytes(header) + ((np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63).tobytes()


# ---------------------------------------------------------------------------
# weighted edge-list text format
# ---------------------------------------------------------------------------

def parse_edgelist(text: str, name: str | None = None) -> WeightedGraph:
    """Parse the weighted edge-list format.

    Lines starting with '#' are comments; the first data line is the vertex
    count n; each following data line is "u v w" with 0-based endpoints and a
    positive weight. u == v encodes a self-loop. Duplicate unordered pairs are
    an error, as is a disconnected result. ``name`` names the graph.
    """
    data_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data_lines.append(line)
    if not data_lines:
        raise GraphFormatError("edge list has no data lines")
    try:
        n = int(data_lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"first data line must be the vertex count, got {data_lines[0]!r}") from exc
    edges = []
    for line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"unparseable edge line {line!r}") from exc
        if not math.isfinite(w) or w <= 0.0:
            raise GraphFormatError(f"nonpositive or non-finite weight in {line!r}")
        edges.append((u, v, w))
    g = WeightedGraph(n, tuple(edges), name)
    if not is_connected(g):
        raise DisconnectedGraphError("edge list describes a disconnected graph")
    return g


def write_edgelist(g: WeightedGraph, comments: Sequence[str] = ()) -> str:
    """Serialise a graph in the edge-list format; weights round-trip exactly."""
    lines = [f"# {c}" for c in comments]
    lines.append(str(g.n))
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _is_int_at_least(x, minimum: int) -> bool:
    return isinstance(x, (int, np.integer)) and x >= minimum


def _require_n(params: dict, minimum: int = 2) -> int:
    n = params.get("n")
    if not _is_int_at_least(n, minimum):
        raise GraphFormatError(f"model needs integer n >= {minimum}, got {n!r}")
    return int(n)


def sample_stack(
    model: str, seeds: Sequence[int], retry_budget: int = 1000, **params
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(k, n, n) adjacency stack, names and drawn mask of the graphs of ``model`` from each of the k ``seeds``.

    The one sampler of the random models; ER is the one-block SBM. Every seed
    draws from its own ``default_rng(seed)`` stream, vertices get block labels
    from the block sizes in order, and each attempt draws one ``rng.random``
    per pair u < v in ``np.triu_indices`` order and keeps the pairs whose draw
    is below their block probability. The disconnected draws (one
    :func:`connected_stack` test for all) draw again; attempt K > 0 of seed S
    is named ``<label>,seed=S,resampled=K)``. A seed with no connected draw
    in ``retry_budget`` attempts is masked out. A deterministic family
    ignores the seeds: every row is its graph.
    """
    if model == "er":
        n = _require_n(params)
        p = params.get("p")
        if not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
            raise GraphFormatError(f"er needs p in (0, 1], got {p!r}")
        label, sizes, b = f"er(n={n},p={p:g}", [n], np.array([[float(p)]])
    elif model == "sbm":
        sizes = params.get("sizes")
        if sizes is None or not len(sizes) or not all(_is_int_at_least(s, 1) for s in sizes):
            raise GraphFormatError(f"sbm needs positive integer block sizes, got {sizes!r}")
        sizes = [int(s) for s in sizes]
        b = np.asarray(params.get("b"), dtype=float)
        if b.shape != (len(sizes), len(sizes)) or not np.allclose(b, b.T):
            raise GraphFormatError(f"sbm needs a symmetric {len(sizes)}x{len(sizes)} probability matrix")
        if b.min() < 0.0 or b.max() > 1.0:
            raise GraphFormatError("sbm probabilities must lie in [0, 1]")
        if sum(sizes) < 2:
            raise GraphFormatError("sbm needs at least 2 vertices in total")
        label = f"sbm(sizes={tuple(sizes)}"
    else:
        g = generate(model, **params)
        return np.repeat(g.adjacency()[None], len(seeds), axis=0), [g.name] * len(seeds), np.ones(len(seeds), bool)
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = len(block)
    u, v = np.triu_indices(n, 1)
    prob = b[block[u], block[v]]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    a = np.zeros((len(seeds), n, n))
    attempts = np.zeros(len(seeds), dtype=int)
    todo = np.arange(len(seeds))
    for attempt in range(retry_budget):
        if not todo.size:
            break
        attempts[todo] = attempt
        keep = np.array([rngs[i].random(len(prob)) for i in todo.tolist()]) < prob
        a[todo[:, None], u, v] = a[todo[:, None], v, u] = keep
        todo = todo[~connected_stack(a[todo])]
    names = [f"{label},seed={seed})" if k == 0 else f"{label},seed={seed},resampled={k})"
             for seed, k in zip(seeds, attempts.tolist())]
    drawn = np.ones(len(seeds), bool)
    drawn[todo] = False
    return a, names, drawn


def generate(model: str, seed: int = 0, retry_budget: int = 1000, **params) -> WeightedGraph:
    """Build a named deterministic family or a seeded random graph.

    Deterministic families (path, cycle, star, complete) ignore the seed.
    A random model (er, sbm) is :func:`sample_stack` on the one seed: it
    resamples from the seeded stream until connected, up to ``retry_budget``
    attempts, records a nonzero resample count in the graph name and raises
    :class:`GenerationError` when no attempt is connected.
    """
    if model == "path":
        n = _require_n(params)
        return WeightedGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)], name=f"path(n={n})")
    if model == "cycle":
        n = _require_n(params, minimum=3)
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return WeightedGraph.from_pairs(n, pairs, name=f"cycle(n={n})")
    if model == "star":
        n = _require_n(params)
        return WeightedGraph.from_pairs(n, [(0, i) for i in range(1, n)], name=f"star(n={n})")
    if model == "complete":
        n = _require_n(params)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return WeightedGraph.from_pairs(n, pairs, name=f"complete(n={n})")
    if model in ("er", "sbm"):
        a, names, drawn = sample_stack(model, [seed], retry_budget, **params)
        if not drawn[0]:
            raise GenerationError(f"no connected {names[0].partition(',seed=')[0]}) sample in {retry_budget} attempts "
                                  f"(seed={seed})")
        return WeightedGraph(len(a[0]), stack_edges(a)[0], name=names[0])
    raise GraphFormatError(f"unknown model {model!r}; choose one of {GENERATOR_MODELS}")
