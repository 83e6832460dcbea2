"""Counterexample hunting: two-vertex closed forms, catalog scans, random-model scans.

A counterexample is a graph whose relaxation time strictly increases for all
sufficiently small jump rates. Candidates are found by the first-order
classification and only reported after a direct branch-tracked sweep confirms
the gap really shrinks at alpha in {1e-3, 1e-2}; the two confirmations
(derivative sign and sweep) are independent.

Every row, of one graph, of a stack of same-n catalog lines or of a stack of two-node grid points, comes from the same
cores: the stacked eigensolve of :mod:`rwj.spectral`, the verdict core :func:`~rwj.perturb.classify_stack` (the
closed forms for two-node points), the ladder core :func:`~rwj.conditions.ladder_stack` and the stacked sweep
:func:`~rwj.perturb.sweep_stack`. :func:`_decide` runs them on an adjacency stack and keeps the rows as array columns,
the alpha = 0 spectrum among them. It takes no step: the verdict core's checks step by FD_STEP * d_min of each row,
so a row's verdict depends on its matrix alone and A and cA get the same one. One graph (:func:`analyze_graph` and
``rwj analyze``) is a stack of one, and the two-node grid hands the columns of its closed forms to the row core,
:func:`_stack_rows`, directly. A verdict exists only as columns, for one graph or one two-node point too, and a
:class:`ScanRecord` is built straight from the columns, only for a row that is reported: :func:`analyze_graph` and
the two-node grid report every row, while a scan's work units count their rows from the columns and send back
only their WORSENS rows and their own ``top_k`` closest calls, which :func:`_finalize` merges. With
``parallelism`` > 1 the units run on a pool of at most one worker process per unit (:func:`_run`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .conditions import Ladder, ladder_stack
from .errors import ConventionError, GraphFormatError
from .graphs import (
    WeightedGraph,
    decode_graph6_stack,
    degree_stats_of,
    graph6_groups,
    pack_edges,
    read_graph6_lines,
    sample_stack,
    unpack_edges,
    write_edgelist,
)
from .perturb import (
    WORSENS,
    StackedVerdicts,
    classify_stack,
    modulus_rate,
    sweep_stack,
    verdict,
)
from .spectral import (
    NO_ADMISSIBLE,
    SLEM,
    StackedSpectrum,
    _solve,
    normalize_convention,
    require_connected,
)

# Graphs per stacked eigensolve. Larger stacks barely speed up n <= 8; a
# unit of larger graphs holds at most ENTRY_BUDGET adjacency entries (see _unit_size).
STACK_SIZE = 256
ENTRY_BUDGET = 2 ** 16


# ---------------------------------------------------------------------------
# weighted two-vertex graphs: everything in closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoNodeParams:
    """Weights of the two-vertex graph [[a11, a12], [a12, a22]]; a12 > 0 keeps it connected."""

    a11: float
    a12: float
    a22: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a11) and math.isfinite(self.a12) and math.isfinite(self.a22)):
            raise GraphFormatError(f"weights must be finite, got a11={self.a11} a12={self.a12} a22={self.a22}")
        if self.a12 <= 0.0:
            raise GraphFormatError(f"a12 must be > 0 for connectivity, got {self.a12}")
        if self.a11 < 0.0 or self.a22 < 0.0:
            raise GraphFormatError("self-loop weights must be nonnegative")

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Sorted (u, v, w) triples of the graph; a self-loop only where its weight is > 0."""
        return tuple(e for e in ((0, 0, self.a11), (0, 1, self.a12), (1, 1, self.a22)) if e[2] > 0.0)

    @property
    def name(self) -> str:
        return f"two-node({self.a11:g},{self.a12:g},{self.a22:g})"

    def graph(self) -> WeightedGraph:
        return WeightedGraph(2, self.edges, name=self.name)


class _TwoNodeForms(NamedTuple):
    """Closed-form eigenpairs, first-order terms and ``slem`` verdicts of two-vertex graphs, one entry per graph.

    One-dimensional, they are verdict columns as in :class:`~rwj.perturb.StackedVerdicts`:
    each level is one simple eigenvalue, whose one branch starts along v_star.
    """

    lambda_star: np.ndarray
    r: np.ndarray              # v_star = (1, -r)
    numerator: np.ndarray      # (1/2)(1^T v)^2 - lambda v^T v, via the explicit expansion
    lambda_first: np.ndarray   # numerator / (v^T D v)
    rate: np.ndarray
    classification: np.ndarray
    gap_derivative: np.ndarray
    stationary: np.ndarray

    convention = SLEM
    degenerate = tied_sign = property(lambda self: np.zeros(self.r.shape, dtype=bool))

    def branch_vectors(self, rows: Sequence[int]) -> np.ndarray:
        """The (1, 2) branch vector v_star of each row in ``rows``."""
        return np.stack([np.ones(len(rows)), -self.r[rows]], axis=-1)[:, None]


def _two_node_forms(a11, a12, a22) -> _TwoNodeForms:
    """The closed forms of every graph [[a11, a12], [a12, a22]] of arrays that broadcast to one shape.

    Only + - * / are used, so every entry rounds as IEEE arithmetic does on
    any CPU; the weights must be valid :class:`TwoNodeParams`. Weights whose
    forms overflow or underflow to a non-finite value raise
    :class:`GraphFormatError` naming the first such graph in C order.
    """
    with np.errstate(all="ignore"):
        d1 = a11 + a12
        d2 = a22 + a12
        det = a11 * a22 - a12 * a12
        lam = det / (d1 * d2)
        r = d1 / d2
        dz = a22 - a11
        numerator = (dz * dz * d1 * d2 - 2.0 * det * (d1 * d1 + d2 * d2)) / (2.0 * d1 * (d2 * d2 * d2))
        lam1 = numerator / (d1 + d2 * r * r)  # v^T D v = d1 + d2 r^2
    finite = np.isfinite(lam) & np.isfinite(r) & np.isfinite(numerator) & np.isfinite(lam1)
    if not finite.all():
        first = np.argmin(finite)
        p = TwoNodeParams(*(np.broadcast_to(x, finite.shape).flat[first].item() for x in (a11, a12, a22)))
        raise GraphFormatError(f"the closed forms of {p.name} leave the floating-point range")
    rate = modulus_rate(lam, lam, lam1)
    return _TwoNodeForms(lam, r, numerator, lam1, rate, *verdict(lam, rate, np.minimum(d1, d2)))


def two_node_closed_form(p: TwoNodeParams) -> _TwoNodeForms:
    """Closed-form non-unit eigenpair, first-order term and verdict for the two-vertex graph, as columns of one entry.

    lambda_star = det(A) / ((a11+a12)(a22+a12)), eigenvector (1, -(a11+a12)/(a22+a12)),
    and the numerator of the first-order term expands to

        [(a22-a11)^2 (a11+a12)(a22+a12) - 2 det(A) ((a11+a12)^2 + (a22+a12)^2)]
        / [2 (a11+a12)(a22+a12)^3].

    The non-unit eigenvalue is simple, so the verdict is the shared rule of
    :mod:`rwj.perturb` applied to this one branch. This is the array formula
    that :func:`two_node_grid_search` evaluates on whole slabs, on one point.
    """
    return _two_node_forms(*np.array([[p.a11], [p.a12], [p.a22]], dtype=float))


# ---------------------------------------------------------------------------
# scan records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScanRecord:
    """Per-graph verdict row."""

    id: str
    n: int
    convention: str
    lambda_star: float
    lambda_first: float
    classification: str
    margin: float                      # d(gap)/dalpha at 0+; negative for WORSENS
    cor1: bool
    cor2: bool
    thm2_sharp: bool
    cor4_sharp: bool
    nand_s: bool | None
    degenerate: bool
    tied_sign: bool
    stationary: bool
    near_unit: bool
    sweep_confirmed: bool | None       # None unless classified WORSENS
    consistency_violations: tuple[str, ...]
    paper_constant_witness: bool
    edges: tuple[tuple[int, int, float], ...]

    def flags(self) -> str:
        toks = []
        if self.degenerate:
            toks.append("degenerate")
        if self.tied_sign:
            toks.append("tied")
        if self.stationary:
            toks.append("stationary")
        if self.near_unit:
            toks.append("near_unit")
        if self.sweep_confirmed is True:
            toks.append("sweep_confirmed")
        elif self.sweep_confirmed is False:
            toks.append("sweep_unconfirmed")
        if self.consistency_violations:
            toks.append("inconsistent")
        if self.paper_constant_witness:
            toks.append("paper_constant_witness")
        return "|".join(toks)


@dataclass(eq=False)
class ScanSummary:
    """Aggregate of one scan run."""

    provenance: str
    convention: str
    total: int = 0
    classified: int = 0
    skipped: int = 0
    counterexamples: int = 0
    worsens_unconfirmed: int = 0
    degenerate: int = 0
    tied: int = 0
    stationary: int = 0
    paper_constant_witnesses: int = 0
    consistency_violations: int = 0
    min_margin_records: tuple[ScanRecord, ...] = ()
    elapsed: float = 0.0


def analyze_graph(g: WeightedGraph, convention: str = SLEM) -> ScanRecord:
    """Classify one graph and evaluate its condition ladder; sweep-confirm WORSENS verdicts.

    This is :func:`_decide` on a stack of one (:func:`_decide_one`), as
    ``rwj analyze`` runs it. A disconnected graph raises
    DisconnectedGraphError; one with no admissible eigenvalue raises
    ConventionError.
    """
    rows = _decide_one(g, normalize_convention(convention))
    return rows.records([0], [g.name or "<anonymous>"], [g.edges])[0]


class _Rows(NamedTuple):
    """The decided rows of an adjacency stack as columns; :meth:`records` builds the rows a caller reports."""

    n: int
    verdicts: StackedVerdicts | _TwoNodeForms  # the verdict columns, one entry per row
    worse: np.ndarray                # (k,) the row's verdict is WORSENS
    spec: StackedSpectrum            # the alpha = 0 spectrum of the rows
    ladder: Ladder
    confirmed: list[bool | None]     # the sweep's answer on each WORSENS row, None elsewhere

    def fields(self, picked: Sequence[int], ids: Sequence[str], edges: Sequence[tuple]) -> list[dict]:
        """The :class:`ScanRecord` fields of the stack rows ``picked``, whose graphs ``ids`` and ``edges`` describe."""
        picked = np.asarray(picked, dtype=int)
        v, ladder = self.verdicts, self.ladder
        columns = {
            "lambda_star": v.lambda_star, "lambda_first": v.lambda_first, "classification": v.classification,
            "margin": v.gap_derivative, "cor1": ladder.cor1.holds, "cor2": ladder.cor2.holds,
            "thm2_sharp": ladder.thm2_sharp.holds, "cor4_sharp": ladder.cor4_sharp.holds,
            "nand_s": np.where(ladder.positive, ladder.nand_s, None), "degenerate": v.degenerate,
            "tied_sign": v.tied_sign, "stationary": v.stationary, "near_unit": self.spec.near_unit,
            "paper_constant_witness": ladder.paper_constant_witness,
        }
        return [
            dict(zip(columns, values), id=graph_id, n=self.n, convention=v.convention,
                 sweep_confirmed=self.confirmed[i], consistency_violations=ladder.consistency[i], edges=graph_edges)
            for i, graph_id, graph_edges, *values
            in zip(picked.tolist(), ids, edges, *(c[picked].tolist() for c in columns.values()))
        ]

    def records(self, picked: Sequence[int], ids: Sequence[str], edges: Sequence[tuple]) -> list[ScanRecord]:
        """The scan rows of the stack rows ``picked``; see :meth:`fields`."""
        return [ScanRecord(**fields) for fields in self.fields(picked, ids, edges)]


def _stack_rows(
    a: np.ndarray, d: np.ndarray, spec: StackedSpectrum, verdicts: StackedVerdicts | _TwoNodeForms
) -> _Rows:
    """The rows of a (k, n, n) adjacency stack ``a`` with degrees ``d`` and the verdict columns ``verdicts``.

    ``spec`` is the stack's alpha = 0 spectrum, every row admissible, under
    the verdicts' convention. One ladder core evaluates every row's condition
    ladder, and one stacked sweep confirms or refutes every WORSENS row from
    its branch vectors (:func:`~rwj.perturb.sweep_stack`).
    """
    worse = verdicts.classification == WORSENS
    confirmed: list[bool | None] = [None] * len(worse)
    idx = np.flatnonzero(worse).tolist()
    if idx:
        swept = sweep_stack(a[idx], d[idx], spec.take(idx), verdicts.branch_vectors(idx), worse[idx])
        for i, ok in zip(idx, swept.tolist()):
            confirmed[i] = ok
    return _Rows(a.shape[-1], verdicts, worse, spec, ladder_stack(degree_stats_of(d), spec), confirmed)


def _decide(a: np.ndarray, convention: str) -> tuple[np.ndarray, _Rows]:
    """(stack positions, rows) of the rows of a (k, n, n) stack ``a`` of connected adjacency matrices.

    One stacked ``eigvalsh`` at alpha = 0 solves every row, with v* of a simple
    level from inverse iteration and ``eigh`` only for the rows that read a
    basis (:func:`~rwj.spectral._solve`); a row without an admissible
    eigenvalue (K2 under ``paper``) is left out, and only then are the kept
    rows copied. The verdict core and the row core decide the others
    from the matrices alone (their checks step by FD_STEP * d_min of the row),
    and a failed check raises, as :meth:`~rwj.spectral.StackedSpectrum.admissible`
    does on a disconnected matrix. ``convention`` must be normalised.
    """
    d = a.sum(axis=-1)
    spec = _solve(a, d, 0.0, convention)
    kept = np.flatnonzero(spec.admissible())
    if len(kept) < len(a):
        a, d, spec = a[kept], d[kept], spec.take(kept)
    return kept, _stack_rows(a, d, spec, classify_stack(a, d, spec, convention))


def _decide_one(g: WeightedGraph, convention: str) -> _Rows:
    """The row of one graph: :func:`_decide` on its stack of one.

    A disconnected graph raises DisconnectedGraphError; one with no admissible
    eigenvalue raises ConventionError. ``convention`` must be normalised.
    """
    require_connected(g)
    kept, rows = _decide(g.adjacency()[None], convention)
    if not len(kept):
        raise ConventionError(NO_ADMISSIBLE)
    return rows


# the ScanSummary counters, in the order of _Unit.counts
_COUNTERS = ("classified", "counterexamples", "worsens_unconfirmed", "degenerate", "tied", "stationary",
             "paper_constant_witnesses", "consistency_violations")


class _Unit(NamedTuple):
    """What a scan keeps of one work unit: its counters and the rows it may report."""

    counts: tuple[int, ...]                     # one per name in _COUNTERS
    worsens: list[tuple[int, ScanRecord]]       # (input position, row) of every WORSENS row
    closest: list[tuple[float, int, dict]]      # (margin, input position, ScanRecord fields) of its closest calls


def _record(fields: dict) -> ScanRecord:
    """The :class:`ScanRecord` of a scan row's fields, whose edges a work unit holds packed."""
    return ScanRecord(**{**fields, "edges": unpack_edges(fields["n"], fields["edges"])})


def _unit(positions: np.ndarray, a: np.ndarray, convention: str, top_k: int, describe) -> _Unit:
    """The result of one work unit: the stack ``a`` of connected adjacency matrices at input ``positions``.

    Every row is decided and counted in arrays (:func:`_decide`). Only the
    WORSENS rows become records here; the ``top_k`` IMPROVES rows of smallest
    margin, earliest first among equal margins, are kept as their
    :class:`ScanRecord` fields with their edges packed, and :func:`_finalize`
    builds the records, edge tuples and all, of the ones the scan reports.
    ``describe`` maps stack rows to their ids and packed edges (:func:`~rwj.graphs.pack_edges`).
    """
    kept, rows = _decide(a, convention)
    verdicts, ladder = rows.verdicts, rows.ladder
    improves = np.flatnonzero(~rows.worse)
    closest = improves[np.argsort(verdicts.gap_derivative[improves], kind="stable")[:top_k]]

    def tagged(picked):
        return zip(positions[kept[picked]].tolist(), rows.fields(picked, *describe(kept[picked])))

    confirmed = rows.confirmed.count(True)
    counts = (len(kept), confirmed, int(rows.worse.sum()) - confirmed, int(verdicts.degenerate.sum()),
              int(verdicts.tied_sign.sum()), int(verdicts.stationary.sum()),
              int(ladder.paper_constant_witness.sum()), len(ladder.consistency) - ladder.consistency.count(()))
    return _Unit(counts, [(position, _record(fields)) for position, fields in tagged(np.flatnonzero(rows.worse))],
                 [(margin, position, fields) for margin, (position, fields)
                  in zip(verdicts.gap_derivative[closest].tolist(), tagged(closest))])


def _masked_unit(
    positions: Sequence[int], a: np.ndarray, mask: np.ndarray, id_of, convention: str, top_k: int
) -> _Unit:
    """:func:`_unit` on the rows of ``a`` that ``mask`` keeps (the others are skips); ``id_of`` gives a row's id."""
    ok = np.flatnonzero(mask)
    a = a[ok]
    return _unit(np.asarray(positions)[ok], a, convention, top_k,
                 lambda rows: ([id_of(i) for i in ok[rows].tolist()], pack_edges(a[rows])))


def _batched_rows(convention: str, top_k: int, unit: tuple[int, list[int], list[bytes]]) -> _Unit:
    """The result of a catalog work unit (n, input positions, lines): one decode, then its valid, connected lines."""
    n, positions, lines = unit
    a, valid, connected = decode_graph6_stack(lines, n)
    return _masked_unit(positions, a, valid & connected, lambda i: lines[i].decode("ascii"), convention, top_k)


def _generated_rows(convention: str, model: str, params: dict, seed: int, top_k: int, positions: range) -> _Unit:
    """The result of the draws at ``positions`` (draw i from seed ``seed + i``) as one stack; a failed one is a skip."""
    a, names, drawn = sample_stack(model, [seed + i for i in positions], **params)
    return _masked_unit(positions, a, drawn, names.__getitem__, convention, top_k)


def _unit_size(n: int) -> int:
    """Graphs per work unit of n-vertex graphs: at most STACK_SIZE graphs and ENTRY_BUDGET adjacency entries."""
    return max(1, min(STACK_SIZE, ENTRY_BUDGET // n ** 2))


def _work_units(lines: Sequence[bytes]) -> list[tuple[int, list[int]]]:
    """(n, input positions) units of a catalog scan: each n-vertex group cut into units of :func:`_unit_size` lines."""
    return [(n, positions[start:start + _unit_size(n)]) for n, positions in graph6_groups(lines).items()
            for start in range(0, len(positions), _unit_size(n))]


def _finalize(
    provenance: str,
    convention: str,
    total: int,
    units: Iterable[_Unit],
    top_k: int,
    started: float,
    dump_dir: str | Path | None,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """The summary and reported rows of a scan of ``total`` inputs from the results of its work units.

    The counters add up. Every WORSENS row is reported, in input order, and
    the closest calls are the first ``top_k`` IMPROVES rows by (margin,
    input position), so each unit only sends its own first ``top_k``; their
    records, edge tuples included, are built here, for the rows reported only. The units are merged
    as they arrive into a heap of at most ``top_k`` rows whose root is the last of them, so a scan holds
    ``top_k`` closest calls, not ``top_k`` per unit, and sorts them once at the end.
    """
    import heapq  # loaded by the first scan, not by importing rwj

    summary = ScanSummary(provenance=provenance, convention=convention, total=total)
    counts, worsens, held = [0] * len(_COUNTERS), [], []  # held: (-margin, -position, fields), a max-heap
    for unit in units:
        counts = [x + y for x, y in zip(counts, unit.counts)]
        worsens += unit.worsens
        for margin, position, fields in unit.closest:  # positions are unique, so no two keys tie
            entry = (-margin, -position, fields)
            if len(held) < top_k:
                heapq.heappush(held, entry)
            elif entry[:2] > held[0][:2]:
                heapq.heapreplace(held, entry)
    closest = sorted(((-margin, -position, fields) for margin, position, fields in held), key=itemgetter(0, 1))
    for name, value in zip(_COUNTERS, counts):
        setattr(summary, name, value)
    summary.skipped = total - summary.classified
    worsens = [r for _, r in sorted(worsens, key=itemgetter(0))]
    summary.min_margin_records = tuple(_record(fields) for _, _, fields in closest)
    summary.elapsed = time.perf_counter() - started
    if dump_dir is not None and worsens:
        dump_counterexamples(worsens, dump_dir)
    return summary, worsens + list(summary.min_margin_records)


def _run(worker, payloads, parallelism: int):
    """``worker`` applied to every payload, yielded in input order, by at most one worker process per payload."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, len(payloads))  # a pool starts every worker it is given at once
    if workers <= 1:
        yield from map(worker, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor  # only worker pools load multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, payloads, chunksize=max(1, len(payloads) // (4 * workers)))


def dump_counterexamples(records: Sequence[ScanRecord], dump_dir: str | Path) -> list[Path]:
    """Write each WORSENS record as a weighted edge-list file plus a report line."""
    out_dir = Path(dump_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    report_lines = []
    for i, r in enumerate(records):
        g = WeightedGraph(r.n, r.edges, name=r.id)
        path = out_dir / f"counterexample_{i:04d}.el"
        path.write_text(write_edgelist(g, comments=[f"id: {r.id}", f"convention: {r.convention}"]))
        written.append(path)
        report_lines.append(
            f"{path.name}: id={r.id} lambda_star={float(r.lambda_star)!r} "
            f"lambda_first={float(r.lambda_first)!r} margin={float(r.margin)!r} flags={r.flags()}"
        )
    (out_dir / "counterexamples.txt").write_text("\n".join(report_lines) + "\n")
    return written


def scan_catalog(
    source,
    convention: str = SLEM,
    limit: int | None = None,
    top_k: int = 10,
    parallelism: int = 1,
    dump_dir: str | Path | None = None,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """Scan a graph6 catalog (path, stream, or iterable of lines; see :func:`~rwj.graphs.read_graph6_lines`).

    Disconnected and malformed lines, and graphs with no admissible
    eigenvalue, are counted as skips. Output is ordered by input position
    regardless of parallelism; records contain every (confirmed or not)
    WORSENS graph plus the top-k smallest-margin IMPROVES, equal margins in
    input order.

    Lines with the same n, under either graph6 header, are decided in units
    (:func:`_work_units`) by one decode and one :func:`_decide` call each,
    so a row is the one :func:`analyze_graph` gives the line's graph. A unit
    counts its rows in arrays and builds records only for the rows the scan
    may report (:func:`_unit`, :func:`_finalize`).
    """
    if (limit is not None and limit < 0) or top_k < 0:
        raise ValueError(f"limit and top_k must be >= 0, got {limit} and {top_k}")
    conv = normalize_convention(convention)
    started = time.perf_counter()
    provenance, lines = read_graph6_lines(source)
    if limit is not None:
        lines = lines[:limit]
    units = [(n, idx, [lines[i] for i in idx]) for n, idx in _work_units(lines)]
    done = _run(partial(_batched_rows, conv, top_k), units, parallelism)
    return _finalize(provenance, conv, len(lines), done, top_k, started, dump_dir)


def scan_random(
    model: str,
    params: dict,
    count: int,
    seed: int = 0,
    convention: str = SLEM,
    top_k: int = 10,
    parallelism: int = 1,
    dump_dir: str | Path | None = None,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """Scan ``count`` seeded random graphs; graph i uses seed ``seed + i``.

    Fully reproducible from (model, params, seed); generator connectivity
    failures count as skips. Units of :func:`_unit_size` consecutive draws are
    drawn as one stack and decided by one :func:`_decide` call each.
    """
    if count < 1 or top_k < 0:
        raise ValueError(f"count must be >= 1 and top_k >= 0, got {count} and {top_k}")
    conv = normalize_convention(convention)
    started = time.perf_counter()
    provenance = f"{model}({params},seed={seed},count={count})"
    size = _unit_size(sample_stack(model, [], **params)[0].shape[-1])  # no draw: checks params and gives n
    units = [range(start, min(start + size, count)) for start in range(0, count, size)]
    done = _run(partial(_generated_rows, conv, model, dict(params), seed, top_k), units, parallelism)
    return _finalize(provenance, conv, count, done, top_k, started, dump_dir)


# ---------------------------------------------------------------------------
# two-node grid search
# ---------------------------------------------------------------------------

def two_node_grid_search(
    a11_values: Sequence[float],
    a12_values: Sequence[float],
    a22_values: Sequence[float],
) -> list[ScanRecord]:
    """Classify every grid point via the closed forms; return the WORSENS records.

    The grid is taken one a11 value at a time: each slab of
    len(a12_values) * len(a22_values) points is validated by array tests and
    classified by one evaluation of the closed-form array formula, and only
    the columns of its WORSENS points are kept. A slab with an invalid point
    raises the :class:`TwoNodeParams` error of its first one in a11, a12, a22
    order. The WORSENS columns of every slab are then cut into stacks of at
    most STACK_SIZE graphs [[a11, a12], [a12, a22]] and each stack enters the
    row core (:func:`_stack_rows`) as its verdict columns: one stacked ``eigvalsh``
    at alpha = 0, the ladder core and one stacked sweep per stack, so each row
    is the one the closed-form verdict gives a graph alone.

    The worsening region sits where det(A) is at or near zero with unequal
    self-loops, on the lambda_star >= 0 side.
    """
    a11s, a12s, a22s = (np.asarray(v, dtype=float) for v in (a11_values, a12_values, a22_values))
    if not (a11s.size and a12s.size and a22s.size):
        raise ValueError("empty two-node grid")
    a12s, a22s = np.broadcast_arrays(a12s[:, None], a22s[None, :])
    weights, slabs = [], []
    for a11 in a11s.tolist():
        valid = np.isfinite(a11) & np.isfinite(a12s) & np.isfinite(a22s)
        valid &= (a11 >= 0.0) & (a12s > 0.0) & (a22s >= 0.0)
        if not valid.all():
            first = np.argmin(valid)
            TwoNodeParams(a11, a12s.flat[first].item(), a22s.flat[first].item())  # raises its error
        forms = _two_node_forms(a11, a12s, a22s)
        worse = forms.classification == WORSENS
        weights.append(np.stack(np.broadcast_arrays(a11, a12s[worse], a22s[worse]), axis=-1))
        slabs.append([x[worse] for x in forms])
    w = np.concatenate(weights)               # (a11, a12, a22) of each WORSENS point
    a = w[:, [[0, 1], [1, 2]]]                # [[a11, a12], [a12, a22]] of each point
    forms = _TwoNodeForms(*map(np.concatenate, zip(*slabs)))
    records: list[ScanRecord] = []
    for start in range(0, len(w), STACK_SIZE):
        cut = slice(start, start + STACK_SIZE)
        d = a[cut].sum(axis=-1)
        spec = _solve(a[cut], d, 0.0, SLEM)
        spec.require_admissible()
        points = [TwoNodeParams(*p) for p in w[cut].tolist()]
        rows = _stack_rows(a[cut], d, spec, _TwoNodeForms(*(x[cut] for x in forms)))
        records += rows.records(range(len(points)), [p.name for p in points], [p.edges for p in points])
    return records
