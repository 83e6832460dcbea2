"""Counterexample hunting: two-vertex closed forms, catalog scans, random-model scans.

A counterexample is a graph whose relaxation time strictly increases for all
sufficiently small jump rates. Candidates are found by the first-order
classification and only reported after a direct branch-tracked sweep confirms
the gap really shrinks at alpha in {1e-3, 1e-2}; the two confirmations
(derivative sign and sweep) are independent.

Every row, of one graph, of a stack of same-n catalog lines or of a stack of
two-node grid points, comes from the same cores: the stacked eigensolve of
:mod:`rwj.spectral`, the verdict core :func:`~rwj.perturb.classify_stack`
(the closed forms for two-node points), the ladder core
:func:`~rwj.conditions.ladder_stack` and the stacked sweep
:func:`~rwj.perturb.sweep_stack`. :func:`stack_rows` is the entry point for
an adjacency stack, used by every catalog unit and every
:func:`analyze_graph` call (a stack of one); the two-node grid and
:func:`scan_record` hold their verdicts and enter its row core,
:func:`_stack_rows`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .conditions import LadderRow, ladder_stack
from .errors import ConventionError, GenerationError, GraphFormatError
from .graphs import (
    WeightedGraph,
    decode_graph6_stack,
    degree_stats_of,
    generate,
    graph6_n,
    stack_edges,
    write_edgelist,
)
from .perturb import (
    IMPROVES,
    WORSENS,
    Branch,
    SmallAlphaVerdict,
    classify_stack,
    modulus_rate,
    sweep_stack,
    verdict,
)
from .spectral import (
    NO_ADMISSIBLE,
    SLEM,
    SpectralSummary,
    StackedSpectrum,
    _solve,
    normalize_convention,
    require_connected,
)

# Graphs per stacked eigensolve. Larger stacks barely speed up n <= 8; a
# catalog unit of larger graphs holds fewer (see _work_units).
STACK_SIZE = 256


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


@dataclass(frozen=True, eq=False)
class TwoNodeClosedForm(SmallAlphaVerdict):
    """Closed-form eigenpair, first-order term and ``slem`` verdict of a two-vertex graph.

    ``lambda_first`` is numerator / (v^T D v). The single branch starts at
    lambda_star along ``v_star``.
    """

    numerator: float      # (1/2)(1^T v)^2 - lambda v^T v, via the explicit expansion

    @property
    def v_star(self) -> np.ndarray:
        return self.branches[0].vector


class _TwoNodeForms(NamedTuple):
    """Closed forms and verdicts of two-vertex graphs, one array entry per graph."""

    lambda_star: np.ndarray
    r: np.ndarray              # v_star = (1, -r)
    numerator: np.ndarray
    lambda_first: np.ndarray
    rate: np.ndarray
    classification: np.ndarray
    gap_derivative: np.ndarray
    stationary: np.ndarray

    def closed_forms(self) -> list[TwoNodeClosedForm]:
        """One :class:`TwoNodeClosedForm` per entry of one-dimensional arrays, in order."""
        return [
            TwoNodeClosedForm(
                convention=SLEM, lambda_star=lam, lambda_first=lam1, classification=classification,
                gap_derivative=gap_derivative, degenerate=False, tied_sign=False, stationary=stationary,
                branches=(Branch(lam, lam1, rate, np.array([1.0, -r])),), numerator=numerator,
            )
            for lam, r, numerator, lam1, rate, classification, gap_derivative, stationary
            in zip(*(x.tolist() for x in self))
        ]


def _two_node_forms(a11, a12, a22) -> _TwoNodeForms:
    """The closed forms of every graph [[a11, a12], [a12, a22]] of arrays that broadcast to one shape.

    Only + - * / are used, so every entry rounds as IEEE arithmetic does on
    any CPU; the weights must be valid :class:`TwoNodeParams`.
    """
    d1 = a11 + a12
    d2 = a22 + a12
    det = a11 * a22 - a12 * a12
    lam = det / (d1 * d2)
    r = d1 / d2
    dz = a22 - a11
    numerator = (dz * dz * d1 * d2 - 2.0 * det * (d1 * d1 + d2 * d2)) / (2.0 * d1 * (d2 * d2 * d2))
    lam1 = numerator / (d1 + d2 * r * r)  # v^T D v = d1 + d2 r^2
    rate = modulus_rate(lam, lam, lam1)
    return _TwoNodeForms(lam, r, numerator, lam1, rate, *verdict(lam, rate))


def two_node_closed_form(p: TwoNodeParams) -> TwoNodeClosedForm:
    """Closed-form non-unit eigenpair, first-order term and verdict for the two-vertex graph.

    lambda_star = det(A) / ((a11+a12)(a22+a12)), eigenvector (1, -(a11+a12)/(a22+a12)),
    and the numerator of the first-order term expands to

        [(a22-a11)^2 (a11+a12)(a22+a12) - 2 det(A) ((a11+a12)^2 + (a22+a12)^2)]
        / [2 (a11+a12)(a22+a12)^3].

    The non-unit eigenvalue is simple, so the verdict is the shared rule of
    :mod:`rwj.perturb` applied to this one branch. This is the array formula
    that :func:`two_node_grid_search` evaluates on whole slabs, on one point.
    """
    return _two_node_forms(*np.array([[p.a11], [p.a12], [p.a22]], dtype=float)).closed_forms()[0]


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

    This is :func:`stack_rows` on a stack of one. A disconnected graph raises
    DisconnectedGraphError; one with no admissible eigenvalue raises
    ConventionError.
    """
    require_connected(g)
    row, = stack_rows([g.name or "<anonymous>"], [g.edges], g.adjacency()[None], convention)
    if row is None:
        raise ConventionError(NO_ADMISSIBLE)
    return row


def scan_record(g: WeightedGraph, summary: SpectralSummary, report: SmallAlphaVerdict) -> ScanRecord:
    """The scan row of one graph from its alpha=0 spectrum and verdict: :func:`_stack_rows` on a stack of one."""
    ids = [g.name or "<anonymous>"]
    return _stack_rows(ids, [g.edges], g.adjacency()[None], g.degrees()[None], summary.stack, [report])[0]


def _record(
    graph_id: str,
    n: int,
    edges: tuple[tuple[int, int, float], ...],
    near_unit: bool,
    report: SmallAlphaVerdict,
    ladder: LadderRow,
    confirmed: bool | None,
) -> ScanRecord:
    """The only place a :class:`ScanRecord` is built."""
    return ScanRecord(
        id=graph_id,
        n=n,
        convention=report.convention,
        lambda_star=report.lambda_star,
        lambda_first=report.lambda_first,
        classification=report.classification,
        margin=report.gap_derivative,
        cor1=ladder.cor1,
        cor2=ladder.cor2,
        thm2_sharp=ladder.thm2_sharp,
        cor4_sharp=ladder.cor4_sharp,
        nand_s=ladder.nand_s,
        degenerate=report.degenerate,
        tied_sign=report.tied_sign,
        stationary=report.stationary,
        near_unit=near_unit,
        sweep_confirmed=confirmed,
        consistency_violations=ladder.consistency,
        paper_constant_witness=ladder.paper_constant_witness,
        edges=edges,
    )


def _scan_generated(convention: str, model: str, params: dict, seed: int) -> ScanRecord | None:
    """The row of one seeded random graph; None when generation fails or no eigenvalue is admissible."""
    try:
        return analyze_graph(generate(model, seed=seed, **params), convention)
    except (GenerationError, ConventionError):
        return None


def stack_rows(
    ids: Sequence[str],
    edges: Sequence[tuple[tuple[int, int, float], ...]],
    a: np.ndarray,
    convention: str,
) -> list[ScanRecord | None]:
    """The scan rows of a (k, n, n) stack ``a`` of connected adjacency matrices, in input order.

    One stacked ``eigh`` at alpha = 0 solves every row, and a row the
    convention admits no eigenvalue of (K2 under ``paper``) is None. The
    verdict core decides the other rows and :func:`_stack_rows` builds them;
    ``ids`` and ``edges`` name and describe each row's graph. A failed check
    raises, as :meth:`~rwj.spectral.StackedSpectrum.admissible` does on a
    disconnected matrix.
    """
    conv = normalize_convention(convention)
    d = a.sum(axis=-1)
    spec = _solve(a, d, 0.0, conv)
    kept = np.flatnonzero(spec.admissible())
    a, d, spec = a[kept], d[kept], spec.take(kept)
    kept = kept.tolist()
    records = _stack_rows([ids[i] for i in kept], [edges[i] for i in kept], a, d, spec,
                          classify_stack(a, d, spec, conv))
    return _placed(len(ids), kept, records)


def _placed(size: int, positions: Iterable[int], rows: Iterable[ScanRecord | None]) -> list[ScanRecord | None]:
    """``size`` slots holding each row at its position; the other slots are None."""
    placed: list[ScanRecord | None] = [None] * size
    for i, row in zip(positions, rows):
        placed[i] = row
    return placed


def _batched_rows(convention: str, unit: tuple[int, list[bytes]]) -> list[ScanRecord | None]:
    """The rows of a catalog scan's work unit (n, lines), in input order; None for a skipped line.

    One vectorised decode, then one :func:`stack_rows` call on the lines it
    accepts: a line with a malformed body or a disconnected graph is skipped.
    """
    n, lines = unit
    a, ok = decode_graph6_stack(lines, n)
    positions = np.flatnonzero(ok).tolist()
    a = a[ok]
    return _placed(len(lines), positions,
                   stack_rows([lines[i].decode("ascii") for i in positions], stack_edges(a), a, convention))


def _stack_rows(
    ids: Sequence[str],
    edges: Sequence[tuple[tuple[int, int, float], ...]],
    a: np.ndarray,
    d: np.ndarray,
    spec: StackedSpectrum,
    reports: Sequence[SmallAlphaVerdict],
) -> list[ScanRecord]:
    """The scan rows of a (k, n, n) adjacency stack ``a`` with degrees ``d`` and one verdict per row.

    ``spec`` is the stack's alpha = 0 spectrum, every row admissible, under
    the verdicts' convention. One ladder core evaluates every row's
    condition ladder, and one stacked sweep confirms or refutes every
    WORSENS row (:func:`~rwj.perturb.sweep_stack`); ``ids`` and ``edges``
    name and describe each row's graph.
    """
    ladders = ladder_stack(degree_stats_of(d), spec).rows()
    confirmed: list[bool | None] = [None] * len(reports)
    worse = np.flatnonzero([report.classification == WORSENS for report in reports])
    if len(worse):
        swept = sweep_stack(a[worse], d[worse], spec.take(worse), [reports[i] for i in worse.tolist()])
        for i, ok in zip(worse.tolist(), swept.tolist()):
            confirmed[i] = ok
    n = a.shape[-1]
    return [
        _record(graph_id, n, graph_edges, near_unit, report, ladder, ok)
        for graph_id, graph_edges, near_unit, report, ladder, ok
        in zip(ids, edges, spec.near_unit.tolist(), reports, ladders, confirmed)
    ]


def _work_units(lines: Sequence[bytes]) -> list[tuple[int, list[int]]]:
    """(n, input positions) units of a catalog scan.

    Lines that :func:`graph6_n` maps to the same n share units, in input
    order. A unit holds no more adjacency entries than STACK_SIZE graphs on 8
    vertices, so an n <= 8 unit holds STACK_SIZE lines and an n >= 128 unit
    one. A line that :func:`graph6_n` maps to 0 is in no unit.
    """
    groups: dict[int, list[int]] = {}
    for i, line in enumerate(lines):
        groups.setdefault(graph6_n(line), []).append(i)
    groups.pop(0, None)
    units = []
    for n, positions in groups.items():
        size = max(1, min(STACK_SIZE, STACK_SIZE * 8 * 8 // n ** 2))
        units += [(n, positions[start:start + size]) for start in range(0, len(positions), size)]
    return units


def _finalize(
    provenance: str,
    convention: str,
    results: Iterable[ScanRecord | None],
    top_k: int,
    started: float,
    dump_dir: str | Path | None,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """The summary and reported rows of a scan."""
    summary = ScanSummary(provenance=provenance, convention=convention)
    all_records: list[ScanRecord] = []
    for record in results:
        summary.total += 1
        if record is None:
            summary.skipped += 1
            continue
        summary.classified += 1
        summary.degenerate += record.degenerate
        summary.tied += record.tied_sign
        summary.stationary += record.stationary
        summary.paper_constant_witnesses += record.paper_constant_witness
        summary.consistency_violations += bool(record.consistency_violations)
        if record.classification == WORSENS:
            if record.sweep_confirmed:
                summary.counterexamples += 1
            else:
                summary.worsens_unconfirmed += 1
        all_records.append(record)
    worsens = [r for r in all_records if r.classification == WORSENS]
    improves = [r for r in all_records if r.classification == IMPROVES]
    improves.sort(key=lambda r: r.margin)
    closest = tuple(improves[:top_k])
    summary.min_margin_records = closest
    summary.elapsed = time.perf_counter() - started
    if dump_dir is not None and worsens:
        dump_counterexamples(worsens, dump_dir)
    return summary, worsens + list(closest)


def _run(worker, payloads, parallelism: int):
    """``worker`` applied to every payload, results in input order."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if parallelism == 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        chunk = max(1, len(payloads) // (4 * parallelism))
        return list(pool.map(worker, payloads, chunksize=chunk))


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


def _read_graph6_lines(source) -> tuple[str, list[bytes]]:
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
    return provenance, [line.rstrip(b"\r\n") for line in raw if line.strip()]


def scan_catalog(
    source,
    convention: str = SLEM,
    limit: int | None = None,
    top_k: int = 10,
    parallelism: int = 1,
    dump_dir: str | Path | None = None,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """Scan a graph6 catalog (path, stream, or iterable of lines).

    Disconnected and malformed lines, and graphs with no admissible
    eigenvalue, are counted as skips. Output is ordered by input position
    regardless of parallelism; records contain every (confirmed or not)
    WORSENS graph plus the top-k smallest-margin IMPROVES.

    Lines with the same n, under either graph6 header, are decided in units
    (:func:`_work_units`) by one decode and one :func:`stack_rows` call each,
    so a row is the one :func:`analyze_graph` gives the line's graph.
    """
    if (limit is not None and limit < 0) or top_k < 0:
        raise ValueError(f"limit and top_k must be >= 0, got {limit} and {top_k}")
    conv = normalize_convention(convention)
    started = time.perf_counter()
    provenance, lines = _read_graph6_lines(source)
    if limit is not None:
        lines = lines[:limit]
    units = _work_units(lines)
    done = _run(partial(_batched_rows, conv), [(n, [lines[i] for i in idx]) for n, idx in units], parallelism)
    results = _placed(len(lines), chain.from_iterable(idx for _, idx in units), chain.from_iterable(done))
    return _finalize(provenance, conv, results, top_k, started, dump_dir)


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
    failures count as skips.
    """
    if count < 1 or top_k < 0:
        raise ValueError(f"count must be >= 1 and top_k >= 0, got {count} and {top_k}")
    conv = normalize_convention(convention)
    started = time.perf_counter()
    provenance = f"{model}({params},seed={seed},count={count})"
    worker = partial(_scan_generated, conv, model, dict(params))
    results = _run(worker, [seed + i for i in range(count)], parallelism)
    return _finalize(provenance, conv, results, top_k, started, dump_dir)


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
    its WORSENS points become :class:`TwoNodeClosedForm` verdicts. A slab with
    an invalid point raises the :class:`TwoNodeParams` error of its first one
    in a11, a12, a22 order. The WORSENS points are then decided in stacks of
    at most STACK_SIZE graphs [[a11, a12], [a12, a22]]: one stacked ``eigh``
    at alpha = 0, the ladder core and one stacked sweep per stack
    (:func:`_stack_rows`), so each row is the one the closed-form verdict
    gives a graph alone.

    The worsening region sits where det(A) is at or near zero with unequal
    self-loops, on the lambda_star >= 0 side.
    """
    a11s, a12s, a22s = (np.asarray(v, dtype=float) for v in (a11_values, a12_values, a22_values))
    if not (a11s.size and a12s.size and a22s.size):
        raise ValueError("empty two-node grid")
    a12s, a22s = np.broadcast_arrays(a12s[:, None], a22s[None, :])
    points: list[TwoNodeParams] = []
    verdicts: list[TwoNodeClosedForm] = []
    for a11 in a11s.tolist():
        valid = np.isfinite(a11) & np.isfinite(a12s) & np.isfinite(a22s)
        valid &= (a11 >= 0.0) & (a12s > 0.0) & (a22s >= 0.0)
        if not valid.all():
            first = np.argmin(valid)
            TwoNodeParams(a11, a12s.flat[first].item(), a22s.flat[first].item())  # raises its error
        forms = _two_node_forms(a11, a12s, a22s)
        worse = forms.classification == WORSENS
        points += [TwoNodeParams(a11, a12, a22) for a12, a22 in zip(a12s[worse].tolist(), a22s[worse].tolist())]
        verdicts += _TwoNodeForms(*(x[worse] for x in forms)).closed_forms()
    records: list[ScanRecord] = []
    for start in range(0, len(points), STACK_SIZE):
        chunk = points[start:start + STACK_SIZE]
        a = np.array([[[p.a11, p.a12], [p.a12, p.a22]] for p in chunk])
        d = a.sum(axis=-1)
        spec = _solve(a, d, 0.0, SLEM)
        spec.require_admissible()
        records += _stack_rows([p.name for p in chunk], [p.edges for p in chunk], a, d, spec,
                               verdicts[start:start + STACK_SIZE])
    return records
