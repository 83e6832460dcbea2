"""Counterexample hunting: two-vertex closed forms, catalog scans, random-model scans.

A counterexample is a graph whose relaxation time strictly increases for all
sufficiently small jump rates. Candidates are found by the first-order
classification and only reported after a direct branch-tracked sweep confirms
the gap really shrinks at alpha in {1e-3, 1e-2}; the two confirmations
(derivative sign and sweep) are independent.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .conditions import ConditionReport, LadderRow, full_report, stacked_ladder
from .errors import (
    ConventionError,
    DisconnectedGraphError,
    GenerationError,
    GraphFormatError,
    NumericalError,
)
from .graphs import (
    WeightedGraph,
    decode_graph6_stack,
    generate,
    graph6_short_n,
    parse_graph6,
    stack_edges,
    write_edgelist,
)
from .perturb import (
    IMPROVES,
    TOL_SIGN,
    WORSENS,
    Branch,
    SmallAlphaVerdict,
    classify_small_alpha,
    finite_difference_guard,
    modulus_rate,
    simple_first_order,
    sweep_confirms,
    verdict,
)
from .spectral import (
    SLEM,
    SpectralSummary,
    build_transition,
    normalize_convention,
    spectrum,
    stacked_spectrum,
)

# Graphs per stacked eigensolve of a catalog scan. Larger stacks barely speed
# up n <= 8 and hold more memory at larger n.
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
        if self.a12 <= 0.0:
            raise GraphFormatError(f"a12 must be > 0 for connectivity, got {self.a12}")
        if self.a11 < 0.0 or self.a22 < 0.0:
            raise GraphFormatError("self-loop weights must be nonnegative")

    def graph(self) -> WeightedGraph:
        edges = [(0, 1, self.a12)]
        if self.a11 > 0.0:
            edges.append((0, 0, self.a11))
        if self.a22 > 0.0:
            edges.append((1, 1, self.a22))
        return WeightedGraph(2, tuple(edges), name=f"two-node({self.a11:g},{self.a12:g},{self.a22:g})")


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


def two_node_closed_form(p: TwoNodeParams) -> TwoNodeClosedForm:
    """Closed-form non-unit eigenpair, first-order term and verdict for the two-vertex graph.

    lambda_star = det(A) / ((a11+a12)(a22+a12)), eigenvector (1, -(a11+a12)/(a22+a12)),
    and the numerator of the first-order term expands to

        [(a22-a11)^2 (a11+a12)(a22+a12) - 2 det(A) ((a11+a12)^2 + (a22+a12)^2)]
        / [2 (a11+a12)(a22+a12)^3].

    The non-unit eigenvalue is simple, so the verdict is the shared rule of
    :mod:`rwj.perturb` applied to this one branch.
    """
    d1 = p.a11 + p.a12
    d2 = p.a22 + p.a12
    det = p.a11 * p.a22 - p.a12 * p.a12
    lam = det / (d1 * d2)
    r = d1 / d2
    v = np.array([1.0, -r])
    numerator = (
        (p.a22 - p.a11) ** 2 * d1 * d2 - 2.0 * det * (d1 * d1 + d2 * d2)
    ) / (2.0 * d1 * d2 ** 3)
    lam1 = float(numerator / (d1 + d2 * r * r))  # v^T D v = d1 + d2 r^2
    branch = Branch(level_value=lam, derivative=lam1, rate=modulus_rate(lam, lam, lam1), vector=v)
    classification, gap_derivative, stationary = verdict(lam, branch.rate)
    return TwoNodeClosedForm(
        convention=SLEM, lambda_star=float(lam), lambda_first=lam1, classification=classification,
        gap_derivative=gap_derivative, degenerate=False, tied_sign=False, stationary=stationary,
        branches=(branch,), numerator=float(numerator),
    )


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
    scalar_path: int = 0               # classified rows that took the per-graph path
    min_margin_records: tuple[ScanRecord, ...] = ()
    elapsed: float = 0.0


def analyze_graph(g: WeightedGraph, convention: str = SLEM, graph_id: str | None = None) -> ScanRecord:
    """Classify one graph and evaluate its condition ladder; sweep-confirm WORSENS verdicts."""
    conv = normalize_convention(convention)
    summary = spectrum(build_transition(g, 0.0), conv)
    report = classify_small_alpha(g, conv, summary=summary)
    cond = full_report(g, conv, summary=summary)
    return scan_record(g, summary, report, cond, graph_id)


def scan_record(
    g: WeightedGraph,
    summary: SpectralSummary,
    report: SmallAlphaVerdict,
    cond: ConditionReport,
    graph_id: str | None = None,
) -> ScanRecord:
    """The scan row of one graph from its alpha=0 spectrum, verdict and condition report.

    A WORSENS verdict is sweep-confirmed here along the verdict's own
    branches; nothing else is recomputed.
    """
    confirmed = None
    if report.classification == WORSENS:
        confirmed = sweep_confirms(g, summary, report)
    graph_id = graph_id or g.name or "<anonymous>"
    return _record(graph_id, g.n, g.edges, summary.near_unit, report, cond.row(), confirmed)


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


def _scan_graph6_line(convention: str, line: bytes) -> ScanRecord | None:
    """The row of one graph6 line; None for a skipped line.

    A line is skipped when it is malformed, its graph is disconnected, or the
    convention admits none of its eigenvalues (K2 under ``paper``).
    """
    try:
        return analyze_graph(parse_graph6(line), convention)
    except (DisconnectedGraphError, GraphFormatError, ConventionError):
        return None


def _scan_generated(convention: str, model: str, params: dict, seed: int) -> ScanRecord | None:
    """The row of one seeded random graph; None when generation fails or no eigenvalue is admissible."""
    try:
        return analyze_graph(generate(model, seed=seed, **params), convention)
    except (GenerationError, ConventionError):
        return None


def _batched_rows(convention: str, n: int, lines: Sequence[bytes]) -> dict[int, ScanRecord]:
    """The rows of same-n graph6 lines that the stacked path can decide, by position.

    One vectorised decode, one stacked ``eigh`` at alpha = 0 and one at
    alpha in {h/2, h} serve the whole stack. A row is decided here only when
    its level is simple, away from +-1 and from 0 (neither degenerate, tied,
    near-unit nor stationary), its verdict is IMPROVES (so a negative
    lambda_star has a positive derivative), and every check of the per-graph
    path passes: the spectrum checks, D-orthonormality and eigen-residual, the
    finite-difference tracking guard and the ladder's consistency (after the
    D-orthonormality check v_star is nonzero, so corollary 2's sign band is
    never empty). Its row is then the one :func:`analyze_graph` builds. Every
    other line is left out, and so is the whole stack when one of its
    eigensolves fails to converge.
    """
    a, ok = decode_graph6_stack(lines, n)
    keep = np.flatnonzero(ok)
    position = keep.tolist()
    a = a[keep]
    d = a.sum(axis=-1)
    try:
        spec = stacked_spectrum(a, d)
    except NumericalError:
        return {}
    derivative, ok = simple_first_order(a, d, spec.lambda_star, spec.basis)
    ok &= spec.simple & (np.abs(spec.lambda_star) > TOL_SIGN)
    verdicts = {}
    for i, lam, der in zip(
        np.flatnonzero(ok).tolist(), spec.lambda_star[ok].tolist(), derivative[ok].tolist()
    ):
        branch = Branch(level_value=lam, derivative=der, rate=modulus_rate(lam, lam, der),
                        vector=spec.basis[i, :, 0])
        classification, gap_derivative, stationary = verdict(lam, branch.rate)
        if classification == IMPROVES:
            verdicts[i] = SmallAlphaVerdict(
                convention=convention, lambda_star=lam, lambda_first=der,
                classification=classification, gap_derivative=float(gap_derivative),
                degenerate=False, tied_sign=False, stationary=stationary, branches=(branch,),
            )
    live = np.fromiter(verdicts, dtype=int, count=len(verdicts))
    try:
        live = live[finite_difference_guard(a[live], d[live], spec._make(f[live] for f in spec))]
    except NumericalError:
        return {}
    ladders = stacked_ladder(spec.gap[live], d[live], spec.v_star[live], spec.lambda_star[live])
    edges = stack_edges(a[live])
    rows = {}
    for i, ladder, edge_list in zip(live.tolist(), ladders, edges):
        if ladder is not None:
            graph_id = lines[position[i]].decode("ascii")
            rows[position[i]] = _record(graph_id, n, edge_list, near_unit=False, report=verdicts[i],
                                        ladder=ladder, confirmed=None)
    return rows


def _scan_unit(convention: str, unit: tuple[int, list[bytes]]) -> tuple[list[ScanRecord | None], int]:
    """The rows of one work unit of a catalog scan and how many of them were batched.

    ``unit`` is (n, lines) from :func:`_work_units`. Lines the stacked path
    does not decide take :func:`_scan_graph6_line`, as every line of an n = 0
    unit does.
    """
    n, lines = unit
    batched = _batched_rows(convention, n, lines) if n else {}
    rows = [batched[i] if i in batched else _scan_graph6_line(convention, line)
            for i, line in enumerate(lines)]
    return rows, len(batched)


def _work_units(lines: Sequence[bytes]) -> list[tuple[int, list[int]]]:
    """(n, input positions) units of a catalog scan.

    Lines that :func:`graph6_short_n` maps to the same n share units of at
    most STACK_SIZE lines, in input order; every other line is in a unit with
    n = 0.
    """
    groups: dict[int, list[int]] = {}
    for i, line in enumerate(lines):
        groups.setdefault(graph6_short_n(line), []).append(i)
    return [
        (n, positions[start:start + STACK_SIZE])
        for n, positions in groups.items()
        for start in range(0, len(positions), STACK_SIZE)
    ]


def _finalize(
    provenance: str,
    convention: str,
    results: Iterable[ScanRecord | None],
    top_k: int,
    started: float,
    dump_dir: str | Path | None,
    batched: int = 0,
) -> tuple[ScanSummary, list[ScanRecord]]:
    """The summary and reported rows of a scan; ``batched`` rows took the stacked path."""
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
    summary.scalar_path = summary.classified - batched
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
    return provenance, [line for line in raw if line.strip()]


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

    Lines with a 1-byte header are solved in stacks of up to STACK_SIZE
    graphs with the same n (see :func:`_batched_rows`); every row the stacked
    path cannot decide, and every other line, goes through
    :func:`analyze_graph` alone. Both give the same rows.
    ``ScanSummary.scalar_path`` counts the classified rows of the second kind.
    """
    if (limit is not None and limit < 0) or top_k < 0:
        raise ValueError(f"limit and top_k must be >= 0, got {limit} and {top_k}")
    conv = normalize_convention(convention)
    started = time.perf_counter()
    provenance, lines = _read_graph6_lines(source)
    if limit is not None:
        lines = lines[:limit]
    units = _work_units(lines)
    done = _run(partial(_scan_unit, conv), [(n, [lines[i] for i in idx]) for n, idx in units], parallelism)
    results: list[ScanRecord | None] = [None] * len(lines)
    batched = 0
    for (_, positions), (rows, count) in zip(units, done):
        batched += count
        for i, row in zip(positions, rows):
            results[i] = row
    return _finalize(provenance, conv, results, top_k, started, dump_dir, batched)


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

    The worsening region sits where det(A) is at or near zero with unequal
    self-loops, on the lambda_star >= 0 side.
    """
    if not (len(a11_values) and len(a12_values) and len(a22_values)):
        raise ValueError("empty two-node grid")
    records = []
    for a11 in a11_values:
        for a12 in a12_values:
            for a22 in a22_values:
                p = TwoNodeParams(float(a11), float(a12), float(a22))
                cf = two_node_closed_form(p)
                if cf.classification != WORSENS:
                    continue
                g = p.graph()
                summary = spectrum(build_transition(g, 0.0), SLEM)
                cond = full_report(g, SLEM, summary=summary)
                records.append(scan_record(g, summary, cf, cond))
    return records
