"""Command-line front end.

Commands: analyze, conditions, sweep, scan, gen, two-node. Numbers print with
12 significant digits; CSV uses '.' decimals and no locale. Exit codes:
0 success, 2 parse error or invalid parameters, 3 disconnected input,
4 numerical failure, 10 a scan or two-node grid found a sweep-confirmed counterexample.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import conditions as cond_mod
from . import graphs, perturb, search, spectral
from .errors import (
    ConventionError,
    DisconnectedGraphError,
    GenerationError,
    GraphFormatError,
    NumericalError,
    RwjError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_NUMERICAL = 4
EXIT_COUNTEREXAMPLE = 10

SCAN_CSV_HEADER = (
    "id,n,convention,lambda_star,lambda_first,classification,margin,"
    "cor1,cor2,thm2_sharp,cor4_sharp,nand_s,flags"
)
SWEEP_CSV_HEADER = "alpha,lambda_star,gap,t_rel,dobrushin_lower_bound,lambda_star_tracked"


def fmt(x) -> str:
    """12 significant digits; infinities print as inf."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".12g")


def _fmt_bool(b) -> str:
    if b is None:
        return "n/a"
    return "true" if b else "false"


def load_graph(path: str, fmt_name: str) -> graphs.WeightedGraph:
    p = Path(path)
    if fmt_name == "auto":
        suffix = p.suffix.lower()
        if suffix in (".g6", ".graph6"):
            fmt_name = "g6"
        elif suffix in (".el", ".edgelist", ".txt"):
            fmt_name = "edgelist"
        else:
            raise GraphFormatError(
                f"cannot infer format from {p.suffix!r}; pass --format g6|edgelist"
            )
    if fmt_name == "g6":
        _, lines = graphs.read_graph6_lines(p)
        if len(lines) != 1:
            raise GraphFormatError(f"{path} holds {len(lines)} graph6 lines, expected exactly 1")
        return graphs.parse_graph6(lines[0])
    return graphs.parse_edgelist(p.read_text(), name=p.stem)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted with inner quotes doubled where it holds a comma, quote or line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def records_to_csv(records) -> str:
    """The scan CSV of ``records``; only an id can hold a comma (RFC 4180 quoting), the rest are numbers and tokens."""
    lines = [SCAN_CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _csv_field(r.id),
                    str(r.n),
                    r.convention,
                    fmt(r.lambda_star),
                    fmt(r.lambda_first),
                    r.classification,
                    fmt(r.margin),
                    _fmt_bool(r.cor1),
                    _fmt_bool(r.cor2),
                    _fmt_bool(r.thm2_sharp),
                    _fmt_bool(r.cor4_sharp),
                    _fmt_bool(r.nand_s),
                    r.flags(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_text(s: search.ScanSummary) -> str:
    lines = [
        f"scan: {s.provenance}",
        f"convention: {s.convention}",
        f"total: {s.total}  classified: {s.classified}  skipped: {s.skipped}",
        f"counterexamples: {s.counterexamples}  unconfirmed-worsens: {s.worsens_unconfirmed}",
        f"degenerate: {s.degenerate}  tied: {s.tied}  stationary: {s.stationary}",
        f"paper-constant witnesses: {s.paper_constant_witnesses}  "
        f"consistency violations: {s.consistency_violations}",
        f"elapsed: {s.elapsed:.3f}s",
    ]
    if s.min_margin_records:
        lines.append("closest calls (smallest improvement margins):")
        for r in s.min_margin_records:
            lines.append(f"  {r.id}  margin={fmt(r.margin)}  lambda_star={fmt(r.lambda_star)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analyze / conditions
# ---------------------------------------------------------------------------

def _analyze(g, alpha, convention, epsilon, h, conditions_only=False, with_record=False):
    """The analyze report text and, with ``with_record``, the scan row built from the same results.

    One :func:`~rwj.search._decide` call decides the graph as a stack of one
    (:func:`~rwj.search._decide_one`), for the condition report too: its rows
    hold the alpha = 0 spectrum, the verdict with its finite-difference check,
    the condition ladder and the sweep of a WORSENS verdict. The report and
    the row read them; only a nonzero alpha is solved again, and alpha_bar
    searches from the alpha = 0 gap. ``h`` sizes only the printed ``fd=``: the Hellmann-Feynman stencil
    (:func:`~rwj.perturb._hellmann_feynman`) at 0, h/2 and h along the vector of the verdict's worst branch, which
    the verdict core runs at s = FD_STEP * d_min; one mat-vec and no eigensolve, so nothing is solved for this print.
    ``alpha``, then ``h``, then ``epsilon`` is checked first, in every form.
    """
    out = []
    ts = spectral.build_transition(g, alpha)
    perturb._require_step(h)
    if epsilon is not None:
        spectral._require_epsilon(epsilon)
    stats = graphs.degree_stats(g)
    conv = spectral.normalize_convention(convention)
    rows = search._decide_one(g, conv)
    base = rows.spec.summary(0, 0.0, conv)
    v = rows.verdicts
    out.append(f"graph: {g.name or '<unnamed>'}  n={g.n}  volume={fmt(stats.volume)}")
    out.append("degrees: " + " ".join(fmt(x) for x in stats.d))
    out.append(
        f"d_mean={fmt(stats.d_mean)} d_max={fmt(stats.d_max)} "
        f"d_second_moment={fmt(stats.d_second_moment)} snr={fmt(stats.snr)}"
    )

    if not conditions_only:
        a = g.adjacency()[None]
        (fd,), _ = perturb._hellmann_feynman(a, a.sum(-1), np.array([h]), v.vector, v.lambda_first)
        summary = base if alpha == 0.0 else spectral.spectrum(ts, conv)
        out.append(f"alpha={fmt(alpha)}  convention={conv}")
        out.append("pi(alpha): " + " ".join(fmt(x) for x in ts.pi))
        out.append("eigenvalues: " + " ".join(fmt(x) for x in summary.eigenvalues))
        out.append(
            f"lambda_star={fmt(summary.lambda_star)} gap={fmt(summary.gap)} t_rel={fmt(summary.t_rel)}"
        )
        flags = []
        if summary.degenerate_multiplicity > 1:
            flags.append(f"degenerate:{summary.degenerate_multiplicity}")
        if summary.tied_sign:
            flags.append("tied")
        if summary.near_unit:
            flags.append("near_unit")
        out.append("flags: " + ("|".join(flags) if flags else "none"))
        if epsilon is not None:
            pi_min = float(ts.pi.min())
            if math.isinf(summary.t_rel):
                out.append(f"mixing bounds (epsilon={fmt(epsilon)}): undefined, t_rel is infinite")
            else:
                lo, hi = spectral.mixing_time_bounds(summary.t_rel, pi_min, epsilon)
                out.append(
                    f"mixing bounds (epsilon={fmt(epsilon)}, natural log): "
                    f"lower={fmt(lo)} upper={fmt(hi)}"
                )
        delta = spectral.dobrushin(ts)
        bound = spectral.dobrushin_bound(alpha, stats.d_max)
        out.append(
            f"dobrushin delta={fmt(delta)} 1-delta={fmt(1.0 - delta)} "
            f"bound alpha/(d_max+alpha)={fmt(bound)}"
        )
        out.append(
            "small-alpha (at alpha=0): "
            f"lambda_star={fmt(v.lambda_star[0])} lambda_first={fmt(v.lambda_first[0])} "
            f"fd={fmt(fd)} fd_agreement={fmt(abs(v.lambda_first[0] - fd) / max(1.0, abs(v.lambda_first[0])))}"
        )
        out.append(
            f"classification={v.classification[0]} gap_derivative={fmt(v.gap_derivative[0])}"
            + (" [stationary]" if v.stationary[0] else "")
            + (" [degenerate]" if v.degenerate[0] else "")
            + (" [tied]" if v.tied_sign[0] else "")
        )

    lad = rows.ladder  # the condition block reads entry 0 of the ladder columns, as the --csv row does
    c1, c2, t2s, t2p, c4s = lad.cor1, lad.cor2, lad.thm2_sharp, lad.thm2_paper, lad.cor4_sharp
    c4p = cond_mod.corollary4(base.gap, stats, "paper")
    out += [
        f"conditions (alpha=0, gamma={fmt(base.gap)}):",
        f"  cor1: gap < 1/n = {fmt(c1.threshold)} -> {_fmt_bool(c1.holds[0])}",
        f"  cor2: mu={fmt(c2.mu[0])} threshold={fmt(c2.threshold[0])} -> {_fmt_bool(c2.holds[0])}",
        f"  thm2 sharp: threshold={fmt(t2s.threshold[0])} -> {_fmt_bool(t2s.holds[0])}"
        f"  (paper constant: threshold={fmt(t2p.threshold[0])} -> {_fmt_bool(t2p.holds[0])})",
        f"  cor4 sharp: threshold={fmt(c4s.threshold[0])} -> {_fmt_bool(c4s.holds[0])}"
        f"  (paper constant: threshold={fmt(c4p.threshold)} -> {_fmt_bool(c4p.holds)})",
    ]
    if lad.positive[0]:
        ns = perturb.nand_s_check(base.lambda_star, base.v_star, g.n)
        out.append(f"  nand_s: lhs={fmt(ns.lhs)} rhs={fmt(ns.rhs)} -> {_fmt_bool(ns.holds)} "
                   f"(laplacian form: {fmt(ns.laplacian_lhs)} < {fmt(ns.laplacian_rhs)})")
    else:
        out.append("  nand_s: n/a (lambda_star <= 0)")
    out.append(f"  rayleigh minimum: {fmt(cond_mod.rayleigh_minimum(stats)[0])}")
    bar = spectral.alpha_bar(g, base.gap, conv)
    searched = "none" if bar.searched is None else fmt(bar.searched)
    out.append(f"  alpha_bar: closed_form={fmt(bar.closed_form)} searched={searched}")
    out.append("  consistency: " + ("; ".join(lad.consistency[0]) or "ok"))
    record = rows.records([0], [g.name or "<anonymous>"], [g.edges])[0] if with_record else None
    return "\n".join(out) + "\n", record


def cmd_analyze(args, conditions_only=False) -> int:
    g = load_graph(args.input, args.format)
    conditions_only = conditions_only or getattr(args, "conditions_only", False)
    csv_path = getattr(args, "csv", None)
    text, record = _analyze(
        g, args.alpha, args.convention, args.epsilon, args.h,
        conditions_only=conditions_only, with_record=bool(csv_path),
    )
    sys.stdout.write(text)
    if csv_path:
        Path(csv_path).write_text(records_to_csv([record]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_grid(args) -> list[float]:
    if args.steps < 1:
        raise GraphFormatError(f"--steps must be >= 1, got {args.steps}")
    if not (math.isfinite(args.alpha_max) and args.alpha_max >= 0):
        raise GraphFormatError(f"--alpha-max must be finite and >= 0, got {args.alpha_max}")
    if args.spacing == "linear":
        return [float(a) for a in np.linspace(0.0, args.alpha_max, args.steps)]
    if not (math.isfinite(args.alpha_min) and args.alpha_min > 0):
        raise GraphFormatError(f"--alpha-min must be finite and > 0 for log spacing, got {args.alpha_min}")
    if args.alpha_max <= 0:
        raise GraphFormatError("--alpha-max must be > 0 for log spacing")
    return [float(a) for a in np.logspace(math.log10(args.alpha_min), math.log10(args.alpha_max), args.steps)]


def cmd_sweep(args) -> int:
    g = load_graph(args.input, args.format)
    grid = _sweep_grid(args)
    conv = spectral.normalize_convention(args.convention)
    stats = graphs.degree_stats(g)

    spectra = {a: spectral.spectrum(spectral.build_transition(g, a), conv) for a in sorted({0.0, *grid})}
    tracked = {a: lam for a, lam, _v in spectral.track_branch(g, list(spectra), spectra[0.0].v_star, spectra.values())}

    lines = [SWEEP_CSV_HEADER]
    for a in grid:
        summary = spectra[a]
        lines.append(
            ",".join(
                [
                    fmt(a),
                    fmt(summary.lambda_star),
                    fmt(summary.gap),
                    fmt(summary.t_rel),
                    fmt(spectral.dobrushin_bound(a, stats.d_max)),
                    fmt(tracked[a]),
                ]
            )
        )
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    kwargs = dict(
        convention=args.convention,
        top_k=args.top_k,
        parallelism=args.parallel,
        dump_dir=args.dump_dir,
    )
    if args.catalog:
        summary, records = search.scan_catalog(args.catalog, limit=args.limit, **kwargs)
    elif args.model:
        params = _model_params(args)
        summary, records = search.scan_random(args.model, params, args.count, args.seed, **kwargs)
    else:
        raise GraphFormatError("scan needs --catalog or --model")
    csv = records_to_csv(records)
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    sys.stderr.write(summary_text(summary))
    return EXIT_COUNTEREXAMPLE if summary.counterexamples else EXIT_OK


def _model_params(args) -> dict:
    if args.model in ("path", "cycle", "star", "complete"):
        return {"n": args.n}
    if args.model == "er":
        if args.p is None:
            raise GraphFormatError("er needs --p")
        return {"n": args.n, "p": args.p}
    if args.model == "sbm":
        if not args.sizes or not args.block_probs:
            raise GraphFormatError("sbm needs --sizes and --block-probs")
        sizes = [int(s) for s in args.sizes.split(",")]
        k = len(sizes)
        probs = [float(x) for x in args.block_probs.split(",")]
        if len(probs) != k * k:
            raise GraphFormatError(f"--block-probs needs {k * k} entries for {k} blocks")
        b = [probs[i * k:(i + 1) * k] for i in range(k)]
        return {"sizes": sizes, "b": b}
    raise GraphFormatError(f"unknown model {args.model!r}")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    params = _model_params(args)
    g = graphs.generate(args.model, seed=args.seed, **params)
    out_fmt = args.format
    if out_fmt == "auto":
        # generators emit unweighted graphs, so graph6 is the default; an
        # edge-list target keeps the provenance header (graph6 has no comments)
        if args.out and Path(args.out).suffix.lower() in (".el", ".edgelist", ".txt"):
            out_fmt = "edgelist"
        else:
            out_fmt = "g6"
    if out_fmt == "g6":
        payload = graphs.write_graph6(g) + b"\n"
        if args.out:
            Path(args.out).write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("ascii"))
    else:
        text = graphs.write_edgelist(g, comments=[f"{g.name}", f"seed={args.seed}"])
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    sys.stderr.write(f"generated {g.name}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# two-node
# ---------------------------------------------------------------------------

def _parse_grid_spec(spec: str) -> list[float]:
    try:
        lo, hi, steps = spec.split(":")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise GraphFormatError(f"grid spec bounds must be finite, got {spec!r}")
        return [float(x) for x in np.linspace(lo, hi, int(steps))]
    except ValueError as exc:
        raise GraphFormatError(f"grid spec must be MIN:MAX:STEPS, got {spec!r}") from exc


def cmd_two_node(args) -> int:
    if args.grid_a11 or args.grid_a12 or args.grid_a22:
        if not (args.grid_a11 and args.grid_a12 and args.grid_a22):
            raise GraphFormatError("grid mode needs all of --grid-a11/--grid-a12/--grid-a22")
        records = search.two_node_grid_search(
            _parse_grid_spec(args.grid_a11),
            _parse_grid_spec(args.grid_a12),
            _parse_grid_spec(args.grid_a22),
        )
        csv = records_to_csv(records)
        if args.out:
            Path(args.out).write_text(csv)
        else:
            sys.stdout.write(csv)
        confirmed = sum(bool(r.sweep_confirmed) for r in records)
        sys.stderr.write(f"worsening grid points: {len(records)}  sweep-confirmed: {confirmed}\n")
        if args.dump_dir and records:
            search.dump_counterexamples(records, args.dump_dir)
        return EXIT_COUNTEREXAMPLE if confirmed else EXIT_OK

    if args.a11 is None or args.a12 is None or args.a22 is None:
        raise GraphFormatError("two-node needs --a11/--a12/--a22 or the three --grid-* options")
    p = search.TwoNodeParams(args.a11, args.a12, args.a22)
    cf = search.two_node_closed_form(p)
    numeric = perturb.classify_small_alpha(p.graph(), "slem")
    out = [
        f"two-node weights: a11={fmt(p.a11)} a12={fmt(p.a12)} a22={fmt(p.a22)}",
        f"closed form: lambda_star={fmt(cf.lambda_star[0])} v_star=(1, {fmt(-cf.r[0])})",
        f"numerator={fmt(cf.numerator[0])} lambda_first={fmt(cf.lambda_first[0])}",
        f"classification={cf.classification[0]} margin={fmt(cf.gap_derivative[0])}"
        + (" [stationary]" if cf.stationary[0] else ""),
        f"numeric cross-check: lambda_star={fmt(numeric.lambda_star[0])} lambda_first={fmt(numeric.lambda_first[0])}",
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rwj",
        description="Random walks with uniform jumps: spectra, relaxation times, "
        "small-jump analysis, condition reports, and counterexample scans.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="graph file")
        p.add_argument("--format", choices=["auto", "g6", "edgelist"], default="auto")

    pa = sub.add_parser("analyze", help="full report for one graph")
    add_input(pa)
    pa.add_argument("--alpha", type=float, default=0.0)
    pa.add_argument("--convention", choices=["slem", "paper"], default="paper")
    pa.add_argument("--epsilon", type=float, default=None, help="print mixing-time bounds")
    pa.add_argument("--h", type=float, default=perturb.FD_STEP,
                    help="step of the printed finite-difference check (fd=, a Hellmann-Feynman stencil at 0, h/2, h)")
    pa.add_argument("--csv", default=None, help="also write the scan-schema CSV row here")
    pa.add_argument("--conditions-only", action="store_true", help="print only the condition report")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("conditions", help="condition report only (analyze --conditions-only)")
    add_input(pc)
    pc.add_argument("--convention", choices=["slem", "paper"], default="paper")
    pc.set_defaults(func=lambda a: cmd_analyze(a, conditions_only=True), alpha=0.0, epsilon=None, h=perturb.FD_STEP)

    ps = sub.add_parser("sweep", help="alpha sweep as CSV")
    add_input(ps)
    ps.add_argument("--alpha-max", type=float, required=True)
    ps.add_argument("--alpha-min", type=float, default=1e-3, help="first point for log spacing")
    ps.add_argument("--steps", type=int, default=21)
    ps.add_argument("--spacing", choices=["linear", "log"], default="linear")
    ps.add_argument("--convention", choices=["slem", "paper"], default="paper")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sweep)

    pn = sub.add_parser("scan", help="scan a graph6 catalog or a random model")
    pn.add_argument("--catalog", default=None, help="graph6 file, one graph per line")
    pn.add_argument("--model", choices=list(graphs.GENERATOR_MODELS), default=None)
    pn.add_argument("--n", type=int, default=None)
    pn.add_argument("--p", type=float, default=None)
    pn.add_argument("--sizes", default=None, help="sbm block sizes, comma separated")
    pn.add_argument("--block-probs", default=None, help="sbm probability matrix, row major")
    pn.add_argument("--count", type=int, default=100)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--limit", type=int, default=None)
    pn.add_argument("--convention", choices=["slem", "paper"], default="slem")
    pn.add_argument("--top-k", type=int, default=10)
    pn.add_argument("--parallel", type=int, default=1, help="worker processes (>= 1)")
    pn.add_argument("--out", default=None, help="CSV path (default stdout)")
    pn.add_argument("--dump-dir", default=None, help="write counterexample edge lists here")
    pn.set_defaults(func=cmd_scan)

    pg = sub.add_parser("gen", help="generate a graph file")
    pg.add_argument("--model", choices=list(graphs.GENERATOR_MODELS), required=True)
    pg.add_argument("--n", type=int, default=None)
    pg.add_argument("--p", type=float, default=None)
    pg.add_argument("--sizes", default=None)
    pg.add_argument("--block-probs", default=None)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.add_argument("--format", choices=["auto", "g6", "edgelist"], default="auto")
    pg.set_defaults(func=cmd_gen)

    pt = sub.add_parser("two-node", help="closed-form two-vertex analysis or grid search")
    pt.add_argument("--a11", type=float, default=None)
    pt.add_argument("--a12", type=float, default=None)
    pt.add_argument("--a22", type=float, default=None)
    pt.add_argument("--grid-a11", default=None, help="MIN:MAX:STEPS")
    pt.add_argument("--grid-a12", default=None, help="MIN:MAX:STEPS")
    pt.add_argument("--grid-a22", default=None, help="MIN:MAX:STEPS")
    pt.add_argument("--out", default=None)
    pt.add_argument("--dump-dir", default=None)
    pt.set_defaults(func=cmd_two_node)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DISCONNECTED
    except (NumericalError, ConventionError, GenerationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except RwjError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
