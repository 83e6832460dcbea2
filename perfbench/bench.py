"""Workloads, timing loop, correctness gates and environment manifest of the rwj benchmark.

The workloads call only rwj's public entry points (``rwj.scan_catalog``,
``rwj.scan_random``, ``rwj.search.two_node_grid_search`` and
``rwj.cli.main(["analyze", ...])``), always through the module attribute so
that a traced run sees every call. Gates run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import rwj
import rwj.cli
import rwj.search

from tracing import PER_LAYER, PER_LAYER_HIGHER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

CATALOG8 = HERE / "data" / "graph8c.g6"
CATALOG8_COUNT = 11117  # OEIS A001349, connected graphs on 8 vertices
CATALOG8_SHA256 = "13ba2e13bea11928a039926e3281092bb2340bb44870e61181160b530d62c52c"
CONVENTIONS = ("slem", "paper")

SETUP_REPS = 3
# Each timed call takes about 1-2 s. Host contention on a shared VM comes in
# phases of seconds; longer calls average over them, so the per-call median
# moves less from run to run than with many short calls.
TRACE_SEED = 0  # traced runs measure fixed inputs, so their counts repeat exactly

# End-to-end metrics of an untraced run, in BENCHMARK.json order:
# name -> (unit, better, bound as a share of the parent's median). The timing
# bounds are wide because on a shared 2-vCPU VM the same pure-Python loop
# drifts by about +-20% over tens of seconds; resident memory barely moves.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "graphs_per_s": ("graphs/s", "higher", 0.25),
    "analyze_s_p50": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


class InputError(Exception):
    """A bundled input failed its integrity check; the benchmark refuses to run."""


def _counts(summary) -> tuple[int, int, int, int]:
    """What the gates need from a ScanSummary. Repeated calls keep only this, so the
    benchmark's own memory (and garbage-collector work) does not grow with the run."""
    return summary.classified, summary.skipped, summary.counterexamples, summary.consistency_violations


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Catalog8:
    """Every connected 8-vertex graph through scan_catalog, slem then paper."""

    name = "catalog8"
    why = ("11,117 tiny graphs: per-graph Python work in graphs/spectral/perturb/conditions "
           "dominates and eigh is a small share; no WORSENS, so sweep confirmation is bypassed")

    def __init__(self, path: Path = CATALOG8, count: int = CATALOG8_COUNT,
                 sha256: str = CATALOG8_SHA256, stripes: int = 16, trace_stripes: int = 4):
        self.path, self.count, self.sha256 = path, count, sha256
        self.n_stripes, self.trace_stripes = stripes, trace_stripes

    def setup(self, seed: int) -> None:
        data = self.path.read_bytes()
        lines = [line for line in data.splitlines() if line.strip()]
        digest = hashlib.sha256(data).hexdigest()
        if len(lines) != self.count or digest != self.sha256:
            raise InputError(f"{self.path.name}: {len(lines)} graphs, sha256 {digest}; "
                             f"expected {self.count} graphs, sha256 {self.sha256}")
        # stripe k holds every n_stripes-th graph, so each call is a sample of the whole catalog
        self.stripes = [lines[k::self.n_stripes] for k in range(self.n_stripes)]
        self.order = np.random.default_rng(seed).permutation(self.n_stripes)
        self.outputs: list[tuple[int, str, object]] = []
        self.records: dict[tuple[int, str], list] = {}
        for conv in CONVENTIONS:
            rwj.scan_catalog(lines[:16], conv)

    def _scan(self, k: int) -> int:
        for conv in CONVENTIONS:
            try:
                summary, records = rwj.scan_catalog(self.stripes[k], conv)
            except Exception as exc:  # counted by the gate, never dropped
                self.outputs.append((k, conv, exc))
                continue
            self.records.setdefault((k, conv), records)
            self.outputs.append((k, conv, _counts(summary)))
        return len(CONVENTIONS) * len(self.stripes[k])

    def calls(self):
        for i in itertools.count():
            yield partial(self._scan, int(self.order[i % self.n_stripes]))

    def trace_calls(self) -> list:
        return [partial(self._scan, k) for k in range(self.trace_stripes)]

    def complete(self) -> None:
        done = {k for k, _, _ in self.outputs}
        for k in range(self.n_stripes):
            if k not in done:
                self._scan(k)

    def gate(self, complete: bool) -> dict:
        g = Gate()
        classified = dict.fromkeys(CONVENTIONS, 0)
        seen: set[tuple[int, str]] = set()
        for k, conv, out in self.outputs:
            size = len(self.stripes[k])
            g.attempted += size
            if isinstance(out, Exception):
                g.fail(size, f"stripe {k} {conv}: {type(out).__name__}: {out}")
                continue
            ok, skipped, counterexamples, inconsistent = out
            g.fail(min(size, size - ok + counterexamples + inconsistent),
                   f"stripe {k} {conv}: classified {ok}/{size}, skipped {skipped}, "
                   f"counterexamples {counterexamples}, consistency violations {inconsistent}")
            if (k, conv) not in seen:
                seen.add((k, conv))
                classified[conv] += ok
        if complete:
            handed = sum(len(stripe) for stripe in self.stripes)
            for conv in CONVENTIONS:
                # graphs inside a stripe that were not classified already count as failed above
                g.fail(self.count - handed, f"{conv}: {handed} graphs scanned, {classified[conv]} "
                       f"classified, expected {self.count}")
            g.info["classified"] = classified
            # ungated fingerprint: per-stripe scan CSVs in stripe order, slem before paper
            digest = hashlib.sha256()
            for key in sorted(self.records, key=lambda kc: (kc[0], CONVENTIONS.index(kc[1]))):
                digest.update(rwj.cli.records_to_csv(self.records[key]).encode())
            g.info["scan_csv_sha256"] = digest.hexdigest()
        return g.result()


class ErScan:
    """Seeded Erdos-Renyi graphs through scan_random."""

    name = "er-scan"
    why = ("fewer, larger graphs (ER n=100, p=0.08): eigh and the graphs layer (generator loop, "
           "adjacency, connectivity) dominate, so adjacency caching shows and a tiny-n batch path does not")

    def __init__(self, n: int = 100, p: float = 0.08, per_call: int = 100, trace_calls: int = 2):
        self.params = {"n": n, "p": p}
        self.per_call, self.n_trace_calls = per_call, trace_calls

    def setup(self, seed: int) -> None:
        # graph seeds of this run: base, base + 1, ...; the warm-up uses seeds no call reaches
        self.base = seed * 1_000_000
        self.outputs: list[tuple[int, object]] = []
        rwj.scan_random("er", self.params, 2, self.base + 999_000)

    def _scan(self, first_seed: int) -> int:
        try:
            out = _counts(rwj.scan_random("er", self.params, self.per_call, first_seed)[0])
        except Exception as exc:  # counted by the gate, never dropped
            out = exc
        self.outputs.append((first_seed, out))
        return self.per_call

    def calls(self):
        for i in itertools.count():
            yield partial(self._scan, self.base + i * self.per_call)

    def trace_calls(self) -> list:
        base = TRACE_SEED * 1_000_000
        return [partial(self._scan, base + i * self.per_call) for i in range(self.n_trace_calls)]

    def complete(self) -> None:
        pass

    def gate(self, complete: bool) -> dict:
        g = Gate()
        for first_seed, out in self.outputs:
            g.attempted += self.per_call
            if isinstance(out, Exception):
                g.fail(self.per_call, f"seeds {first_seed}+: {type(out).__name__}: {out}")
                continue
            ok, skipped, counterexamples, _ = out
            g.check(ok + skipped == self.per_call,
                    f"seeds {first_seed}+: classified {ok} + skipped {skipped} != {self.per_call}")
            g.fail(min(self.per_call, skipped + counterexamples),
                   f"seeds {first_seed}+: skipped {skipped}, counterexamples {counterexamples}")
        return g.result()


_LAMBDA_LINE = re.compile(r"^lambda_star=(\S+) ", re.MULTILINE)


def reference_lambda_star(g) -> float:
    """lambda_star under the paper convention, from eigvalsh of D^-1/2 A D^-1/2 built here."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    s = 1.0 / np.sqrt(a.sum(axis=1))
    w = np.sort(np.linalg.eigvalsh(s[:, None] * a * s[None, :]))[:-1]  # drop the Perron value 1
    w = w[(np.abs(w - 1.0) > 1e-9) & (np.abs(w + 1.0) > 1e-9)]
    top = np.abs(w).max()
    return float(w[np.abs(np.abs(w) - top) <= 1e-9].max())


class AnalyzeLarge:
    """`rwj analyze --csv` on one seeded ER graph."""

    name = "analyze-large"
    why = ("one ER graph with n=400: O(n^3) kernels (eigh, the dobrushin n x n x n temporary) dominate; "
           "the only workload where the analyze --csv recompute and dobrushin memory show")

    def __init__(self, n: int = 400, p: float = 0.05, trace_calls: int = 3, work: Path = WORK):
        self.n, self.p, self.n_trace_calls, self.work = n, p, trace_calls, work

    def _graph_file(self, seed: int) -> Path:
        g = rwj.generate("er", seed=seed, n=self.n, p=self.p)
        path = self.work / f"analyze-n{self.n}-seed{seed}.el"
        path.write_text(rwj.write_edgelist(g, comments=[g.name]))
        self.graphs[path] = g
        return path

    def setup(self, seed: int) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.graphs: dict[Path, object] = {}
        self.outputs: list[tuple[Path, int, str | None]] = []
        self.path = self._graph_file(seed)
        self.csv = self.work / f"analyze-n{self.n}-seed{seed}.csv"
        warm = self.work / "analyze-warmup.el"
        warm.write_text(rwj.write_edgelist(rwj.generate("er", seed=seed, n=30, p=0.3)))
        self._invoke(warm, record=False)

    def _invoke(self, path: Path, record: bool = True) -> int:
        argv = ["analyze", "--input", str(path), "--format", "edgelist", "--epsilon", "0.01",
                "--csv", str(self.csv)]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = rwj.cli.main(argv)
        except Exception as exc:  # counted by the gate, never dropped
            code, buf = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        if record:
            m = _LAMBDA_LINE.search(buf.getvalue())
            self.outputs.append((path, code, m.group(1) if m else None))
        return 1

    def calls(self):
        while True:
            yield partial(self._invoke, self.path)

    def trace_calls(self) -> list:
        path = self._graph_file(TRACE_SEED)
        return [partial(self._invoke, path) for _ in range(self.n_trace_calls)]

    def complete(self) -> None:
        pass

    def gate(self, complete: bool) -> dict:
        g = Gate()
        refs = {path: reference_lambda_star(graph) for path, graph in self.graphs.items()}
        for path, code, printed in self.outputs:
            g.attempted += 1
            if code != 0 or printed is None:
                g.fail(1, f"{path.name}: exit code {code}, lambda_star line {'found' if printed else 'missing'}")
                continue
            err = abs(float(printed) - refs[path])
            g.fail(int(not err <= 1e-9), f"{path.name}: lambda_star {printed} differs from eigvalsh "
                   f"{refs[path]!r} by {err:.3g}")
        g.info["lambda_star_reference"] = {p.name: v for p, v in refs.items()}
        return g.result()


class TwoNodeGrid:
    """two_node_grid_search over a dense (a11, a12, a22) grid around det(A) = 0."""

    name = "two-node-grid"
    why = ("the only workload with WORSENS verdicts: most time goes to sweep_confirms/track_branch, "
           "which catalog scans never enter")

    def __init__(self, a11=None, a12=None, a22=None, stripes: int = 2):
        self.a11 = np.linspace(0.0, 5.0, 61) if a11 is None else np.asarray(a11, dtype=float)
        self.a12 = np.linspace(0.5, 3.0, 16) if a12 is None else np.asarray(a12, dtype=float)
        self.a22 = np.linspace(0.0, 5.0, 61) if a22 is None else np.asarray(a22, dtype=float)
        self.n_stripes = min(stripes, len(self.a11))

    def _points(self, k: int) -> int:
        return len(self.a11[k::self.n_stripes]) * len(self.a12) * len(self.a22)

    def setup(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(self.n_stripes)
        self.outputs: list[tuple[int, object]] = []
        self.records: dict[int, list] = {}
        rwj.search.two_node_grid_search([4.0], [2.0], [1.0, 0.5])

    def _scan(self, k: int) -> int:
        try:
            records = rwj.search.two_node_grid_search(self.a11[k::self.n_stripes], self.a12, self.a22)
        except Exception as exc:  # counted by the gate, never dropped
            self.outputs.append((k, exc))
        else:
            # repeats keep only their verdict counts, which must equal the first call's
            self.records.setdefault(k, records)
            self.outputs.append((k, (len(records), sum(bool(r.sweep_confirmed) for r in records))))
        return self._points(k)

    def calls(self):
        for i in itertools.count():
            yield partial(self._scan, int(self.order[i % self.n_stripes]))

    def trace_calls(self) -> list:
        return [partial(self._scan, k) for k in range(self.n_stripes)]

    def complete(self) -> None:
        done = {k for k, _ in self.outputs}
        for k in range(self.n_stripes):
            if k not in done:
                self._scan(k)

    def gate(self, complete: bool) -> dict:
        g = Gate()
        bad: dict[int, list[str]] = {}
        for k, records in self.records.items():
            bad[k] = []
            for r in records:
                if r.sweep_confirmed:
                    graph = rwj.WeightedGraph(2, r.edges)
                    gap = [rwj.spectrum(rwj.build_transition(graph, a), "slem").gap for a in (1e-2, 0.0)]
                    if not gap[0] < gap[1]:
                        bad[k].append(r.id)
        for k, out in self.outputs:
            points = self._points(k)
            g.attempted += points
            if isinstance(out, Exception):
                g.fail(points, f"a11 stripe {k}: {type(out).__name__}: {out}")
                continue
            first = (len(self.records[k]), sum(bool(r.sweep_confirmed) for r in self.records[k]))
            g.fail(abs(out[0] - first[0]) + abs(out[1] - first[1]),
                   f"a11 stripe {k}: {out} (WORSENS, sweep-confirmed) on a repeat, {first} first")
            g.fail(len(bad[k]), f"a11 stripe {k}: sweep-confirmed but gap(1e-2) >= gap(0): {bad[k][:3]}")
        records = [r for rs in self.records.values() for r in rs]
        g.info.update(grid_points=sum(self._points(k) for k in self.records), worsens=len(records),
                      sweep_confirmed=sum(bool(r.sweep_confirmed) for r in records))
        return g.result()


WORKLOADS = {w.name: w for w in (Catalog8, ErScan, AnalyzeLarge, TwoNodeGrid)}


class Gate:
    """Failure tally of one run; messages keep the first few failures verbatim."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.info: dict = {}

    def fail(self, count: int, message: str) -> None:
        if count > 0:
            self.failed += count
            if len(self.messages) < 20:
                self.messages.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.fail(int(not ok), message)

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages, "info": self.info}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_calls(calls, seconds: float) -> list[tuple[float, int]]:
    """Run calls back to back until ``seconds`` have passed; (wall seconds, graphs) per call."""
    samples = []
    start = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        graphs = call()
        samples.append((time.perf_counter() - t, graphs))
        if time.perf_counter() - start >= seconds:
            break
    return samples


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    q = math.floor(100.0 * (1.0 - 10.0 / len(values))) if values else 0
    if q <= 50:
        return None
    return q, float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


IMPORT_PROBE = "import time; t = time.perf_counter(); import bench; print(time.perf_counter() - t)"


def import_times(reps: int) -> list[float]:
    """Seconds to import numpy, rwj and the benchmark in ``reps`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                                 text=True, check=True, timeout=120).stdout)
            for _ in range(reps)]


def _setup(workload, seed: int, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t)
    return times


def run_workload(workload, seed: int, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """One run of one workload: set up, measure (or trace), gate. Returns the result record."""
    if trace:
        workload.setup(seed)
        calls = workload.trace_calls()
        t = time.perf_counter()
        for call in calls:
            call()
        untraced_s = time.perf_counter() - t
        tracer = Tracer()
        with tracer:
            t = time.perf_counter()
            graphs = sum(call() for call in calls)
            traced_s = time.perf_counter() - t
        layer = tracer.metrics(graphs, untraced_s, traced_s)
        if spans_path is not None:
            tracer.write(spans_path)
        gate = workload.gate(complete=False)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        extra = {"trace_inputs_seed": TRACE_SEED, "trace_missing": tracer.missing,
                 "spans": len(tracer.span_name)}
    else:
        imports = import_times(SETUP_REPS)
        setup_times = _setup(workload, seed, SETUP_REPS)
        samples = timed_calls(workload.calls(), seconds)
        workload.complete()
        gate = workload.gate(complete=True)
        per_graph = [dt / n for dt, n in samples]
        wall = sum(dt for dt, _ in samples)
        graphs = sum(n for _, n in samples)
        values = {
            "setup_s": (statistics.median(imports) + statistics.median(setup_times), len(setup_times)),
            "graphs_per_s": (graphs / wall, len(samples)),
            "analyze_s_p50": (statistics.median(per_graph), len(samples)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        }
        metrics = {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
                   for name, (unit, _, _) in END_TO_END.items()}
        high = high_percentile(per_graph)
        extra = {
            "import_s": imports,
            "setup_times_s": setup_times,
            "call_s": [dt for dt, _ in samples],
            "timed_wall_s": wall,
            "timed_graphs": graphs,
            "analyze_s_high": None if high is None else
            {"percentile": high[0], "value": high[1], "unit": "s", "samples": len(per_graph),
             "beyond": len(per_graph) - math.ceil(len(per_graph) * high[0] / 100.0)},
        }
    attempted = max(gate["attempted"], 1)
    extra["failed_frac"] = {"value": gate["failed"] / attempted, "unit": "ratio", "samples": attempted}
    return {
        "workload": workload.name,
        "correct": gate["failed"] == 0,
        "attempted": attempted,
        "failed": gate["failed"],
        "metrics": metrics,
        "gate": gate,
        "extra": extra,
    }


def benchmark_json() -> dict:
    """The content of BENCHMARK.json, built from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": "higher" if name in PER_LAYER_HIGHER else "lower"}
                      for name, unit in PER_LAYER.items()],
    }


# ---------------------------------------------------------------------------
# environment manifest
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def environment(workload: str, seed: int, trace: bool, blas_threads: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads": blas_threads,
        "scan_parallelism": 1,
        "git_commit": _git_commit(ROOT),
        "rwj_version": rwj.__version__,
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
    }
