"""In-memory span tracer for the benchmark's traced runs.

Each traced function is replaced by a wrapper at every binding site: the
defining module, every ``rwj`` module that imported it by name, and the
package namespace. ``WeightedGraph.adjacency`` is patched on the class and
``numpy.linalg.eigh``/``eigvalsh`` (the kernel) on ``numpy.linalg``. A span is
(name, start, end, parent span, graph id); spans live in flat arrays until the
run ends. Self time is a span's duration minus the durations of its direct
children, which never overlap because the traced code runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import rwj
import rwj.cli
import rwj.conditions
import rwj.graphs
import rwj.perturb
import rwj.search
import rwj.spectral

# (span name, owner, attribute). A target the program no longer defines is
# reported in ``missing`` and its metrics read zero.
TARGETS = (
    ("graphs.parse_graph6", rwj.graphs, "parse_graph6"),
    ("graphs.parse_edgelist", rwj.graphs, "parse_edgelist"),
    ("graphs.generate", rwj.graphs, "generate"),
    ("graphs.is_connected", rwj.graphs, "is_connected"),
    ("graphs.adjacency", rwj.graphs.WeightedGraph, "adjacency"),
    ("kernel.eigh", np.linalg, "eigh"),
    ("kernel.eigvalsh", np.linalg, "eigvalsh"),
    ("spectral.build_transition", rwj.spectral, "build_transition"),
    ("spectral.spectrum", rwj.spectral, "spectrum"),
    ("spectral.alpha_bar", rwj.spectral, "alpha_bar"),
    ("spectral.track_branch", rwj.spectral, "track_branch"),
    ("spectral.dobrushin", rwj.spectral, "dobrushin"),
    ("perturb.classify_small_alpha", rwj.perturb, "classify_small_alpha"),
    ("perturb.finite_difference_derivative", rwj.perturb, "finite_difference_derivative"),
    ("perturb.degenerate_first_order", rwj.perturb, "degenerate_first_order"),
    ("perturb.sweep_confirms", rwj.perturb, "sweep_confirms"),
    ("conditions.full_report", rwj.conditions, "full_report"),
    ("search.analyze_graph", rwj.search, "analyze_graph"),
    ("search.two_node_closed_form", rwj.search, "two_node_closed_form"),
    ("search.scan_catalog", rwj.search, "scan_catalog"),
    ("search.scan_random", rwj.search, "scan_random"),
    ("search.two_node_grid_search", rwj.search, "two_node_grid_search"),
    ("cli.main", rwj.cli, "main"),
    ("cli.records_to_csv", rwj.cli, "records_to_csv"),
)

# Per-layer metrics of a traced run, in BENCHMARK.json order: name -> unit.
PER_LAYER = {
    "graphs.parse_graph6.self_s": "s",
    "graphs.adjacency.calls_per_graph": "calls/graph",
    "graphs.is_connected.calls_per_graph": "calls/graph",
    "graphs.generate.self_s": "s",
    "graphs.parse_edgelist.self_s": "s",
    "spectral.eigh.calls_per_graph": "calls/graph",
    "spectral.eigh.self_s": "s",
    "spectral.eigh.flops_computed": "flop",
    "spectral.spectrum.self_s": "s",
    "spectral.build_transition.calls_per_graph": "calls/graph",
    "spectral.alpha_bar.self_s": "s",
    "spectral.track_branch.self_s": "s",
    "spectral.dobrushin.self_s": "s",
    "spectral.dobrushin.peak_mb": "MB",
    "perturb.classify_small_alpha.self_s": "s",
    "perturb.finite_difference_derivative.self_s": "s",
    "perturb.degenerate_first_order.calls_per_graph": "calls/graph",
    "perturb.sweep_confirms.calls": "count",
    "perturb.sweep_confirms.self_s": "s",
    "perturb.sweep_confirms.confirmed_ratio": "ratio",
    "conditions.full_report.self_s": "s",
    "search.analyze_graph.self_s": "s",
    "search.scan_overhead_s": "s",
    "search.two_node_closed_form.self_s": "s",
    "cli.analyze.pipeline_runs": "count",
    "cli.records_to_csv.self_s": "s",
    "trace.graphs": "count",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics where more is better; lower is better for the rest.
PER_LAYER_HIGHER = {"perturb.sweep_confirms.confirmed_ratio", "trace.graphs"}

KERNEL = ("kernel.eigh", "kernel.eigvalsh")
SCANS = ("search.scan_catalog", "search.scan_random")


def eigensolver_flops(name: str, a) -> float:
    """Textbook flop count of a dense symmetric eigensolve, computed from the matrix size.

    Tridiagonal reduction plus implicit QR: about 9 n^3 with eigenvectors,
    4/3 n^3 for eigenvalues only; stacked input multiplies by the stack size.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    stack = int(np.prod(a.shape[:-2], dtype=np.int64))
    per = 9.0 * n ** 3 if name == "kernel.eigh" else 4.0 / 3.0 * n ** 3
    return stack * per


class Tracer:
    """Install with ``with Tracer() as t:``; spans and counters stay in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.graph_ids: list[str] = []
        self._graph_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_graph = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "rwj" or key.startswith("rwj.")]
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and not (module is owner and key == attr):
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def _intern(self, table: list[str], index: dict[str, int], key: str) -> int:
        idx = index.get(key)
        if idx is None:
            idx = index[key] = len(table)
            table.append(key)
        return idx

    def _graph_of(self, args, parent: int) -> int:
        if args:
            first = args[0]
            graph = getattr(first, "graph", first)
            if isinstance(graph, rwj.graphs.WeightedGraph):
                return self._intern(self.graph_ids, self._graph_index, graph.name or "<anonymous>")
        return self.span_graph[parent] if parent >= 0 else -1

    def _wrap(self, name: str, fn):
        name_id = self._intern(self.names, self._name_ids, name)
        tracer = self
        stack = self._stack
        on_return = None
        if name in KERNEL:
            def on_return(args, result):
                tracer.counters["eigh_flops"] += eigensolver_flops(name, args[0])
        elif name == "perturb.sweep_confirms":
            def on_return(args, result):
                tracer.counters["sweep_confirmed"] += bool(result)
        call = self._with_alloc_peak(fn) if name == "spectral.dobrushin" else fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_graph.append(tracer._graph_of(args, parent))
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _with_alloc_peak(self, fn):
        """Run ``fn`` under tracemalloc and keep the largest peak seen, in MB."""

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters["dobrushin_peak_mb"] = max(self.counters["dobrushin_peak_mb"], peak / 2**20)

        return measured

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "graph": np.frombuffer(self.span_graph, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span plus the name and graph-id tables as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), graph_ids=np.array(self.graph_ids), **self.arrays())

    def metrics(self, graphs: int, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Every per-layer metric in :data:`PER_LAYER`, from the recorded spans."""
        s = self.arrays()
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.bincount(s["parent"][has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - children
        slots = len(self.names)
        calls = np.bincount(s["name"], minlength=slots)
        self_by_name = np.bincount(s["name"], weights=self_time, minlength=slots)

        def n_calls(*names: str) -> int:
            return int(sum(calls[self._name_ids[n]] for n in names if n in self._name_ids))

        def self_s(*names: str) -> float:
            return float(sum(self_by_name[self._name_ids[n]] for n in names if n in self._name_ids))

        def per_graph(*names: str) -> float:
            return n_calls(*names) / graphs if graphs else 0.0

        # time inside scan spans not covered by their analyze_graph descendants
        covered = float(sum(duration[i] for i in self._under("search.analyze_graph", SCANS)))
        scan_wall = sum(float(duration[s["name"] == self._name_ids[n]].sum()) for n in SCANS if n in self._name_ids)
        cli_runs = n_calls("cli.main")
        pipeline = len(self._under("perturb.classify_small_alpha", ("cli.main",)))
        sweeps = n_calls("perturb.sweep_confirms")

        out = {
            "graphs.parse_graph6.self_s": self_s("graphs.parse_graph6"),
            "graphs.adjacency.calls_per_graph": per_graph("graphs.adjacency"),
            "graphs.is_connected.calls_per_graph": per_graph("graphs.is_connected"),
            "graphs.generate.self_s": self_s("graphs.generate"),
            "graphs.parse_edgelist.self_s": self_s("graphs.parse_edgelist"),
            "spectral.eigh.calls_per_graph": per_graph(*KERNEL),
            "spectral.eigh.self_s": self_s(*KERNEL),
            "spectral.eigh.flops_computed": float(self.counters["eigh_flops"]),
            "spectral.spectrum.self_s": self_s("spectral.spectrum"),
            "spectral.build_transition.calls_per_graph": per_graph("spectral.build_transition"),
            "spectral.alpha_bar.self_s": self_s("spectral.alpha_bar"),
            "spectral.track_branch.self_s": self_s("spectral.track_branch"),
            "spectral.dobrushin.self_s": self_s("spectral.dobrushin"),
            "spectral.dobrushin.peak_mb": float(self.counters["dobrushin_peak_mb"]),
            "perturb.classify_small_alpha.self_s": self_s("perturb.classify_small_alpha"),
            "perturb.finite_difference_derivative.self_s": self_s("perturb.finite_difference_derivative"),
            "perturb.degenerate_first_order.calls_per_graph": per_graph("perturb.degenerate_first_order"),
            "perturb.sweep_confirms.calls": float(sweeps),
            "perturb.sweep_confirms.self_s": self_s("perturb.sweep_confirms"),
            "perturb.sweep_confirms.confirmed_ratio": self.counters["sweep_confirmed"] / sweeps if sweeps else 0.0,
            "conditions.full_report.self_s": self_s("conditions.full_report"),
            "search.analyze_graph.self_s": self_s("search.analyze_graph"),
            "search.scan_overhead_s": scan_wall - covered,
            "search.two_node_closed_form.self_s": self_s("search.two_node_closed_form"),
            "cli.analyze.pipeline_runs": pipeline / cli_runs if cli_runs else 0.0,
            "cli.records_to_csv.self_s": self_s("cli.records_to_csv"),
            "trace.graphs": float(graphs),
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
        assert list(out) == list(PER_LAYER)
        return out

    def _ancestor(self, idx: int, wanted: set[int]) -> int:
        p = self.span_parent[idx]
        while p >= 0 and self.span_name[p] not in wanted:
            p = self.span_parent[p]
        return p

    def _under(self, child: str, ancestors) -> list[int]:
        """Spans named ``child`` that have an ancestor named in ``ancestors``."""
        if child not in self._name_ids:
            return []
        wanted = {self._name_ids[a] for a in ancestors if a in self._name_ids}
        cid = self._name_ids[child]
        return [i for i, n in enumerate(self.span_name) if n == cid and self._ancestor(i, wanted) >= 0]
