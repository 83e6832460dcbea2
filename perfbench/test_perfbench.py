"""Self-tests of the benchmark on tiny inputs: python3 -m pytest perfbench -q

They run each workload on a small input (the n = 5 catalog, a 3x3x3 two-node
grid, an n = 30 analyze), check that every named metric appears with its unit,
that the gates fire on a truncated catalog, and that BENCHMARK.json matches the
benchmark's own tables.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

CATALOG5 = ROOT / "data" / "graph5c.g6"


def catalog5(**kwargs) -> bench.Catalog8:
    data = CATALOG5.read_bytes()
    return bench.Catalog8(path=CATALOG5, count=21, sha256=hashlib.sha256(data).hexdigest(),
                          stripes=4, trace_stripes=2, **kwargs)


def tiny_workloads(tmp_path):
    return [
        catalog5(),
        bench.ErScan(n=12, p=0.5, per_call=3, trace_calls=2),
        bench.AnalyzeLarge(n=30, p=0.3, trace_calls=2, work=tmp_path),
        bench.TwoNodeGrid(a11=[0.5, 2.0, 4.0], a12=[1.0, 1.5, 2.0], a22=[0.25, 1.0, 4.0], stripes=2),
    ]


@pytest.mark.parametrize("index", range(4))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, index):
    workload = tiny_workloads(tmp_path)[index]
    result = bench.run_workload(workload, seed=3, seconds=0.2, trace=False)
    assert result["correct"], result["gate"]["messages"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        k: unit for k, (unit, _, _) in bench.END_TO_END.items()}
    for m in result["metrics"].values():
        assert m["value"] > 0 and m["samples"] >= 1
    assert result["extra"]["failed_frac"]["value"] == 0.0


@pytest.mark.parametrize("index", range(4))
def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(tmp_path, index):
    runs = [bench.run_workload(tiny_workloads(tmp_path)[index], seed=seed, seconds=0.2, trace=True)
            for seed in (1, 2)]
    for result in runs:
        assert result["correct"], result["gate"]["messages"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
        assert result["extra"]["trace_missing"] == []
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "calls/graph", "flop")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["trace.graphs"] > 0


def test_traced_analyze_counts_pipeline_runs(tmp_path):
    result = bench.run_workload(tiny_workloads(tmp_path)[2], seed=1, seconds=0.2, trace=True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["cli.analyze.pipeline_runs"] == 2  # analyze --csv classifies twice
    assert metrics["spectral.dobrushin.peak_mb"] > 0
    assert metrics["graphs.parse_edgelist.self_s"] > 0


def test_tracer_restores_every_binding():
    import rwj
    import numpy as np

    before = (rwj.spectrum, rwj.perturb.spectrum, rwj.search.spectrum, rwj.spectral.spectrum,
              rwj.WeightedGraph.adjacency, np.linalg.eigh)
    with bench.Tracer() as tracer:
        assert rwj.perturb.spectrum is rwj.spectral.spectrum is rwj.spectrum
        assert rwj.perturb.spectrum is not before[0]
        rwj.scan_catalog([b"D~{"], "slem")
    after = (rwj.spectrum, rwj.perturb.spectrum, rwj.search.spectrum, rwj.spectral.spectrum,
             rwj.WeightedGraph.adjacency, np.linalg.eigh)
    assert before == after
    assert tracer.metrics(1, 0.0, 0.0)["graphs.adjacency.calls_per_graph"] > 0


def test_catalog_refuses_wrong_count_or_checksum(tmp_path):
    truncated = tmp_path / "graph5c.g6"
    truncated.write_bytes(b"\n".join(CATALOG5.read_bytes().splitlines()[:-1]) + b"\n")
    with pytest.raises(bench.InputError):
        bench.Catalog8(path=truncated, count=21, sha256=catalog5().sha256).setup(0)
    with pytest.raises(bench.InputError):
        bench.Catalog8(path=CATALOG5, count=21, sha256="0" * 64).setup(0)


def test_catalog_gate_fires_when_the_scan_misses_graphs():
    workload = catalog5()
    workload.setup(0)
    workload.stripes[1] = workload.stripes[1][:-1]  # one graph never reaches scan_catalog
    workload.complete()
    gate = workload.gate(complete=True)
    assert gate["failed"] == 2  # one missing classification per convention
    assert any("expected 21" in m for m in gate["messages"])


def test_catalog_gate_counts_a_raising_call_as_failures():
    workload = catalog5()
    workload.setup(0)
    workload.stripes[0] = workload.stripes[0] + [None]  # scan_catalog raises TypeError
    workload.complete()
    gate = workload.gate(complete=True)
    assert gate["failed"] == 2 * len(workload.stripes[0])
    assert gate["attempted"] == 2 * 22


def test_analyze_gate_fires_on_a_wrong_lambda(tmp_path):
    workload = bench.AnalyzeLarge(n=30, p=0.3, work=tmp_path)
    workload.setup(0)
    workload.calls().__next__()()
    path, code, printed = workload.outputs[0]
    workload.outputs.append((path, code, repr(float(printed) + 1e-6)))
    gate = workload.gate(complete=True)
    assert gate["attempted"] == 2 and gate["failed"] == 1


def test_high_percentile_needs_ten_samples_beyond():
    assert bench.high_percentile([1.0] * 20) is None
    q, _ = bench.high_percentile([float(i) for i in range(100)])
    assert q == 90


def test_benchmark_json_matches_the_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == bench.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])
    assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])
