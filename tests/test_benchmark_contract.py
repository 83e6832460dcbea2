"""The library names and calls the benchmark in ``perfbench/`` relies on.

The benchmark's tracer wraps every function it lists by name, and a name the
library no longer defines only shows as a zero metric there. These tests read
``perfbench/`` and change nothing in it.
"""

from pathlib import Path

import pytest

import rwj
import rwj.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    return bench


def test_every_traced_name_is_defined(tracing):
    missing = [name for name, owner, attr in tracing.TARGETS if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_two_node_grid_gate_call():
    # the two-node-grid gate rechecks each sweep-confirmed row with this call
    graph = rwj.WeightedGraph(2, ((0, 0, 4.0), (0, 1, 2.0), (1, 1, 1.0)))
    gap = [rwj.spectrum(rwj.build_transition(graph, a), "slem").gap for a in (1e-2, 0.0)]
    assert gap[0] < gap[1]


def test_analyze_large_gate_reads_the_lambda_star_line(bench, tmp_path, capsys):
    # the analyze-large gate finds lambda_star in the text of `rwj analyze
    # --epsilon 0.01 --csv` and checks it against its own eigvalsh; an ER
    # graph on 30 vertices stands in for the one on 400
    graph = rwj.generate("er", seed=0, n=30, p=0.3)
    path = tmp_path / "er30.el"
    path.write_text(rwj.write_edgelist(graph, comments=[graph.name]))
    argv = ["analyze", "--input", str(path), "--format", "edgelist", "--epsilon", "0.01", "--csv",
            str(tmp_path / "row.csv")]
    assert rwj.cli.main(argv) == 0
    match = bench._LAMBDA_LINE.search(capsys.readouterr().out)
    assert match is not None
    assert abs(float(match.group(1)) - bench.reference_lambda_star(graph)) <= 1e-9
