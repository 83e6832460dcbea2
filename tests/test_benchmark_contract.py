"""The library names and calls the benchmark in ``perfbench/`` relies on.

The benchmark's tracer wraps every function it lists by name, and a name the
library no longer defines only shows as a zero metric there. These tests read
``perfbench/`` and change nothing in it.
"""

from pathlib import Path

import pytest

import rwj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_traced_name_is_defined(tracing):
    missing = [name for name, owner, attr in tracing.TARGETS if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_two_node_grid_gate_call():
    # the two-node-grid gate rechecks each sweep-confirmed row with this call
    graph = rwj.WeightedGraph(2, ((0, 0, 4.0), (0, 1, 2.0), (1, 1, 1.0)))
    gap = [rwj.spectrum(rwj.build_transition(graph, a), "slem").gap for a in (1e-2, 0.0)]
    assert gap[0] < gap[1]
