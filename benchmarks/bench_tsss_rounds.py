"""TSSS rounds on a dense graph: what iterated deletion costs.

Top-t mining finds the MSCS, deletes its vertices and mines again.  On
an Orkut-density graph with four labels the super-graph collapses to a
few dozen super-vertices, so search is cheap and the rounds' own
bookkeeping is what remains.  Discrete rounds without polish read the
caller's graph minus the mined vertices: they neither copy the input
graph nor delete vertices from one.

This module times ``mine(top_t=5, prune="bounds")`` on that shape and
counts the ``Graph.copy`` and ``Graph.remove_vertex(s)`` calls one op
makes (asserted to be 0).  For scale it also times the graph surgery the
rounds avoid: one copy of the input plus deleting the four non-final
regions from it.  Results go to the ``tsss_rounds`` section of
``results/BENCH_search.json``.

Run with plain pytest (it times explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/bench_tsss_rounds.py -s
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

from repro.core.solver import mine
from repro.datasets.snaplike import snap_like_graph
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling

from conftest import emit_bench_json

PROBS = (0.4, 0.3, 0.2, 0.1)
PARAMS = dict(top_t=5, n_theta=20, prune="bounds", backend="auto")
REPEATS = 7
SURGERY = ("copy", "remove_vertex", "remove_vertices")


def _counting(calls, name):
    original = getattr(Graph, name)

    def counted(self, *args, **kwargs):
        calls[name] += 1
        return original(self, *args, **kwargs)

    return counted


def test_tsss_rounds_touch_no_adjacency():
    graph = snap_like_graph("com-Orkut", scale=400, seed=5)
    labeling = DiscreteLabeling.random(graph, PROBS, seed=6)

    calls = dict.fromkeys(SURGERY, 0)
    with mock.patch.multiple(
        Graph, **{name: _counting(calls, name) for name in SURGERY}
    ):
        result = mine(graph, labeling, **PARAMS)
    assert result.report.rounds == PARAMS["top_t"]
    assert calls == dict.fromkeys(SURGERY, 0), calls

    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        timed = mine(graph, labeling, **PARAMS)
        walls.append(time.perf_counter() - start)
        assert timed.subgraphs == result.subgraphs

    surgery = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        working = graph.copy()
        for region in result.subgraphs[:-1]:
            working.remove_vertices(region.vertices)
        surgery.append(time.perf_counter() - start)

    section = {
        "graph": {
            "shape": "snap_like_graph('com-Orkut', scale=400, seed=5)",
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "labels": len(PROBS),
        },
        "params": PARAMS,
        "rounds": result.report.rounds,
        "region_sizes": [region.size for region in result.subgraphs],
        "op_wall_s": {
            "median": statistics.median(walls),
            "min": min(walls),
            "repeats": REPEATS,
        },
        "graph_calls_per_op": calls,
        "avoided_surgery_s": {
            "median": statistics.median(surgery),
            "min": min(surgery),
        },
    }
    print(
        f"\ntopt5 op: median {section['op_wall_s']['median']:.3f} s over "
        f"{REPEATS}, {section['rounds']} rounds, graph calls {calls}; "
        f"avoided copy + deletion: median "
        f"{section['avoided_surgery_s']['median']:.3f} s\n"
    )
    emit_bench_json("tsss_rounds", section)
