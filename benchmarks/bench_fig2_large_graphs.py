"""Figure 2: running time for large real graphs (SNAP-like, scaled).

The paper runs the continuous pipeline (degree z-scores, Section 5.3) on
com-DBLP / com-Youtube / com-LiveJournal / com-Orkut and stacks the time
spent in super-graph conversion, reduction, and the naive search.  We
regenerate the figure's series at 1/200 node scale with matching average
degrees (DESIGN.md section 4 explains why the shape survives scaling).

Shape to match: the sparse graphs (DBLP-like, Youtube-like,
LiveJournal-like) spend most of their time reducing a large super-graph,
while the dense Orkut-like graph converts to a far smaller super-graph —
its conversion share grows and its reduction burden (relative to size)
shrinks, the crossover the paper highlights.
"""

from __future__ import annotations

import pytest

from repro.datasets.snaplike import SNAP_SPECS, degree_zscore_labeling, snap_like_graph
from repro.core.solver import mine

from conftest import emit

SCALE = 200
N_THETA = 20

_rows: list[list] = []


def run_pipeline(name: str):
    graph = snap_like_graph(name, scale=SCALE, seed=42)
    labeling = degree_zscore_labeling(graph)
    result = mine(graph, labeling, top_t=1, n_theta=N_THETA)
    return graph, result


@pytest.mark.parametrize("name", list(SNAP_SPECS))
def test_fig2_pipeline_per_graph(benchmark, name):
    graph, result = benchmark.pedantic(
        run_pipeline, args=(name,), rounds=1, iterations=1
    )
    report = result.report
    _rows.append(
        [
            name,
            graph.num_vertices,
            graph.num_edges,
            report.supergraph_vertices,
            report.reduced_vertices,
            round(report.construction_seconds, 3),
            round(report.reduction_seconds, 3),
            round(report.search_seconds, 3),
            round(report.total_seconds, 3),
        ]
    )
    assert result.subgraphs


def test_fig2_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_rows) == len(SNAP_SPECS)
    emit(
        "fig2_large_graphs",
        f"Figure 2 (analogue): pipeline stage times, SNAP-like graphs at 1/{SCALE} scale",
        [
            "Graph",
            "Nodes",
            "Edges",
            "n_s",
            "reduced",
            "convert (s)",
            "reduce (s)",
            "search (s)",
            "total (s)",
        ],
        _rows,
    )
    by_name = {row[0]: row for row in _rows}
    orkut = by_name["com-Orkut"]
    dblp = by_name["com-DBLP"]
    # The dense Orkut-like graph produces a relatively far smaller
    # super-graph than the sparse DBLP-like graph.
    assert orkut[3] / orkut[1] < 0.25 * (dblp[3] / dblp[1])

