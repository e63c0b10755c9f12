"""Algorithm 5: reducing the super-graph below a size threshold.

For sparse inputs the super-graph can still be too large for exhaustive
search.  The paper repeatedly contracts the super-edge whose endpoints have
the *minimum sum of chi-square values* — by Lemma 8 the merged statistic is
bounded by that sum, so low-statistic merges cannot destroy much of the
optimum.  The minimum edge is maintained with a lazy-deletion binary heap,
giving O(log m_s) amortised work per contraction as the paper's complexity
analysis (Section 4.6) assumes.
"""

from __future__ import annotations

import heapq

from repro.exceptions import GraphError
from repro.core.supergraph import SuperGraph
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric

__all__ = ["COMPACTION_FACTOR", "reduce_supergraph"]

COMPACTION_FACTOR = 2
"""Compact the lazy-deletion heap once stale entries exceed twice the live
edges — bounding heap size at 3x the live edge count without measurably
changing the amortised O(log m_s) pop cost.

Compaction never changes which edge is contracted next: priorities are
recomputed on pop regardless, and the rebuilt heap holds exactly the live
edges."""


def reduce_supergraph(
    supergraph: SuperGraph,
    n_theta: int,
    *,
    use_heap: bool = True,
) -> int:
    """Contract minimum chi-square-sum edges until ``n_theta`` vertices remain.

    Mutates ``supergraph`` in place and returns the number of contractions
    performed.  Contraction stops early if the super-graph runs out of
    edges (vertices in different connected components can never be merged —
    the paper only contracts along edges).

    Parameters
    ----------
    n_theta:
        Target number of super-vertices; the accuracy/time trade-off knob
        of the paper (Section 4.5).
    use_heap:
        When False, each round scans all edges for the minimum instead of
        using the heap — the quadratic baseline kept for the ablation
        benchmark.  The heap is compacted as :data:`COMPACTION_FACTOR`
        describes.
    """
    if n_theta < 1:
        raise GraphError(f"n_theta must be >= 1, got {n_theta}")
    vertices_before = supergraph.num_super_vertices
    if use_heap:
        contractions, stale, reprioritised, compactions = _reduce_with_heap(
            supergraph, n_theta
        )
    else:
        contractions, stale, reprioritised, compactions = _reduce_with_scan(
            supergraph, n_theta
        )
    if _TELEMETRY.enabled:
        metrics = _TELEMETRY.metrics
        metrics.set_gauge(_metric.REDUCE_VERTICES_BEFORE, vertices_before)
        metrics.set_gauge(
            _metric.REDUCE_VERTICES_AFTER, supergraph.num_super_vertices
        )
        metrics.count(_metric.REDUCE_EDGES_CONTRACTED, contractions)
        metrics.count(_metric.REDUCE_HEAP_STALE, stale)
        metrics.count(_metric.REDUCE_HEAP_REPRIORITISED, reprioritised)
        metrics.count(_metric.REDUCE_HEAP_COMPACTIONS, compactions)
    return contractions


def _edge_priority(supergraph: SuperGraph, u_id: int, v_id: int) -> float:
    return (
        supergraph.super_vertex(u_id).chi_square
        + supergraph.super_vertex(v_id).chi_square
    )


def _reduce_with_heap(
    supergraph: SuperGraph, n_theta: int
) -> tuple[int, int, int, int]:
    # Heap entries are (priority, u_id, v_id).  Entries go stale two ways:
    # an endpoint was absorbed away (vertex/edge check below), or an
    # endpoint survived a merge with a *changed* statistic — those are
    # detected by recomputing the priority on pop and re-pushing the entry
    # with its current value (classic lazy update; acting only when the
    # stored priority matches the live one keeps the extraction exact).
    heap: list[tuple[float, int, int]] = [
        (_edge_priority(supergraph, u, v), u, v)
        for u, v in supergraph.topology.edges()
    ]
    heapq.heapify(heap)
    contractions = 0
    stale = 0
    reprioritised = 0
    compactions = 0
    while supergraph.num_super_vertices > n_theta and heap:
        live = supergraph.num_super_edges
        if len(heap) - live > COMPACTION_FACTOR * live:
            # Rebuild from the live topology: drops every dead entry at
            # once and refreshes drifted priorities, so the dominant
            # stale-pop churn on sparse graphs disappears.
            heap = [
                (_edge_priority(supergraph, u, v), u, v)
                for u, v in supergraph.topology.edges()
            ]
            heapq.heapify(heap)
            compactions += 1
            if not heap:
                break
        priority, u_id, v_id = heapq.heappop(heap)
        if not supergraph.topology.has_vertex(u_id):
            stale += 1
            continue
        if not supergraph.topology.has_vertex(v_id):
            stale += 1
            continue
        if not supergraph.topology.has_edge(u_id, v_id):
            stale += 1
            continue
        current = _edge_priority(supergraph, u_id, v_id)
        if current != priority:
            heapq.heappush(heap, (current, u_id, v_id))
            reprioritised += 1
            continue
        merged = supergraph.merge(u_id, v_id)
        contractions += 1
        for w in supergraph.topology.neighbors(merged.id):
            heapq.heappush(
                heap, (_edge_priority(supergraph, merged.id, w), merged.id, w)
            )
    return contractions, stale, reprioritised, compactions


def _reduce_with_scan(
    supergraph: SuperGraph, n_theta: int
) -> tuple[int, int, int, int]:
    contractions = 0
    while supergraph.num_super_vertices > n_theta:
        best: tuple[float, int, int] | None = None
        for u, v in supergraph.topology.edges():
            priority = _edge_priority(supergraph, u, v)
            candidate = (priority, u, v)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            break
        supergraph.merge(best[1], best[2])
        contractions += 1
    return contractions, 0, 0, 0
