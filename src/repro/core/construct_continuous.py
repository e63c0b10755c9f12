"""Algorithm 2: super-graph construction for continuous labels.

Every vertex starts as its own super-vertex; edges are processed in order
and contracted whenever the merged chi-square exceeds both endpoints'
(Section 4.3.2).  The result is order-dependent — the paper discusses this
explicitly — so the edge order is a first-class parameter here, and the
ablation benchmark measures the spread across random orders.

The scan runs over plain per-root arrays (raw sums, size, cached
chi-square, member set) and an owner map from vertex to root, so an edge
costs two lookups and one merged-statistic evaluation; the
:class:`~repro.core.supergraph.SuperGraph` is assembled once at the end,
with super-edges taken from each block's boundary set.  Merges follow
:meth:`SuperGraph.merge <repro.core.supergraph.SuperGraph.merge>` exactly:
the larger root absorbs the smaller, the edge's first endpoint wins ties,
and the survivor keeps its id, so the live ids are the graph-order indices
of the singletons the blocks grew from.  Float addition is commutative and
the merge tree is the same, so every raw sum, statistic and member set is
bit-identical to contracting a ``SuperGraph`` merge by merge.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from math import fsum
from operator import add, mul
from typing import Literal, get_args

from repro.exceptions import GraphError
from repro.graph.generators import resolve_rng
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.core.supergraph import SuperGraph
from repro.stats.zscore import RegionScore
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric

__all__ = ["EDGE_ORDERS", "build_continuous_supergraph"]

EdgeOrder = Literal["input", "shuffled", "by_chi_square"]
EDGE_ORDERS: tuple[str, ...] = get_args(EdgeOrder)
"""Valid values of the ``edge_order`` argument."""


def _ordered_edges(
    graph: Graph,
    order: EdgeOrder,
    labeling: ContinuousLabeling,
    seed: int | random.Random | None,
) -> list[tuple[Hashable, Hashable]]:
    edges = graph.edge_list()
    if order == "input":
        return edges
    if order == "shuffled":
        rng = resolve_rng(seed)
        rng.shuffle(edges)
        return edges
    if order == "by_chi_square":
        # Process edges with the largest combined endpoint statistic first,
        # a deterministic heuristic that favours strong merges early.
        def key(edge: tuple[Hashable, Hashable]) -> float:
            u, v = edge
            return -(labeling.vertex_chi_square(u) + labeling.vertex_chi_square(v))

        return sorted(edges, key=key)
    raise GraphError(f"unknown edge order {order!r}")


def build_continuous_supergraph(
    graph: Graph,
    labeling: ContinuousLabeling,
    *,
    edge_order: EdgeOrder = "input",
    seed: int | random.Random | None = None,
) -> SuperGraph:
    """Build the continuous super-graph of ``graph`` under ``labeling``.

    Follows Algorithm 2: initialise one super-vertex per original vertex
    (lines 1-5), then scan edges (lines 6-14) merging the endpoints'
    current super-vertices whenever the combined region's chi-square beats
    both.  An edge whose endpoints were already merged by earlier
    contractions is skipped.

    Parameters
    ----------
    edge_order:
        ``"input"`` (paper default, graph edge order), ``"shuffled"``
        (random order controlled by ``seed``), or ``"by_chi_square"``
        (largest endpoint statistics first).
    """
    labeling.validate_covers(graph)
    adj = graph.adjacency_view()
    # Lines 1-5: root i is the singleton of the i-th vertex in graph order.
    owner: dict[Hashable, int] = {}
    members: list[set[Hashable] | None] = []
    sums: list[tuple[float, ...]] = []
    sizes: list[int] = []
    chis: list[float] = []
    for index, v in enumerate(adj):
        owner[v] = index
        members.append({v})
        z = labeling.z_score_of(v)
        sums.append(z)
        sizes.append(1)
        chis.append(fsum(map(mul, z, z)))

    # Lines 6-14, with the arithmetic of is_contracting_continuous.
    edges = _ordered_edges(graph, edge_order, labeling, seed)
    absorbed_sizes: list[int] = []
    for u, v in edges:
        ru = owner[u]
        rv = owner[v]
        if ru == rv:
            continue
        merged = tuple(map(add, sums[ru], sums[rv]))
        size = sizes[ru] + sizes[rv]
        chi = fsum(map(mul, merged, merged)) / size
        if chi > max(chis[ru], chis[rv]):
            base, gone = (ru, rv) if sizes[ru] >= sizes[rv] else (rv, ru)
            absorbed = members[gone]
            members[base].update(absorbed)
            for w in absorbed:
                owner[w] = base
            members[gone] = None
            sums[base] = merged
            sizes[base] = size
            chis[base] = chi
            absorbed_sizes.append(len(absorbed))

    # Super-edges: every original edge leaving a block, mapped to the block
    # at its other end.
    ids = [i for i, block in enumerate(members) if block is not None]
    blocks = [members[i] for i in ids]
    neighbours = [
        set(map(owner.__getitem__, set().union(*map(adj.__getitem__, block))
                - block))
        for block in blocks
    ]
    supergraph = SuperGraph.from_blocks(
        ids,
        blocks,
        [RegionScore(sums[i], sizes[i]) for i in ids],
        neighbours,
        next_id=len(members),
    )
    if _TELEMETRY.enabled:
        metrics = _TELEMETRY.metrics
        # What SuperGraph.merge reports per contraction; like it, leave the
        # counter unregistered when nothing merged.
        if absorbed_sizes:
            metrics.count(_metric.SUPERGRAPH_MERGES, len(absorbed_sizes))
        for absorbed_size in absorbed_sizes:
            metrics.observe(_metric.SUPERGRAPH_MERGE_ABSORBED_SIZE, absorbed_size)
        metrics.count(_metric.CONSTRUCT_EDGES_SCANNED, len(edges))
        metrics.count(_metric.CONSTRUCT_EDGES_CONTRACTED, len(absorbed_sizes))
        metrics.set_gauge(
            _metric.CONSTRUCT_SUPER_VERTICES, supergraph.num_super_vertices
        )
        metrics.set_gauge(_metric.CONSTRUCT_SUPER_EDGES, supergraph.num_super_edges)
        for block in blocks:
            metrics.observe(_metric.CONSTRUCT_SUPER_VERTEX_SIZE, len(block))
    return supergraph
