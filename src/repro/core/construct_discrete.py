"""Algorithm 1: super-graph construction for discrete labels.

Delete the non-contracting edges (those joining differently-labeled
vertices), take the connected components of what remains as super-vertices,
and connect two super-vertices iff an original edge crosses between them.
Runs in O(n + m); Conclusion 2 guarantees the MSCS/TSSS survive the
transformation whenever the optima are bi-connected.

The construction never makes a per-edge Python call.  Vertices are bucketed
by label once; each block grows breadth-first by C-level set algebra
(``adj[u] & label_class``), and its super-edges come from its boundary set
(the union of its members' neighbourhoods minus the block).

Each block lists its members in graph insertion order, whatever order the
BFS met them in.  A block's member set therefore depends only on which
vertices it holds and on the graph's vertex order, never on adjacency set
layout.  So a :class:`BlockPartition` kept across TSSS rounds reproduces a
fresh build exactly, down to the iteration order of each super-vertex's
members.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Mapping, Sequence, Set

from repro.core.supergraph import SuperGraph
from repro.graph.contraction import validate_partition
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling
from repro.stats.chi_square import CountVector
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric

__all__ = ["BlockPartition", "build_discrete_supergraph"]


class BlockPartition:
    """Algorithm 1's blocks of one graph, in first-seen order.

    Block ``i`` becomes super-vertex ``i``: ``blocks[i]`` lists its members
    in graph insertion order, ``labels[i]`` is their shared label, and
    ``neighbours[i]`` holds the indices of the blocks it has super-edges
    to.  The solver keeps one across TSSS rounds.  Removing a union of
    whole blocks (:meth:`without`) yields the partition of the smaller
    graph, so the next round's super-graph comes from :meth:`supergraph`
    without re-running Algorithm 1.
    """

    __slots__ = ("blocks", "labels", "neighbours", "_membership")

    def __init__(
        self,
        blocks: Sequence[tuple[Hashable, ...]],
        labels: Sequence[int],
        neighbours: Sequence[frozenset[int]],
    ) -> None:
        self.blocks = blocks
        self.labels = labels
        self.neighbours = neighbours
        self._membership: dict[Hashable, int] = {}
        for index, block in enumerate(blocks):
            for v in block:
                self._membership[v] = index

    @classmethod
    def of(cls, supergraph: SuperGraph, graph: Graph) -> "BlockPartition":
        """The partition behind a fresh, unreduced Algorithm-1 super-graph.

        ``supergraph`` must come straight from
        :func:`build_discrete_supergraph` on ``graph``.  Reduction merges
        super-vertices in place, so take the snapshot before reducing.
        """
        membership: dict[Hashable, int] = {}
        labels = []
        for sv in supergraph.super_vertices():
            for v in sv.members:
                membership[v] = sv.id
            labels.append(next(i for i, c in enumerate(sv.payload.counts) if c))
        neighbours = [
            frozenset(supergraph.topology.neighbors(i))
            for i in range(len(labels))
        ]
        return cls(_in_graph_order(graph, membership, len(labels)), labels,
                   neighbours)

    def without(self, vertices: Collection[Hashable]) -> "BlockPartition | None":
        """The partition after deleting ``vertices``, or None if it is unknown.

        ``vertices`` is a set of vertices of the partitioned graph.  When it
        is a union of whole blocks, the Algorithm-1 partition of the
        remaining graph is the surviving blocks, in their old order,
        renumbered compactly, with the super-edges among them.  No
        contracting edge joins two blocks, so no surviving block could
        have grown or split.  Any other vertex set returns None: the
        caller must rebuild.
        """
        removed = {self._membership[v] for v in vertices}
        if sum(len(self.blocks[i]) for i in removed) != len(vertices):
            return None
        keep = [i for i in range(len(self.blocks)) if i not in removed]
        renumber = {old: new for new, old in enumerate(keep)}
        return BlockPartition(
            [self.blocks[i] for i in keep],
            [self.labels[i] for i in keep],
            [
                frozenset(renumber[j] for j in self.neighbours[i] if j in renumber)
                for i in keep
            ],
        )

    def supergraph(self, graph: Graph, labeling: DiscreteLabeling) -> SuperGraph:
        """The Algorithm-1 super-graph of ``graph``, from these blocks.

        ``graph`` must have the vertex set this partition describes, and
        only that is read: ``vertices()``, ``has_vertex()`` and
        ``num_vertices``.  The solver passes the survivors of a TSSS
        round, the caller's graph minus the mined vertices, without
        building that subgraph.  The cover and partition checks of a
        fresh build still run against those vertices, and the result
        equals :func:`build_discrete_supergraph` of the subgraph they
        induce.  Telemetry reports the round as a construction that
        scanned no edges.
        """
        labeling.validate_covers(graph)
        supergraph = _assemble(
            graph, labeling, self.blocks, self.labels, self.neighbours
        )
        _publish(supergraph, self.blocks, edges_scanned=0, edges_contracted=0)
        return supergraph


def build_discrete_supergraph(
    graph: Graph, labeling: DiscreteLabeling
) -> SuperGraph:
    """Build the discrete super-graph of ``graph`` under ``labeling``.

    The components of the contracting-edge subgraph (same-label neighbours)
    become super-vertices, each carrying the count vector of its members —
    which for a monochromatic component is simply ``size`` in the shared
    label's slot.  Super-vertex ids follow the graph order of each
    component's first vertex.
    """
    labeling.validate_covers(graph)
    adj = graph.adjacency_view()
    label_of = labeling.as_dict()
    classes: dict[int, set[Hashable]] = {}
    for v in adj:
        classes.setdefault(label_of[v], set()).add(v)

    # Lines 1-3 of Algorithm 1: components over contracting edges only,
    # grown a BFS level at a time.  All of u's same-label neighbours lie in
    # u's block, so the intersection sizes count every contracting edge
    # twice.
    membership: dict[Hashable, int] = {}
    member_sets: list[set[Hashable]] = []
    labels: list[int] = []
    endpoints = 0
    for start in adj:
        if start in membership:
            continue
        label = label_of[start]
        same_label = classes[label]
        members = {start}
        frontier: Set[Hashable] = members
        while frontier:
            reached: set[Hashable] = set()
            for u in frontier:
                contracting = adj[u] & same_label
                endpoints += len(contracting)
                reached |= contracting
            frontier = reached - members
            members |= frontier
        index = len(labels)
        for v in members:
            membership[v] = index
        member_sets.append(members)
        labels.append(label)

    # Lines 4-9: a super-edge wherever an original edge leaves a block —
    # necessarily a non-contracting one, into another block.
    neighbours = [
        frozenset(map(membership.__getitem__, set().union(
            *map(adj.__getitem__, members)
        ) - members))
        for members in member_sets
    ]
    blocks = _in_graph_order(graph, membership, len(labels))
    supergraph = _assemble(graph, labeling, blocks, labels, neighbours)
    _publish(
        supergraph, blocks,
        edges_scanned=graph.num_edges, edges_contracted=endpoints // 2,
    )
    return supergraph


def _in_graph_order(
    graph: Graph, membership: Mapping[Hashable, int], num_blocks: int
) -> list[tuple[Hashable, ...]]:
    """Each block's members, listed in graph insertion order."""
    buckets: list[list[Hashable]] = [[] for _ in range(num_blocks)]
    for v in graph.vertices():
        buckets[membership[v]].append(v)
    return [tuple(bucket) for bucket in buckets]


def _assemble(
    graph: Graph,
    labeling: DiscreteLabeling,
    blocks: Sequence[tuple[Hashable, ...]],
    labels: Sequence[int],
    neighbours: Sequence[frozenset[int]],
) -> SuperGraph:
    """Block ``i`` as super-vertex ``i``, plus the super-edges."""
    validate_partition(graph, blocks)
    empty = CountVector(labeling.probabilities)
    payloads = []
    for block, label in zip(blocks, labels):
        payload = empty.copy()
        # All members share one label by construction of the components.
        payload.add(label, len(block))
        payloads.append(payload)
    return SuperGraph.from_blocks(
        range(len(blocks)), [set(block) for block in blocks], payloads,
        neighbours,
    )


def _publish(
    supergraph: SuperGraph,
    blocks: Sequence[tuple[Hashable, ...]],
    *,
    edges_scanned: int,
    edges_contracted: int,
) -> None:
    if not _TELEMETRY.enabled:
        return
    metrics = _TELEMETRY.metrics
    metrics.count(_metric.CONSTRUCT_EDGES_SCANNED, edges_scanned)
    metrics.count(_metric.CONSTRUCT_EDGES_CONTRACTED, edges_contracted)
    metrics.set_gauge(
        _metric.CONSTRUCT_SUPER_VERTICES, supergraph.num_super_vertices
    )
    metrics.set_gauge(_metric.CONSTRUCT_SUPER_EDGES, supergraph.num_super_edges)
    for block in blocks:
        metrics.observe(_metric.CONSTRUCT_SUPER_VERTEX_SIZE, len(block))
