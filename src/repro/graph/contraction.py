"""Partition checks for edge contraction.

The paper's central device is merging vertices into *super-vertices* and
keeping a super-edge wherever any original edge crossed between two groups.
This module checks that a vertex partition is a valid set of super-vertices;
the contraction itself and the statistic bookkeeping live in
:mod:`repro.core.supergraph`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.graph import Graph

__all__ = ["validate_partition"]


def validate_partition(
    graph: Graph, partition: Iterable[Iterable[Hashable]]
) -> list[frozenset[Hashable]]:
    """Check that ``partition`` is a disjoint, exhaustive cover of the vertices.

    Returns the partition normalised to a list of frozensets.  The paper
    requires super-vertices to be "mutually exclusive and exhaustive"
    (Section 4.3); violating either property is a programming error that we
    surface loudly rather than silently mis-merging statistics.
    """
    blocks = [frozenset(block) for block in partition]
    seen: set[Hashable] = set()
    total = 0
    for block in blocks:
        if not block:
            raise GraphError("partition blocks must be non-empty")
        for v in block:
            if not graph.has_vertex(v):
                raise VertexNotFoundError(v)
        if seen & block:
            overlap = sorted(map(repr, seen & block))
            raise GraphError(f"partition blocks overlap on {{{', '.join(overlap)}}}")
        seen |= block
        total += len(block)
    if total != graph.num_vertices:
        raise GraphError(
            f"partition covers {total} vertices but the graph has "
            f"{graph.num_vertices}; super-vertices must be exhaustive"
        )
    return blocks
