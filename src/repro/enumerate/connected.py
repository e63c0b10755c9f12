"""Enumeration of all connected induced subgraphs (the naïve algorithm).

Every connected vertex set is generated exactly once via the classic
*extension / forbidden-set* recursion: sets are rooted at their first vertex
in index order; at each step one candidate from the extension frontier is
either included (recursing with an enlarged frontier) or permanently
forbidden along the remaining branches of that level.

The number of connected subgraphs is exponential in the worst case — which
is precisely the paper's motivation for the super-graph reduction — so all
entry points accept a ``limit`` that aborts with
:class:`~repro.exceptions.EnumerationLimitError` instead of silently
churning forever.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

from repro.exceptions import EnumerationLimitError
from repro.enumerate.bitset import BitsetGraph
from repro.graph.graph import Graph
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric

__all__ = [
    "connected_subgraph_masks",
    "count_connected_subgraphs",
    "enumerate_connected_subsets",
    "reference_connected_subsets",
]

DEFAULT_LIMIT = 50_000_000
"""Safety budget on enumerated sets (~ a few minutes of CPU)."""


def connected_subgraph_masks(
    adjacency: Sequence[int],
    *,
    limit: int | None = DEFAULT_LIMIT,
) -> Iterator[int]:
    """Yield every connected vertex set of the graph as a bitmask.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` is the neighbour bitmask of vertex ``i``.
    limit:
        Maximum number of sets to emit before raising
        :class:`EnumerationLimitError`; ``None`` disables the check.
    """
    n = len(adjacency)
    emitted = 0

    def check_limit() -> None:
        if limit is not None and emitted > limit:
            raise EnumerationLimitError(limit)

    # Iterative stack avoids Python's recursion limit for larger graphs.
    # Each frame is (subset_mask, extension_mask, forbidden_mask); the
    # frame enumerates all valid supersets of subset_mask whose extra
    # vertices come from the extension frontier and avoid forbidden_mask.
    # The telemetry flush lives in the finally block so a closed or aborted
    # generator still reports how far it got, with zero per-set overhead.
    try:
        for root in range(n):
            root_bit = 1 << root
            root_forbidden = root_bit - 1  # all vertices with smaller index
            stack: list[tuple[int, int, int]] = [
                (root_bit, adjacency[root] & ~root_forbidden & ~root_bit, root_forbidden)
            ]
            emitted += 1
            check_limit()
            yield root_bit
            while stack:
                subset, extension, forbidden = stack.pop()
                if not extension:
                    continue
                # Branch on the lowest candidate u: one child includes u, the
                # sibling continuation forbids it.
                u_bit = extension & -extension
                u = u_bit.bit_length() - 1
                rest = extension ^ u_bit
                # Sibling: same subset, remaining candidates, u forbidden.
                stack.append((subset, rest, forbidden | u_bit))
                # Child: subset + u; frontier gains u's unseen neighbours.
                child_subset = subset | u_bit
                child_ext = rest | (
                    adjacency[u] & ~(child_subset | forbidden | rest)
                )
                emitted += 1
                check_limit()
                yield child_subset
                stack.append((child_subset, child_ext, forbidden))
    finally:
        if _TELEMETRY.enabled and emitted:
            _TELEMETRY.metrics.count(_metric.ENUMERATE_SETS_EMITTED, emitted)


def enumerate_connected_subsets(
    graph: Graph,
    *,
    limit: int | None = DEFAULT_LIMIT,
) -> Iterator[frozenset[Hashable]]:
    """Yield every connected vertex subset of ``graph`` as a frozenset."""
    bitset = BitsetGraph(graph)
    for mask in connected_subgraph_masks(bitset.adjacency, limit=limit):
        yield bitset.vertex_set(mask)


def count_connected_subgraphs(
    graph: Graph,
    *,
    limit: int | None = DEFAULT_LIMIT,
) -> int:
    """The number of connected induced subgraphs of ``graph``.

    Exponential in general (the quantity the paper's reduction keeps
    manageable); intended for small graphs and test oracles.
    """
    bitset = BitsetGraph(graph)
    total = 0
    for _mask in connected_subgraph_masks(bitset.adjacency, limit=limit):
        total += 1
    return total


def reference_connected_subsets(graph: Graph) -> set[frozenset[Hashable]]:
    """Brute-force oracle: check all 2^n subsets for connectivity.

    Only usable for tiny graphs; exists so tests can validate the
    extension-based enumerator against an independent implementation.
    """
    from itertools import combinations

    from repro.graph.components import is_connected_subset

    vertices = list(graph.vertices())
    if len(vertices) > 20:
        raise ValueError(
            f"brute-force oracle limited to 20 vertices, got {len(vertices)}"
        )
    result: set[frozenset[Hashable]] = set()
    for size in range(1, len(vertices) + 1):
        for combo in combinations(vertices, size):
            if is_connected_subset(graph, combo):
                result.add(frozenset(combo))
    return result
