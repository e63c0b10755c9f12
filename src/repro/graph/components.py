"""Connectivity primitives: BFS, connected components, connectivity tests.

The TSSS iterative-deletion loop and local search need connectivity checks
on vertex subsets.  Everything here is iterative (no recursion) so
million-vertex graphs do not hit Python's stack limit.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator

from repro.exceptions import VertexNotFoundError
from repro.graph.graph import Graph

__all__ = [
    "bfs_order",
    "connected_component",
    "connected_components",
    "is_connected",
    "is_connected_subset",
    "number_of_components",
]


def bfs_order(graph: Graph, source: Hashable) -> Iterator[Hashable]:
    """Yield vertices of the component of ``source`` in BFS order."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    seen = {source}
    queue: deque[Hashable] = deque([source])
    while queue:
        u = queue.popleft()
        yield u
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)


def connected_component(graph: Graph, source: Hashable) -> frozenset[Hashable]:
    """The vertex set of the connected component containing ``source``."""
    return frozenset(bfs_order(graph, source))


def connected_components(graph: Graph) -> list[frozenset[Hashable]]:
    """All connected components, in order of first-seen vertex."""
    seen: set[Hashable] = set()
    components: list[frozenset[Hashable]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        members = {start}
        queue: deque[Hashable] = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v in members:
                    continue
                members.add(v)
                queue.append(v)
        seen |= members
        components.append(frozenset(members))
    return components


def number_of_components(graph: Graph) -> int:
    """The number of connected components (0 for the empty graph)."""
    return len(connected_components(graph))


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected.  The empty graph is not connected."""
    if graph.num_vertices == 0:
        return False
    first = next(iter(graph.vertices()))
    return len(connected_component(graph, first)) == graph.num_vertices


def is_connected_subset(graph: Graph, vertices: Iterable[Hashable]) -> bool:
    """Whether ``vertices`` induces a connected subgraph of ``graph``.

    The empty set is not connected; a singleton is.  BFS is restricted to
    the subset without building the induced subgraph.
    """
    subset = set(vertices)
    if not subset:
        return False
    for v in subset:
        if not graph.has_vertex(v):
            raise VertexNotFoundError(v)
    start = next(iter(subset))
    seen = {start}
    queue: deque[Hashable] = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in subset and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(subset)
