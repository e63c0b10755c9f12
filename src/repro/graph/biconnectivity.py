"""Bi-connectivity analysis (articulation points, bi-connected components).

Lemma 2 / Conclusion 2 of the paper guarantee exactness of the super-graph
transformation for *bi-connected* locally-maximal subgraphs, and Lemmas 5-6
argue dense ER and BA graphs are bi-connected with high probability.  This
module provides the iterative Tarjan-Hopcroft algorithm used by tests and by
the solver's exactness diagnostics.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.graph.graph import Graph

__all__ = [
    "articulation_points",
    "biconnected_components",
    "is_biconnected",
    "is_biconnected_subset",
]


def articulation_points(graph: Graph) -> frozenset[Hashable]:
    """All articulation (cut) vertices of the graph.

    Iterative DFS formulation of the classic Tarjan-Hopcroft low-link
    algorithm; handles disconnected graphs by restarting from every
    unvisited vertex.
    """
    disc: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    parent: dict[Hashable, Hashable | None] = {}
    points: set[Hashable] = set()
    timer = 0

    for root in graph.vertices():
        if root in disc:
            continue
        parent[root] = None
        root_children = 0
        # Stack frames: (vertex, iterator over neighbours).
        stack = [(root, iter(graph.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, nbrs = stack[-1]
            advanced = False
            for v in nbrs:
                if v not in disc:
                    parent[v] = u
                    if u == root:
                        root_children += 1
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(graph.neighbors(v))))
                    advanced = True
                    break
                if v != parent[u]:
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p != root and low[u] >= disc[p]:
                    points.add(p)
        if root_children > 1:
            points.add(root)
    return frozenset(points)


def biconnected_components(graph: Graph) -> list[frozenset[Hashable]]:
    """The bi-connected components as vertex sets.

    Components are maximal edge sets sharing no articulation point; the
    returned sets are the vertices spanned by each such edge set.  Isolated
    vertices form no component (they span no edge).
    """
    disc: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    parent: dict[Hashable, Hashable | None] = {}
    components: list[frozenset[Hashable]] = []
    edge_stack: list[tuple[Hashable, Hashable]] = []
    timer = 0

    def pop_component(u: Hashable, v: Hashable) -> None:
        member_edges: list[tuple[Hashable, Hashable]] = []
        while edge_stack:
            edge = edge_stack.pop()
            member_edges.append(edge)
            if edge == (u, v):
                break
        vertices: set[Hashable] = set()
        for a, b in member_edges:
            vertices.add(a)
            vertices.add(b)
        if vertices:
            components.append(frozenset(vertices))

    for root in graph.vertices():
        if root in disc:
            continue
        parent[root] = None
        stack = [(root, iter(graph.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, nbrs = stack[-1]
            advanced = False
            for v in nbrs:
                if v not in disc:
                    parent[v] = u
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(graph.neighbors(v))))
                    advanced = True
                    break
                if v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    pop_component(p, u)
        # Any edges left on the stack after finishing a root belong to the
        # final component of that DFS tree.
        if edge_stack:
            vertices = {a for e in edge_stack for a in e}
            components.append(frozenset(vertices))
            edge_stack.clear()
    return components


def is_biconnected(graph: Graph) -> bool:
    """Whether the whole graph is bi-connected.

    Follows the paper's footnote definition: a graph is bi-connected if it
    stays connected after removing any single vertex.  By that reading a
    single vertex and a single edge are bi-connected (there is nothing
    meaningful left to disconnect), while a path on three vertices is not.
    """
    n = graph.num_vertices
    if n == 0:
        return False
    if n <= 2:
        from repro.graph.components import is_connected

        return is_connected(graph)
    from repro.graph.components import is_connected

    return is_connected(graph) and not articulation_points(graph)


def is_biconnected_subset(graph: Graph, vertices: Iterable[Hashable]) -> bool:
    """Whether ``vertices`` induces a bi-connected subgraph of ``graph``."""
    return is_biconnected(graph.induced_subgraph(vertices))
