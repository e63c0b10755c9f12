"""Core undirected simple-graph data structure.

The paper operates on undirected, un-weighted, vertex-labeled graphs.  This
module provides the :class:`Graph` container used by every other subsystem.
Vertices are arbitrary hashable objects; adjacency is kept as a dictionary of
sets, giving O(1) expected-time edge queries and O(deg) neighbourhood scans.

Labels are deliberately *not* stored on the graph itself: labelings live in
:mod:`repro.labels` so that the same topology can carry several labelings
(e.g. one graph, many co-location rules in Section 5.1 of the paper).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Set as AbstractSet
from types import MappingProxyType
from typing import TypeVar

from repro.exceptions import (
    DuplicateVertexError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)

Vertex = TypeVar("Vertex", bound=Hashable)

__all__ = ["Graph"]


class Graph:
    """An undirected simple graph (no self loops, no parallel edges).

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_version", "__weakref__")

    def __init__(self, vertices: Iterable[Hashable] = ()) -> None:
        self._adj: dict[Hashable, set[Hashable]] = {}
        self._num_edges = 0
        self._version = 0
        for v in vertices:
            self.add_vertex(v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        vertices: Iterable[Hashable] = (),
    ) -> "Graph":
        """Build a graph from an edge list, plus optional isolated vertices.

        Endpoints of edges are added implicitly.  Duplicate edges are
        silently collapsed (the graph is simple).
        """
        graph = cls()
        for v in vertices:
            graph.add_vertex(v, exist_ok=True)
        for u, v in edges:
            graph.add_vertex(u, exist_ok=True)
            graph.add_vertex(v, exist_ok=True)
            graph.add_edge(u, v, exist_ok=True)
        return graph

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """The complete graph on vertices ``0..n-1``."""
        graph = cls(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    @classmethod
    def path(cls, n: int) -> "Graph":
        """The path graph on vertices ``0..n-1``."""
        return cls.from_edges(((i, i + 1) for i in range(n - 1)), vertices=range(n))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        """The cycle graph on vertices ``0..n-1`` (requires ``n >= 3``)."""
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return cls.from_edges(edges)

    @classmethod
    def star(cls, n: int) -> "Graph":
        """The star with centre ``0`` and leaves ``1..n``."""
        return cls.from_edges(((0, i) for i in range(1, n + 1)), vertices=(0,))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Hashable, *, exist_ok: bool = False) -> None:
        """Add vertex ``v``; raise :class:`DuplicateVertexError` if present."""
        if v in self._adj:
            if exist_ok:
                return
            raise DuplicateVertexError(v)
        self._adj[v] = set()
        self._version += 1

    def add_edge(self, u: Hashable, v: Hashable, *, exist_ok: bool = False) -> None:
        """Add the undirected edge ``(u, v)``.

        Both endpoints must already exist.  Self loops are rejected; adding
        an existing edge raises unless ``exist_ok`` is set.
        """
        if u == v:
            raise SelfLoopError(u)
        if u not in self._adj:
            raise VertexNotFoundError(u)
        if v not in self._adj:
            raise VertexNotFoundError(v)
        if v in self._adj[u]:
            if exist_ok:
                return
            raise ValueError(f"edge ({u!r}, {v!r}) already exists")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._version += 1

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove the edge ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, v: Hashable) -> None:
        """Remove vertex ``v`` and all incident edges."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        for w in self._adj[v]:
            self._adj[w].discard(v)
        self._num_edges -= len(self._adj[v])
        del self._adj[v]
        self._version += 1

    def remove_vertices(self, vertices: Iterable[Hashable]) -> None:
        """Remove several vertices.

        ``set.discard`` never resizes a table, so the surviving neighbour
        sets keep their iteration order; the top-t solver relies on this
        when it shrinks its survivor copy (see ``repro.core.solver``).
        """
        for v in list(vertices):
            self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every structural change).

        The per-object digest memo of :mod:`repro.service.digest` stores it
        beside a graph's content digest, so a graph mutated since (e.g. the
        solver's survivor copy between top-t rounds) is hashed afresh
        instead of reusing a stale digest.  Copies start back at 0 — the
        counter identifies states of one object, not content.
        """
        return self._version

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._num_edges

    def has_vertex(self, v: Hashable) -> bool:
        """Whether ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``(u, v)`` is an edge of the graph."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Hashable) -> frozenset[Hashable]:
        """The neighbour set of ``v`` as an immutable snapshot."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return frozenset(self._adj[v])

    def degree(self, v: Hashable) -> int:
        """The degree of ``v``."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return len(self._adj[v])

    def vertices(self) -> Iterator[Hashable]:
        """Iterate over the vertices in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate over each undirected edge exactly once.

        Each edge is yielded with the endpoint that was inserted earlier
        first, which keeps iteration order deterministic for a given
        construction sequence (important for reproducible experiments).
        """
        seen: set[Hashable] = set()
        for u in self._adj:
            seen.add(u)
            for v in self._adj[u]:
                if v not in seen:
                    yield (u, v)

    def __contains__(self, v: Hashable) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:  # graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A deep structural copy of the graph."""
        clone = Graph()
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def induced_subgraph(self, vertices: Iterable[Hashable]) -> "Graph":
        """The subgraph induced by ``vertices``.

        Raises :class:`VertexNotFoundError` if any requested vertex is not
        in the graph.
        """
        keep = set()
        sub = Graph()
        for v in vertices:
            if v not in self._adj:
                raise VertexNotFoundError(v)
            if v not in keep:
                keep.add(v)
                sub.add_vertex(v)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and not sub.has_edge(u, v):
                    sub.add_edge(u, v)
        return sub

    def edge_list(self) -> list[tuple[Hashable, Hashable]]:
        """All edges materialised as a list (deterministic order)."""
        return list(self.edges())

    def adjacency(self) -> dict[Hashable, frozenset[Hashable]]:
        """An immutable snapshot of the adjacency structure."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}

    def adjacency_view(self) -> Mapping[Hashable, AbstractSet[Hashable]]:
        """A live, read-only view of the adjacency: vertex -> neighbour set.

        Nothing is copied, so bulk algorithms can run C-level set algebra
        over whole neighbourhoods (``view[u] & others``).  The neighbour
        sets are the graph's own: never mutate them, and do not hold the
        view across mutations of the graph.  Iteration follows vertex
        insertion order, like :meth:`vertices`.
        """
        return MappingProxyType(self._adj)
