"""The super-graph: contracted vertices carrying merged statistics.

Section 4.3 of the paper reduces the input graph ``G`` to a super-graph
``G_s`` whose *super-vertices* are disjoint groups of original vertices and
whose *super-edges* join groups connected by at least one original edge.
Each super-vertex carries the statistic payload of its members — a merged
:class:`~repro.stats.chi_square.CountVector` for discrete labels or a
merged :class:`~repro.stats.zscore.RegionScore` for continuous ones — so
later stages never have to touch original vertices again.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Protocol, runtime_checkable

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric

__all__ = ["Payload", "SuperGraph", "SuperVertex"]


@runtime_checkable
class Payload(Protocol):
    """Statistic payload of a super-vertex.

    Both :class:`~repro.stats.chi_square.CountVector` and
    :class:`~repro.stats.zscore.RegionScore` satisfy this protocol.
    """

    def merged(self, other: "Payload") -> "Payload":
        """The payload of the disjoint union of two vertex groups."""
        ...

    def chi_square(self) -> float:
        """The statistic of the group."""
        ...


class SuperVertex:
    """A group of original vertices with a merged statistic payload.

    ``members`` is exposed as a set; treat it as read-only — the owning
    :class:`SuperGraph` mutates it in place during merges (absorbing the
    smaller group into the larger one keeps the total merge cost
    near-linear).
    """

    __slots__ = ("id", "members", "payload", "_chi_square")

    def __init__(
        self, vertex_id: int, members: set[Hashable], payload: Payload
    ) -> None:
        if not members:
            raise GraphError("a super-vertex must contain at least one vertex")
        self.id = vertex_id
        self.members = members
        self.payload = payload
        self._chi_square = payload.chi_square()

    @property
    def size(self) -> int:
        """Number of original vertices in the group."""
        return len(self.members)

    @property
    def chi_square(self) -> float:
        """Cached statistic of the group (refreshed on merge)."""
        return self._chi_square

    def _absorb(self, other: "SuperVertex") -> None:
        """Fold ``other``'s members and payload into this vertex."""
        self.payload = self.payload.merged(other.payload)
        self._chi_square = self.payload.chi_square()
        self.members.update(other.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SuperVertex(id={self.id}, size={self.size}, "
            f"chi_square={self.chi_square:.4f})"
        )


class SuperGraph:
    """A contraction of an original graph with statistic bookkeeping.

    The topology is a :class:`~repro.graph.graph.Graph` over integer
    super-vertex ids.  ``membership`` maps every original vertex to its
    current super-vertex id, and is kept up to date across merges using
    small-into-large relabeling (O(n log n) total over any merge sequence).
    """

    __slots__ = ("topology", "_vertices", "_membership", "_next_id")

    def __init__(self) -> None:
        self.topology = Graph()
        self._vertices: dict[int, SuperVertex] = {}
        self._membership: dict[Hashable, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(
        cls,
        ids: Sequence[int],
        member_sets: Sequence[set[Hashable]],
        payloads: Sequence[Payload],
        neighbours: Sequence[Iterable[int]],
        *,
        next_id: int | None = None,
    ) -> "SuperGraph":
        """A finished contraction, built in one pass.

        Block ``i`` becomes super-vertex ``ids[i]`` with members
        ``member_sets[i]`` (taken over, not copied) and statistic
        ``payloads[i]``; ``neighbours[i]`` holds the ids it has super-edges
        to.  ``ids`` must be ascending, so the super-vertices iterate in id
        order as if added one by one.  ``next_id`` (default: one past the
        largest id) is the id the next :meth:`add_super_vertex` would take.
        Raises :class:`GraphError` when two blocks share a member.
        """
        sg = cls()
        topology = sg.topology
        membership = sg._membership
        vertices = sg._vertices
        total = 0
        for vertex_id, members, payload in zip(ids, member_sets, payloads):
            vertices[vertex_id] = SuperVertex(vertex_id, members, payload)
            topology.add_vertex(vertex_id)
            for v in members:
                membership[v] = vertex_id
            total += len(members)
        if len(membership) != total:
            raise GraphError("super-vertex member sets overlap")
        for vertex_id, adjacent in zip(ids, neighbours):
            for other in adjacent:
                if vertex_id < other:
                    topology.add_edge(vertex_id, other)
        sg._next_id = (ids[-1] + 1 if ids else 0) if next_id is None else next_id
        return sg

    def add_super_vertex(
        self, members: Iterable[Hashable], payload: Payload
    ) -> SuperVertex:
        """Create a super-vertex from a fresh group of original vertices."""
        member_set = set(members)
        for v in member_set:
            if v in self._membership:
                raise GraphError(
                    f"original vertex {v!r} already belongs to super-vertex "
                    f"{self._membership[v]}"
                )
        sv = SuperVertex(self._next_id, member_set, payload)
        self._next_id += 1
        self.topology.add_vertex(sv.id)
        self._vertices[sv.id] = sv
        for v in member_set:
            self._membership[v] = sv.id
        return sv

    def add_super_edge(self, u_id: int, v_id: int) -> None:
        """Connect two super-vertices (idempotent)."""
        if u_id == v_id:
            raise GraphError("self loops between super-vertices are not allowed")
        self.topology.add_edge(u_id, v_id, exist_ok=True)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_super_vertices(self) -> int:
        """Number of super-vertices ``n_s``."""
        return len(self._vertices)

    @property
    def num_super_edges(self) -> int:
        """Number of super-edges ``m_s``."""
        return self.topology.num_edges

    def super_vertex(self, vertex_id: int) -> SuperVertex:
        """Look up a super-vertex by id."""
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def super_vertices(self) -> Iterator[SuperVertex]:
        """Iterate over the live super-vertices."""
        return iter(self._vertices.values())

    def super_vertex_ids(self) -> Iterator[int]:
        """Iterate over the live super-vertex ids."""
        return iter(self._vertices.keys())

    def super_of(self, original_vertex: Hashable) -> SuperVertex:
        """The super-vertex currently containing an original vertex."""
        try:
            return self._vertices[self._membership[original_vertex]]
        except KeyError:
            raise VertexNotFoundError(original_vertex) from None

    def original_vertices(self, vertex_ids: Iterable[int]) -> frozenset[Hashable]:
        """Union of members over several super-vertices."""
        result: set[Hashable] = set()
        for vertex_id in vertex_ids:
            result.update(self.super_vertex(vertex_id).members)
        return frozenset(result)

    def total_original_vertices(self) -> int:
        """Number of original vertices covered (partition exhaustiveness)."""
        return len(self._membership)

    def partition(self) -> list[frozenset[Hashable]]:
        """The current partition into member sets (immutable snapshots)."""
        return [frozenset(sv.members) for sv in self._vertices.values()]

    # ------------------------------------------------------------------
    # Merging (Algorithm 2 line 9, Algorithm 5 line 3)
    # ------------------------------------------------------------------
    def merge(self, u_id: int, v_id: int) -> SuperVertex:
        """Merge two super-vertices, absorbing the smaller into the larger.

        All neighbours of either vertex become neighbours of the merged
        vertex; the edge between them (if any) disappears.  Returns the
        surviving super-vertex — the *larger* operand, which keeps its id,
        so only the smaller group's membership entries are rewritten
        (small-into-large: O(n log n) total over any merge sequence).
        Callers tracking per-id statistics (e.g. the reduction heap) must
        treat the surviving id's statistic as changed.
        """
        if u_id == v_id:
            raise GraphError(f"cannot merge super-vertex {u_id} with itself")
        u = self.super_vertex(u_id)
        v = self.super_vertex(v_id)
        base, absorbed = (u, v) if u.size >= v.size else (v, u)

        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.count(_metric.SUPERGRAPH_MERGES)
            _TELEMETRY.metrics.observe(
                _metric.SUPERGRAPH_MERGE_ABSORBED_SIZE, absorbed.size
            )
        base._absorb(absorbed)
        for member in absorbed.members:
            self._membership[member] = base.id
        for w in self.topology.neighbors(absorbed.id):
            if w != base.id:
                self.topology.add_edge(base.id, w, exist_ok=True)
        self.topology.remove_vertex(absorbed.id)
        del self._vertices[absorbed.id]
        return base

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_against(self, graph: Graph) -> None:
        """Check partition exhaustiveness / exclusivity against ``graph``.

        Raises :class:`GraphError` on any violation; the construction tests
        and property suites call it on every super-graph they build.
        """
        if self.total_original_vertices() != graph.num_vertices:
            raise GraphError(
                f"super-graph covers {self.total_original_vertices()} original "
                f"vertices, the graph has {graph.num_vertices}"
            )
        covered: set[Hashable] = set()
        for sv in self.super_vertices():
            if covered & sv.members:
                raise GraphError("super-vertices overlap")
            covered |= sv.members
            for member in sv.members:
                if not graph.has_vertex(member):
                    raise GraphError(
                        f"super-vertex {sv.id} contains {member!r}, which is "
                        "not in the original graph"
                    )
        for u, v in graph.edges():
            su, tv = self._membership[u], self._membership[v]
            if su != tv and not self.topology.has_edge(su, tv):
                raise GraphError(
                    f"original edge ({u!r}, {v!r}) crosses super-vertices "
                    f"{su} and {tv} but no super-edge exists"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SuperGraph(n_s={self.num_super_vertices}, "
            f"m_s={self.num_super_edges}, "
            f"n={self.total_original_vertices()})"
        )

