"""Unit tests for the SuperGraph structure."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.core.supergraph import SuperGraph
from repro.stats.chi_square import CountVector
from repro.stats.zscore import RegionScore


def cv(counts):
    return CountVector((0.5, 0.5), counts)


class TestConstruction:
    def test_add_super_vertex(self):
        sg = SuperGraph()
        sv = sg.add_super_vertex(["a", "b"], cv([2, 0]))
        assert sv.size == 2
        assert sg.num_super_vertices == 1
        assert sg.super_of("a") is sv

    def test_empty_members_rejected(self):
        sg = SuperGraph()
        with pytest.raises(GraphError):
            sg.add_super_vertex([], cv([0, 0]))

    def test_duplicate_membership_rejected(self):
        sg = SuperGraph()
        sg.add_super_vertex(["a"], cv([1, 0]))
        with pytest.raises(GraphError):
            sg.add_super_vertex(["a", "b"], cv([2, 0]))

    def test_add_super_edge(self):
        sg = SuperGraph()
        u = sg.add_super_vertex(["a"], cv([1, 0]))
        v = sg.add_super_vertex(["b"], cv([0, 1]))
        sg.add_super_edge(u.id, v.id)
        sg.add_super_edge(u.id, v.id)  # idempotent
        assert sg.num_super_edges == 1

    def test_self_edge_rejected(self):
        sg = SuperGraph()
        u = sg.add_super_vertex(["a"], cv([1, 0]))
        with pytest.raises(GraphError):
            sg.add_super_edge(u.id, u.id)

    def test_from_blocks_equals_one_by_one(self):
        members = [{"a", "b"}, {"c"}, {"d"}]
        sg = SuperGraph.from_blocks(
            [0, 2, 5], members, [cv([2, 0]), cv([0, 1]), cv([1, 0])],
            [{2, 5}, {0}, {0}],
            next_id=7,
        )
        assert list(sg.super_vertex_ids()) == [0, 2, 5]
        assert sg.super_vertex(2).members is members[1]
        assert sg.super_of("b").id == 0
        assert {frozenset(e) for e in sg.topology.edges()} == {
            frozenset({0, 2}), frozenset({0, 5}),
        }
        assert sg.add_super_vertex(["e"], cv([1, 0])).id == 7
        default = SuperGraph.from_blocks([0, 3], [{"a"}, {"b"}],
                                         [cv([1, 0]), cv([0, 1])], [(), ()])
        assert default.add_super_vertex(["c"], cv([1, 0])).id == 4

    def test_from_blocks_rejects_overlap(self):
        with pytest.raises(GraphError):
            SuperGraph.from_blocks(
                [0, 1], [{"a", "b"}, {"b"}], [cv([2, 0]), cv([1, 0])],
                [(), ()],
            )


class TestQueries:
    def test_super_vertex_lookup_missing(self):
        sg = SuperGraph()
        with pytest.raises(VertexNotFoundError):
            sg.super_vertex(99)

    def test_super_of_missing(self):
        sg = SuperGraph()
        with pytest.raises(VertexNotFoundError):
            sg.super_of("nope")

    def test_original_vertices_union(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["x", "y"], cv([2, 0]))
        b = sg.add_super_vertex(["z"], cv([0, 1]))
        assert sg.original_vertices([a.id, b.id]) == frozenset({"x", "y", "z"})

    def test_partition_and_total(self):
        sg = SuperGraph()
        sg.add_super_vertex(["x", "y"], cv([2, 0]))
        sg.add_super_vertex(["z"], cv([0, 1]))
        assert sg.total_original_vertices() == 3
        assert sorted(len(b) for b in sg.partition()) == [1, 2]

    def test_chi_square_cached(self):
        sg = SuperGraph()
        sv = sg.add_super_vertex(["a", "b", "c"], cv([3, 0]))
        assert sv.chi_square == pytest.approx(cv([3, 0]).chi_square())


class TestMerge:
    def test_merge_combines_members_and_payloads(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["x"], cv([1, 0]))
        b = sg.add_super_vertex(["y"], cv([0, 1]))
        sg.add_super_edge(a.id, b.id)
        merged = sg.merge(a.id, b.id)
        assert merged.members == frozenset({"x", "y"})
        assert merged.payload.counts == (1, 1)
        assert sg.num_super_vertices == 1
        assert sg.super_of("x").id == merged.id

    def test_merge_rewires_neighbors(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["a"], cv([1, 0]))
        b = sg.add_super_vertex(["b"], cv([1, 0]))
        c = sg.add_super_vertex(["c"], cv([0, 1]))
        sg.add_super_edge(a.id, b.id)
        sg.add_super_edge(b.id, c.id)
        merged = sg.merge(a.id, b.id)
        assert sg.topology.has_edge(merged.id, c.id)
        assert sg.num_super_edges == 1

    def test_merge_collapses_parallel_edges(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["a"], cv([1, 0]))
        b = sg.add_super_vertex(["b"], cv([1, 0]))
        c = sg.add_super_vertex(["c"], cv([0, 1]))
        sg.add_super_edge(a.id, c.id)
        sg.add_super_edge(b.id, c.id)
        sg.add_super_edge(a.id, b.id)
        merged = sg.merge(a.id, b.id)
        assert sg.num_super_edges == 1
        assert sg.topology.has_edge(merged.id, c.id)

    def test_merge_self_rejected(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["a"], cv([1, 0]))
        with pytest.raises(GraphError):
            sg.merge(a.id, a.id)

    def test_merge_continuous_payloads(self):
        sg = SuperGraph()
        a = sg.add_super_vertex(["a"], RegionScore.from_vertex((1.0,)))
        b = sg.add_super_vertex(["b"], RegionScore.from_vertex((2.0,)))
        sg.add_super_edge(a.id, b.id)
        merged = sg.merge(a.id, b.id)
        assert merged.payload.size == 2
        assert merged.chi_square == pytest.approx(9.0 / 2.0)


class TestValidate:
    def test_validate_passes_for_consistent(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        sg = SuperGraph()
        for v in g.vertices():
            sg.add_super_vertex([v], cv([1, 0]))
        for u, v in g.edges():
            sg.add_super_edge(sg.super_of(u).id, sg.super_of(v).id)
        sg.validate_against(g)

    def test_validate_catches_missing_coverage(self):
        g = Graph.from_edges([(0, 1)])
        sg = SuperGraph()
        sg.add_super_vertex([0], cv([1, 0]))
        with pytest.raises(GraphError):
            sg.validate_against(g)

    def test_validate_catches_missing_super_edge(self):
        g = Graph.from_edges([(0, 1)])
        sg = SuperGraph()
        sg.add_super_vertex([0], cv([1, 0]))
        sg.add_super_vertex([1], cv([0, 1]))
        with pytest.raises(GraphError, match="super-edge"):
            sg.validate_against(g)
