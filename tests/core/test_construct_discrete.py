"""Unit tests for Algorithm 1 (discrete super-graph construction)."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import GraphError, LabelingError
from repro.graph.generators import gnm_random_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.construct_discrete import BlockPartition, build_discrete_supergraph
from repro.telemetry import names as metric
from repro.telemetry import telemetry_session


class TestBasics:
    def test_monochromatic_graph_collapses_to_one(self):
        g = Graph.complete(6)
        lab = DiscreteLabeling((0.5, 0.5), {v: 0 for v in g.vertices()})
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices == 1
        assert sg.num_super_edges == 0
        assert next(sg.super_vertices()).size == 6

    def test_alternating_path_stays_apart(self):
        g = Graph.path(4)
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1, 2: 0, 3: 1})
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices == 4
        assert sg.num_super_edges == 3

    def test_same_label_components_merge(self):
        # 0-1 same label, 2-3 same label, 1-2 crossing.
        g = Graph.path(4)
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 0, 2: 1, 3: 1})
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices == 2
        assert sg.num_super_edges == 1
        sizes = sorted(sv.size for sv in sg.super_vertices())
        assert sizes == [2, 2]

    def test_payload_counts_match_members(self):
        g = Graph.path(3)
        lab = DiscreteLabeling((0.3, 0.7), {0: 1, 1: 1, 2: 0})
        sg = build_discrete_supergraph(g, lab)
        merged = sg.super_of(0)
        assert merged.payload.counts == (0, 2)
        assert sg.super_of(2).payload.counts == (1, 0)

    def test_partition_is_valid(self):
        g = gnp_random_graph(30, 0.3, seed=1)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=2)
        sg = build_discrete_supergraph(g, lab)
        sg.validate_against(g)

    def test_uncovered_graph_rejected(self):
        g = Graph.from_edges([(0, 1)])
        lab = DiscreteLabeling((0.5, 0.5), {0: 0})
        with pytest.raises(LabelingError):
            build_discrete_supergraph(g, lab)

    def test_super_vertices_are_monochromatic(self):
        g = gnp_random_graph(40, 0.2, seed=3)
        lab = DiscreteLabeling.random(g, uniform_probabilities(4), seed=4)
        sg = build_discrete_supergraph(g, lab)
        for sv in sg.super_vertices():
            labels = {lab.label_of(v) for v in sv.members}
            assert len(labels) == 1

    def test_super_vertices_are_maximal(self):
        """No super-edge may join two same-label super-vertices."""
        g = gnp_random_graph(40, 0.25, seed=5)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=6)
        sg = build_discrete_supergraph(g, lab)
        for u, v in sg.topology.edges():
            label_u = lab.label_of(next(iter(sg.super_vertex(u).members)))
            label_v = lab.label_of(next(iter(sg.super_vertex(v).members)))
            assert label_u != label_v


class TestConclusion3:
    def test_dense_graph_collapses_to_l_super_vertices(self):
        """Conclusion 3: m > l n ln n => about l super-vertices."""
        n, l = 150, 3
        m = int(l * n * math.log(n))
        max_edges = n * (n - 1) // 2
        g = gnm_random_graph(n, min(m, max_edges), seed=7)
        lab = DiscreteLabeling.random(g, uniform_probabilities(l), seed=8)
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices == l

    def test_sparse_graph_keeps_many(self):
        n = 150
        g = gnm_random_graph(n, n, seed=9)
        lab = DiscreteLabeling.random(g, uniform_probabilities(5), seed=10)
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices > 20


class TestTelemetry:
    def test_edges_contracted_counts_same_label_edges(self):
        # A label-0 and a label-1 triangle joined by two crossing edges,
        # then a label-0 edge hanging off the label-1 triangle.
        g = Graph.from_edges([
            (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
            (2, 3), (1, 4), (5, 6), (6, 7),
        ])
        lab = DiscreteLabeling(
            (0.5, 0.5), {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 0, 7: 0}
        )
        same_label = sum(
            1 for u, v in g.edges() if lab.label_of(u) == lab.label_of(v)
        )
        assert same_label == 7
        with telemetry_session() as (_, metrics):
            sg = build_discrete_supergraph(g, lab)
        snap = metrics.snapshot()
        assert snap[metric.CONSTRUCT_EDGES_CONTRACTED] == same_label
        assert snap[metric.CONSTRUCT_EDGES_SCANNED] == g.num_edges
        assert snap[metric.CONSTRUCT_SUPER_VERTICES] == sg.num_super_vertices == 3
        assert snap[metric.CONSTRUCT_SUPER_EDGES] == sg.num_super_edges == 2

    def test_reused_round_scans_no_edges(self):
        g = Graph.path(6)
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1})
        blocks = BlockPartition.of(build_discrete_supergraph(g, lab), g)
        g.remove_vertices([0, 1])
        rest = blocks.without(frozenset({0, 1}))
        with telemetry_session() as (_, metrics):
            sg = rest.supergraph(g, lab)
        snap = metrics.snapshot()
        assert snap[metric.CONSTRUCT_EDGES_SCANNED] == 0
        assert snap[metric.CONSTRUCT_EDGES_CONTRACTED] == 0
        assert snap[metric.CONSTRUCT_SUPER_VERTICES] == sg.num_super_vertices == 3
        assert snap[metric.CONSTRUCT_SUPER_EDGES] == sg.num_super_edges == 2


class TestBlockPartition:
    def _blocks(self):
        # Blocks in first-seen order: {0,1} {2,3} {4} {5}.
        g = Graph.path(6)
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1})
        return g, lab, BlockPartition.of(build_discrete_supergraph(g, lab), g)

    def test_snapshot_of_fresh_build(self):
        _, _, blocks = self._blocks()
        assert blocks.blocks == [(0, 1), (2, 3), (4,), (5,)]
        assert blocks.labels == [0, 1, 0, 1]
        assert blocks.neighbours == [
            frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}),
        ]

    def test_whole_blocks_renumber_compactly(self):
        _, _, blocks = self._blocks()
        rest = blocks.without(frozenset({2, 3}))
        assert rest.blocks == [(0, 1), (4,), (5,)]
        assert rest.labels == [0, 0, 1]
        assert rest.neighbours == [frozenset(), frozenset({2}), frozenset({1})]

    def test_part_of_a_block_is_unknown(self):
        _, _, blocks = self._blocks()
        assert blocks.without(frozenset({1, 2, 3})) is None
        assert blocks.without(frozenset({0})) is None

    def test_reuse_equals_rebuild(self):
        g, lab, blocks = self._blocks()
        g.remove_vertices([2, 3])
        reused = blocks.without(frozenset({2, 3})).supergraph(g, lab)
        rebuilt = build_discrete_supergraph(g, lab)
        assert reused.partition() == rebuilt.partition()
        assert reused.topology == rebuilt.topology
        for a, b in zip(reused.super_vertices(), rebuilt.super_vertices()):
            assert a.payload == b.payload

    def test_stale_graph_fails_the_partition_check(self):
        g, lab, blocks = self._blocks()
        with pytest.raises(GraphError):
            blocks.without(frozenset({2, 3})).supergraph(g, lab)
