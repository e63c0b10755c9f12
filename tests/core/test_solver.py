"""Unit tests for the end-to-end mining pipeline."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graph.components import is_connected_subset
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling
from repro.core.construct_discrete import BlockPartition
from repro.core.solver import find_mscs, mine

from conftest import random_continuous_instance, random_discrete_instance


class TestBasics:
    def test_finds_obvious_region(self, small_labeled):
        graph, labeling = small_labeled
        result = mine(graph, labeling)
        assert result.best.vertices == frozenset({0, 1, 2})
        assert result.best.chi_square == pytest.approx(
            labeling.chi_square([0, 1, 2])
        )
        assert 0.0 <= result.best.p_value <= 1.0

    def test_find_mscs_wrapper(self, small_labeled):
        graph, labeling = small_labeled
        best = find_mscs(graph, labeling)
        assert best.vertices == frozenset({0, 1, 2})

    def test_find_mscs_empty_graph_raises(self):
        with pytest.raises(GraphError):
            find_mscs(Graph(), DiscreteLabeling((0.5, 0.5), {}))

    def test_empty_graph_returns_nothing(self):
        result = mine(Graph(), DiscreteLabeling((0.5, 0.5), {}))
        assert len(result) == 0

    def test_result_is_connected(self):
        g, lab = random_discrete_instance(seed=11, n=20)
        result = mine(g, lab)
        assert is_connected_subset(g, result.best.vertices)

    def test_invalid_arguments(self, small_labeled):
        graph, labeling = small_labeled
        with pytest.raises(GraphError):
            mine(graph, labeling, top_t=0)
        with pytest.raises(GraphError):
            mine(graph, labeling, method="bogus")
        with pytest.raises(GraphError):
            mine(graph, labeling, min_size=0)

    def test_input_graph_not_mutated(self, small_labeled):
        graph, labeling = small_labeled
        n, m = graph.num_vertices, graph.num_edges
        mine(graph, labeling, top_t=3)
        assert (graph.num_vertices, graph.num_edges) == (n, m)


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", range(6))
    def test_discrete_supergraph_matches_naive_on_dense(self, seed):
        """Conclusion 2: the pipeline is exact (no reduction needed)."""
        g, lab = random_discrete_instance(seed=seed, n=12, p_edge=0.5)
        naive = mine(g, lab, method="naive").best
        pipeline = mine(g, lab, method="supergraph", n_theta=50).best
        assert pipeline.chi_square == pytest.approx(naive.chi_square)

    @pytest.mark.parametrize("seed", range(4))
    def test_continuous_supergraph_close_to_naive(self, seed):
        """Continuous construction has no exactness guarantee but should be
        within a small factor of the optimum on small graphs (paper: within
        96% after reduction; without reduction typically much closer)."""
        g, lab = random_continuous_instance(seed=seed, n=12, p_edge=0.45)
        naive = mine(g, lab, method="naive").best
        pipeline = mine(g, lab, method="supergraph", n_theta=50).best
        assert pipeline.chi_square >= 0.75 * naive.chi_square

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reduction_trades_accuracy(self, seed):
        g, lab = random_discrete_instance(seed=seed + 30, n=18, p_edge=0.2, l=4)
        naive = mine(g, lab, method="naive").best
        reduced = mine(g, lab, method="supergraph", n_theta=4).best
        assert reduced.chi_square <= naive.chi_square + 1e-9
        assert reduced.chi_square > 0


class TestTopT:
    def test_top_t_disjoint(self):
        g, lab = random_discrete_instance(seed=21, n=25, p_edge=0.25)
        result = mine(g, lab, top_t=4)
        seen = set()
        for sub in result:
            assert not (seen & sub.vertices)
            seen |= sub.vertices

    def test_top_t_descending_chi_square(self):
        g, lab = random_continuous_instance(seed=22, n=25, p_edge=0.25)
        result = mine(g, lab, top_t=4, n_theta=30)
        values = [s.chi_square for s in result]
        # Iterative deletion yields non-increasing optima.
        assert values == sorted(values, reverse=True)

    def test_top_t_each_connected(self):
        g, lab = random_discrete_instance(seed=23, n=25, p_edge=0.3)
        result = mine(g, lab, top_t=3)
        for sub in result:
            assert is_connected_subset(g, sub.vertices)

    def test_top_t_exhausts_small_graph(self, triangle):
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1, 2: 0})
        result = mine(triangle, lab, top_t=10)
        assert 1 <= len(result) <= 3
        covered = set()
        for sub in result:
            covered |= sub.vertices

    def test_rounds_reported(self):
        g, lab = random_discrete_instance(seed=24, n=20, p_edge=0.3)
        result = mine(g, lab, top_t=3)
        assert result.report.rounds == len(result)

    def test_rounds_copy_and_delete_nothing(self, monkeypatch):
        """Discrete rounds read the caller's graph minus the mined set."""
        shrunk = []
        without = BlockPartition.without

        def forbidden(self, *args):
            raise AssertionError("a discrete round copied or shrank a graph")

        def spy_without(self, vertices):
            shrunk.append(frozenset(vertices))
            return without(self, vertices)

        g, lab = random_discrete_instance(seed=24, n=40, p_edge=0.15)
        for name in ("copy", "remove_vertex", "remove_vertices"):
            monkeypatch.setattr(Graph, name, forbidden)
        monkeypatch.setattr(BlockPartition, "without", spy_without)
        mine(g, lab, top_t=1)
        assert shrunk == []
        result = mine(g, lab, top_t=5)
        assert result.report.rounds == 5
        # Only the four rounds that another round follows shrink the blocks.
        assert shrunk == [s.vertices for s in result.subgraphs[:4]]


class TestReport:
    def test_report_sizes(self, small_labeled):
        graph, labeling = small_labeled
        report = mine(graph, labeling).report
        assert report.num_vertices == 6
        assert report.num_edges == 6
        assert report.num_labels == 2
        assert report.supergraph_vertices >= 1
        assert report.explored_subgraphs > 0
        assert report.total_seconds >= 0.0

    def test_continuous_report_dimensions(self):
        g, lab = random_continuous_instance(seed=31, n=10, k=3)
        report = mine(g, lab).report
        assert report.dimensions == 3
        assert report.num_labels is None

    def test_reduction_recorded(self):
        g, lab = random_discrete_instance(seed=32, n=40, p_edge=0.08, l=5)
        report = mine(g, lab, n_theta=5).report
        assert report.reduced_vertices <= 5
        assert report.contractions > 0


class TestComponents:
    def test_component_structure_reports_bridge(self):
        # Two label-1 cliques joined by a single label-0 vertex.
        edges = [(0, 1), (1, 2), (0, 2), (2, 9), (9, 3), (3, 4), (4, 5), (3, 5)]
        g = Graph.from_edges(edges)
        assignment = {v: 1 for v in range(6)}
        assignment[9] = 0
        lab = DiscreteLabeling((0.9, 0.1), assignment)
        best = mine(g, lab).best
        assert best.vertices == frozenset({0, 1, 2, 3, 4, 5, 9})
        sizes = best.component_sizes
        labels = best.component_labels
        assert sorted(sizes) == [1, 3, 3]
        assert labels.count("1") == 2 and labels.count("0") == 1
        # BFS from an extremal component puts the bridge in the middle.
        assert labels[1] == "0"

    def test_continuous_z_vector_reported(self):
        g, lab = random_continuous_instance(seed=41, n=10, k=2)
        best = mine(g, lab).best
        assert best.z_score is not None
        assert len(best.z_score) == 2

    def test_polish_never_hurts(self):
        g, lab = random_discrete_instance(seed=42, n=20, p_edge=0.25)
        plain = mine(g, lab, n_theta=3).best
        polished = mine(g, lab, n_theta=3, polish=True).best
        assert polished.chi_square >= plain.chi_square - 1e-9

    def test_min_size_respected(self):
        g, lab = random_discrete_instance(seed=43, n=15, p_edge=0.4)
        result = mine(g, lab, min_size=4)
        if result.subgraphs:
            assert result.best.size >= 4
