"""Unit tests for connected-subgraph enumeration (vs brute-force oracle)."""

from __future__ import annotations

import pytest

from repro.exceptions import EnumerationLimitError
from repro.enumerate.connected import (
    connected_subgraph_masks,
    count_connected_subgraphs,
    enumerate_connected_subsets,
    reference_connected_subsets,
)
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph


class TestKnownCounts:
    def test_single_vertex(self):
        assert count_connected_subgraphs(Graph([0])) == 1

    def test_single_edge(self):
        assert count_connected_subgraphs(Graph.from_edges([(0, 1)])) == 3

    def test_triangle(self, triangle):
        # 3 singletons + 3 edges + 1 triangle.
        assert count_connected_subgraphs(triangle) == 7

    def test_path(self):
        # A path on n vertices has n(n+1)/2 connected (sub)paths.
        for n in range(1, 8):
            assert count_connected_subgraphs(Graph.path(n)) == n * (n + 1) // 2

    def test_complete_graph(self):
        # Every non-empty subset of K_n is connected: 2^n - 1.
        for n in range(1, 7):
            assert count_connected_subgraphs(Graph.complete(n)) == 2**n - 1

    def test_star(self):
        # Star with c leaves: any subset containing the centre (2^c) plus
        # each leaf alone: 2^c + c.
        for c in range(1, 6):
            assert count_connected_subgraphs(Graph.star(c)) == 2**c + c

    def test_disconnected_graph(self, two_components):
        assert count_connected_subgraphs(two_components) == 6

    def test_empty_graph(self):
        assert count_connected_subgraphs(Graph()) == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_oracle(self, seed):
        g = gnp_random_graph(9, 0.35, seed=seed)
        ours = set(enumerate_connected_subsets(g))
        oracle = reference_connected_subsets(g)
        assert ours == oracle

    def test_no_duplicates(self):
        g = gnp_random_graph(10, 0.5, seed=42)
        subsets = list(enumerate_connected_subsets(g))
        assert len(subsets) == len(set(subsets))

    def test_oracle_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            reference_connected_subsets(Graph.complete(21))


class TestLimit:
    def test_limit_exceeded_raises(self):
        g = Graph.complete(10)  # 1023 connected subsets
        with pytest.raises(EnumerationLimitError):
            list(enumerate_connected_subsets(g, limit=100))

    def test_limit_none_disables(self):
        g = Graph.complete(8)
        assert count_connected_subgraphs(g, limit=None) == 255


class TestMaskInterface:
    def test_masks_are_connected(self):
        g = gnp_random_graph(8, 0.4, seed=3)
        from repro.enumerate.bitset import BitsetGraph

        bs = BitsetGraph(g)
        for mask in connected_subgraph_masks(bs.adjacency):
            assert bs.is_connected_mask(mask)
