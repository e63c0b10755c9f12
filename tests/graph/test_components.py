"""Unit tests for connectivity primitives."""

from __future__ import annotations

import pytest

from repro.exceptions import VertexNotFoundError
from repro.graph.components import (
    bfs_order,
    connected_component,
    connected_components,
    is_connected,
    is_connected_subset,
    number_of_components,
)
from repro.graph.graph import Graph


class TestBfs:
    def test_bfs_order_visits_component(self, path4):
        order = list(bfs_order(path4, 0))
        assert order == [0, 1, 2, 3]

    def test_bfs_order_from_middle(self, path4):
        order = list(bfs_order(path4, 1))
        assert set(order) == {0, 1, 2, 3}
        assert order[0] == 1

    def test_bfs_missing_source(self, path4):
        with pytest.raises(VertexNotFoundError):
            list(bfs_order(path4, 99))

    def test_bfs_stays_in_component(self, two_components):
        assert set(bfs_order(two_components, 0)) == {0, 1}


class TestComponents:
    def test_single_component(self, triangle):
        comps = connected_components(triangle)
        assert comps == [frozenset({0, 1, 2})]

    def test_two_components(self, two_components):
        comps = connected_components(two_components)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]

    def test_isolated_vertices(self):
        g = Graph([1, 2, 3])
        assert number_of_components(g) == 3

    def test_empty_graph(self):
        assert number_of_components(Graph()) == 0

    def test_connected_component_of(self, two_components):
        assert connected_component(two_components, 2) == frozenset({2, 3})


class TestIsConnected:
    def test_connected(self, triangle):
        assert is_connected(triangle)

    def test_disconnected(self, two_components):
        assert not is_connected(two_components)

    def test_empty_graph_not_connected(self):
        assert not is_connected(Graph())

    def test_singleton_connected(self):
        assert is_connected(Graph([0]))


class TestIsConnectedSubset:
    def test_connected_subset(self, path4):
        assert is_connected_subset(path4, [1, 2, 3])

    def test_disconnected_subset(self, path4):
        assert not is_connected_subset(path4, [0, 2])

    def test_empty_subset_not_connected(self, path4):
        assert not is_connected_subset(path4, [])

    def test_singleton_subset_connected(self, path4):
        assert is_connected_subset(path4, [2])

    def test_missing_vertex_raises(self, path4):
        with pytest.raises(VertexNotFoundError):
            is_connected_subset(path4, [0, 99])

    def test_whole_graph(self, triangle):
        assert is_connected_subset(triangle, [0, 1, 2])


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_components_match_networkx(self, seed):
        import networkx as nx

        from repro.graph.generators import gnm_random_graph

        g = gnm_random_graph(30, 25, seed=seed)
        nxg = nx.Graph(g.edge_list())
        nxg.add_nodes_from(g.vertices())
        ours = {frozenset(c) for c in connected_components(g)}
        theirs = {frozenset(c) for c in nx.connected_components(nxg)}
        assert ours == theirs
