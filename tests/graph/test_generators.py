"""Unit tests for the random and structured graph generators."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import GraphError
from repro.graph.components import is_connected
from repro.graph.generators import (
    barabasi_albert_graph,
    connect_components,
    erdos_renyi_until_connected,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    knn_geometric_graph,
    resolve_rng,
)
from repro.graph.graph import Graph


class TestResolveRng:
    def test_from_int(self):
        assert resolve_rng(1).random() == resolve_rng(1).random()

    def test_passthrough(self):
        rng = random.Random(3)
        assert resolve_rng(rng) is rng

    def test_none_gives_rng(self):
        assert isinstance(resolve_rng(None), random.Random)


class TestErdosRenyiUntilConnected:
    def test_result_is_connected(self):
        g = erdos_renyi_until_connected(30, seed=1)
        assert is_connected(g)
        assert g.num_vertices == 30

    def test_deterministic(self):
        a = erdos_renyi_until_connected(20, seed=7)
        b = erdos_renyi_until_connected(20, seed=7)
        assert a == b

    def test_single_vertex(self):
        g = erdos_renyi_until_connected(1, seed=1)
        assert g.num_vertices == 1
        assert g.num_edges == 0

    def test_lemma3_expected_edges_below_n_ln_n(self):
        """Lemma 3: E[edges to connect] < n ln n (checked on average)."""
        n = 60
        totals = [
            erdos_renyi_until_connected(n, seed=s).num_edges for s in range(10)
        ]
        assert sum(totals) / len(totals) < n * math.log(n)

    def test_invalid_n(self):
        with pytest.raises(GraphError):
            erdos_renyi_until_connected(0)


class TestGnm:
    def test_exact_counts(self):
        g = gnm_random_graph(20, 37, seed=2)
        assert g.num_vertices == 20
        assert g.num_edges == 37

    def test_zero_edges(self):
        assert gnm_random_graph(5, 0, seed=1).num_edges == 0

    def test_max_edges(self):
        g = gnm_random_graph(6, 15, seed=1)
        assert g.num_edges == 15

    def test_dense_regime_complement_sampling(self):
        g = gnm_random_graph(10, 40, seed=3)
        assert g.num_edges == 40

    def test_impossible_m_rejected(self):
        with pytest.raises(GraphError):
            gnm_random_graph(4, 7)

    def test_deterministic(self):
        assert gnm_random_graph(15, 30, seed=9) == gnm_random_graph(15, 30, seed=9)


class TestGnp:
    def test_extremes(self):
        assert gnp_random_graph(6, 0.0, seed=1).num_edges == 0
        assert gnp_random_graph(6, 1.0, seed=1).num_edges == 15

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            gnp_random_graph(5, 1.5)

    def test_expected_edge_count(self):
        n, p = 60, 0.3
        counts = [gnp_random_graph(n, p, seed=s).num_edges for s in range(8)]
        expected = p * n * (n - 1) / 2
        assert abs(sum(counts) / len(counts) - expected) < 0.15 * expected


class TestBarabasiAlbert:
    def test_vertex_and_edge_counts(self):
        n, d = 50, 3
        g = barabasi_albert_graph(n, d, seed=4)
        assert g.num_vertices == n
        assert g.num_edges == d * (n - d)

    def test_connected_excluding_nothing(self):
        # Algorithm 4 graphs are connected once the first arrival links the
        # seed vertices.
        g = barabasi_albert_graph(40, 2, seed=5)
        assert is_connected(g)

    def test_preferential_attachment_skews_degrees(self):
        g = barabasi_albert_graph(300, 2, seed=6)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        # Scale-free-ish: the top vertex should far exceed the median.
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(5, 0)
        with pytest.raises(GraphError):
            barabasi_albert_graph(3, 3)


class TestSpatialGraphs:
    def test_grid_counts(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_invalid(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)

    def test_knn_graph_min_degree(self):
        rng = random.Random(2)
        points = [(rng.random(), rng.random()) for _ in range(40)]
        g = knn_geometric_graph(points, 3)
        assert all(g.degree(v) >= 3 for v in g.vertices())

    def test_knn_single_point(self):
        g = knn_geometric_graph([(0.5, 0.5)], 2)
        assert g.num_vertices == 1
        assert g.num_edges == 0

    def test_knn_invalid_k(self):
        with pytest.raises(GraphError):
            knn_geometric_graph([(0, 0), (1, 1)], 0)

    def test_connect_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        connect_components(g, seed=1)
        assert is_connected(g)


class TestHolmeKim:
    def test_counts(self):
        from repro.graph.generators import holme_kim_graph

        g = holme_kim_graph(60, 3, 0.7, seed=1)
        assert g.num_vertices == 60
        assert g.num_edges == 3 * (60 - 3)

    def test_higher_triad_probability_more_triangles(self):
        import networkx as nx

        from repro.graph.generators import holme_kim_graph

        def clustering(p):
            total = 0.0
            for seed in range(3):
                g = holme_kim_graph(150, 3, p, seed=seed)
                nxg = nx.Graph(g.edge_list())
                total += nx.average_clustering(nxg)
            return total / 3

        assert clustering(0.9) > clustering(0.0) + 0.05

    def test_invalid_parameters(self):
        from repro.graph.generators import holme_kim_graph

        with pytest.raises(GraphError):
            holme_kim_graph(10, 0, 0.5)
        with pytest.raises(GraphError):
            holme_kim_graph(3, 3, 0.5)
        with pytest.raises(GraphError):
            holme_kim_graph(10, 2, 1.5)


class TestKnnOracle:
    @pytest.mark.parametrize("seed,k", [(1, 3), (2, 6), (3, 1)])
    def test_matches_naive_knn(self, seed, k):
        """The grid-bucket k-NN must equal the brute-force definition."""
        rng = random.Random(seed)
        points = [(rng.random(), rng.random()) for _ in range(80)]
        fast = knn_geometric_graph(points, k)
        slow = Graph(range(len(points)))
        for i, (xi, yi) in enumerate(points):
            ranked = sorted(
                (((xi - xj) ** 2 + (yi - yj) ** 2), j)
                for j, (xj, yj) in enumerate(points)
                if j != i
            )
            for _, j in ranked[:k]:
                slow.add_edge(i, j, exist_ok=True)
        assert fast == slow

    def test_k_at_least_n_gives_complete_graph(self):
        points = [(0.1, 0.1), (0.2, 0.9), (0.8, 0.4)]
        g = knn_geometric_graph(points, 5)
        assert g.num_edges == 3

    def test_clustered_points(self):
        # Heavy clustering stresses the ring-expansion logic.
        rng = random.Random(9)
        points = [(rng.gauss(0.5, 0.01), rng.gauss(0.5, 0.01)) for _ in range(50)]
        points += [(rng.random(), rng.random()) for _ in range(10)]
        g = knn_geometric_graph(points, 4)
        assert all(g.degree(v) >= 4 for v in g.vertices())
