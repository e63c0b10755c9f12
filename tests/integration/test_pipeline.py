"""Integration tests: full pipeline over multi-module scenarios."""

from __future__ import annotations

import math

from repro.graph.components import is_connected_subset
from repro.graph.generators import (
    barabasi_albert_graph,
    gnm_random_graph,
    grid_graph,
)
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import mine


class TestPlantedRegionRecovery:
    def test_discrete_planted_block_on_grid(self):
        """A rare-label block planted in a grid is recovered exactly."""
        g = grid_graph(8, 8)
        planted = {(r, c) for r in range(2, 5) for c in range(2, 5)}
        assignment = {
            v: (1 if v in planted else 0) for v in g.vertices()
        }
        lab = DiscreteLabeling((0.9, 0.1), assignment)
        best = mine(g, lab, n_theta=25).best
        assert best.vertices == frozenset(planted)

    def test_continuous_planted_hotspot_on_grid(self):
        g = grid_graph(7, 7)
        hot = {(r, c) for r in range(2, 5) for c in range(2, 5)}
        scores = {
            v: (3.0 if v in hot else 0.0) for v in g.vertices()
        }
        # Break exact zeros slightly so standardisation-style data is
        # realistic but the hotspot still dominates.
        lab = ContinuousLabeling.from_scalar(
            {
                v: s + 0.01 * ((hash(v) % 7) - 3)
                for v, s in scores.items()
            }
        )
        best = mine(g, lab, n_theta=25).best
        assert hot <= best.vertices
        assert len(best.vertices) <= len(hot) + 4

    def test_bridge_shape_on_synthetic_graph(self):
        """Two rare-label blobs joined by a common-label cut vertex are
        mined as one region (the Table 2 bridge phenomenon)."""
        left = Graph.complete(4)
        g = Graph()
        for v in range(9):
            g.add_vertex(v)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v)
        for u in range(5, 9):
            for v in range(u + 1, 9):
                g.add_edge(u, v)
        g.add_edge(3, 4)
        g.add_edge(4, 5)
        assignment = {v: 1 for v in range(9)}
        assignment[4] = 0
        lab = DiscreteLabeling((0.85, 0.15), assignment)
        best = mine(g, lab).best
        assert best.vertices == frozenset(range(9))
        assert len(best.components) == 3
        assert best.component_labels[1] == "0"


class TestDensityRegimes:
    def test_dense_ba_graph_runs_without_reduction(self):
        """Dense BA graphs collapse below n_theta on construction alone."""
        n, l = 300, 2
        d = int(l * math.log(n)) + 2
        g = barabasi_albert_graph(n, d, seed=1)
        lab = DiscreteLabeling.random(g, uniform_probabilities(l), seed=2)
        result = mine(g, lab, n_theta=20)
        assert result.report.dense_enough
        assert result.report.contractions == 0
        assert result.report.supergraph_vertices <= 20

    def test_sparse_graph_requires_reduction(self):
        n = 300
        g = gnm_random_graph(n, 2 * n, seed=3)
        lab = DiscreteLabeling.random(g, uniform_probabilities(4), seed=4)
        result = mine(g, lab, n_theta=15)
        assert not result.report.dense_enough
        assert result.report.contractions > 0
        assert result.report.reduced_vertices <= 15

    def test_full_pipeline_on_moderate_continuous_graph(self):
        g = gnm_random_graph(200, 600, seed=5)
        lab = ContinuousLabeling.random(g, 2, seed=6)
        result = mine(g, lab, top_t=3, n_theta=15)
        assert 1 <= len(result) <= 3
        for sub in result:
            assert is_connected_subset(g, sub.vertices)
            assert sub.chi_square > 0


class TestCrossApplication:
    def test_colocation_to_core_roundtrip(self):
        """SpatialDataset -> rule instance -> core solver -> regions."""
        from repro.colocation.features import SpatialDataset
        from repro.colocation.rulegraph import significant_rule_regions
        from repro.colocation.rules import ColocationRule

        import random

        rng = random.Random(9)
        points = [(rng.random(), rng.random()) for _ in range(80)]
        from repro.graph.generators import knn_geometric_graph

        graph = knn_geometric_graph(points, 5)
        # X everywhere; Y planted on the 12 points nearest the centre.
        from repro.datasets.spatial import nearest_indices

        y_points = set(nearest_indices(points, (0.5, 0.5), 12))
        features = {
            i: ({"X", "Y"} if i in y_points else {"X"})
            for i in range(80)
        }
        dataset = SpatialDataset(points, graph, features)
        rule = ColocationRule("X", "Y", 0.15, 80)
        findings, result = significant_rule_regions(dataset, rule, top_t=1)
        assert findings[0].presence_ratio > 0.8
        assert y_points <= set(findings[0].subgraph.vertices) | y_points

    def test_outliers_to_core_roundtrip(self):
        from repro.outliers.regions import mine_outlier_regions
        from repro.outliers.scoring import SpatialUnits

        g = grid_graph(6, 6)
        values = {v: 1.0 + 0.01 * (v[0] - v[1]) for v in g.vertices()}
        for v in [(2, 2), (2, 3), (3, 2)]:
            values[v] = 8.0
        centroids = {v: (float(v[0]), float(v[1])) for v in g.vertices()}
        units = SpatialUnits(graph=g, values=values, centroids=centroids)
        regions, _ = mine_outlier_regions(units, top_t=1)
        assert {(2, 2), (2, 3), (3, 2)} & set(regions[0].units)
