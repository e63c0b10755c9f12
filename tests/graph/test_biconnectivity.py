"""Unit and property tests for bi-connectivity.

Besides the structural checks, this module runs both search backends on
graphs with articulation points (two blobs glued at a cut vertex plus a
pendant path) and requires the same optimum and, under ``prune="none"``,
the same counters: the shape where a block-cut split of the search would
matter, checked against the whole-graph walk.
"""

from __future__ import annotations

import random

import pytest

from repro.enumerate.accumulators import DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.biconnectivity import (
    articulation_points,
    biconnected_components,
    is_biconnected,
    is_biconnected_subset,
)
from repro.graph.components import connected_components
from repro.graph.generators import gnm_random_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling

DYADIC_PROBS = (0.5, 0.25, 0.25)


class TestArticulationPoints:
    def test_triangle_has_none(self, triangle):
        assert articulation_points(triangle) == frozenset()

    def test_path_interior_vertices(self, path4):
        assert articulation_points(path4) == frozenset({1, 2})

    def test_star_center(self):
        g = Graph.star(4)
        assert articulation_points(g) == frozenset({0})

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        assert articulation_points(g) == frozenset({2})

    def test_disconnected_graph(self, two_components):
        assert articulation_points(two_components) == frozenset()

    def test_bridge_edge_graph(self):
        # Two triangles joined by an edge: both endpoints of the bridge cut.
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        assert articulation_points(g) == frozenset({2, 3})


class TestIsBiconnected:
    def test_cycle_biconnected(self):
        assert is_biconnected(Graph.cycle(5))

    def test_path_not_biconnected(self, path4):
        assert not is_biconnected(path4)

    def test_single_vertex_biconnected(self):
        assert is_biconnected(Graph([0]))

    def test_single_edge_biconnected(self):
        assert is_biconnected(Graph.from_edges([(0, 1)]))

    def test_empty_graph_not_biconnected(self):
        assert not is_biconnected(Graph())

    def test_disconnected_not_biconnected(self, two_components):
        assert not is_biconnected(two_components)

    def test_subset_variant(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_biconnected_subset(g, [0, 1, 2])
        assert not is_biconnected_subset(g, [0, 2, 3])


class TestBiconnectedComponents:
    def test_triangle_single_component(self, triangle):
        comps = biconnected_components(triangle)
        assert comps == [frozenset({0, 1, 2})]

    def test_path_components_are_edges(self, path4):
        comps = {frozenset(c) for c in biconnected_components(path4)}
        assert comps == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_shared_vertex_appears_in_both(self):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        comps = {frozenset(c) for c in biconnected_components(g)}
        assert comps == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}


class TestArticulationBruteForce:
    """Cross-check Tarjan-Hopcroft against remove-a-vertex counting."""

    @staticmethod
    def _brute_force(graph):
        # v is an articulation point iff deleting it increases the number
        # of connected components.  (Removing a non-cut vertex of positive
        # degree leaves its component connected; isolated vertices are
        # never cuts and would decrease the count, so they are skipped.)
        before = sum(1 for _ in connected_components(graph))
        points = set()
        for v in graph.vertices():
            if graph.degree(v) == 0:
                continue
            rest = graph.copy()
            rest.remove_vertices([v])
            after = sum(1 for _ in connected_components(rest))
            if after > before:
                points.add(v)
        return frozenset(points)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        g = gnm_random_graph(14, 17, seed=seed)
        assert articulation_points(g) == self._brute_force(g)

    @pytest.mark.parametrize("seed", range(25, 40))
    def test_matches_brute_force_sparse(self, seed):
        g = gnp_random_graph(12, 0.15, seed=seed)
        assert articulation_points(g) == self._brute_force(g)


def _dyadic_accumulator(graph, seed):
    bitset = BitsetGraph(graph)
    lab = DiscreteLabeling.random(graph, DYADIC_PROBS, seed=seed)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * len(DYADIC_PROBS)
        counts[lab.label_of(v)] = 1
        payloads.append(tuple(counts))
    return bitset, DiscreteAccumulator(DYADIC_PROBS, payloads)


def _articulated_graph(seed):
    """Two random blobs glued at a shared vertex plus a pendant path.

    Guarantees articulation points (the shared vertex and the path) on
    one 13-vertex component.
    """
    rng = random.Random(seed)
    edges = []
    # Blob A on 0-5, blob B on 5-10 (vertex 5 shared), path 10-11-12.
    for lo, hi in ((0, 5), (5, 10)):
        members = list(range(lo, hi + 1))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < 0.55:
                    edges.append((u, v))
        # Spanning cycle so each blob is connected and bi-connected-ish.
        for i in range(len(members)):
            edges.append((members[i], members[(i + 1) % len(members)]))
    edges += [(10, 11), (11, 12)]
    return Graph.from_edges(edges, vertices=range(13))


class TestDecompositionSearchEquivalence:
    """Kernel search == python walk on articulated graphs, counters included."""

    @pytest.mark.parametrize("seed", range(15))
    def test_kernel_decomposition_matches_python_walk(self, seed):
        graph = _articulated_graph(seed)
        bitset, acc = _dyadic_accumulator(graph, seed)
        python = exhaustive_best_mask(bitset.adjacency, acc, backend="python")
        split = exhaustive_best_mask(bitset.adjacency, acc, backend="numpy")
        assert split == python

    @pytest.mark.parametrize("seed", range(8))
    def test_decomposition_with_size_window_and_bounds(self, seed):
        graph = _articulated_graph(seed + 100)
        bitset, acc = _dyadic_accumulator(graph, seed + 100)
        python = exhaustive_best_mask(
            bitset.adjacency, acc, min_mass=4,
            prune="bounds", backend="python",
        )
        split = exhaustive_best_mask(
            bitset.adjacency, acc, min_mass=4,
            prune="bounds", backend="numpy",
        )
        assert split.mask == python.mask
        assert split.chi_square == python.chi_square


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_articulation_points_match(self, seed):
        import networkx as nx

        from repro.graph.generators import gnm_random_graph

        g = gnm_random_graph(30, 45, seed=seed)
        nxg = nx.Graph(g.edge_list())
        nxg.add_nodes_from(g.vertices())
        assert articulation_points(g) == frozenset(nx.articulation_points(nxg))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_biconnected_components_match(self, seed):
        import networkx as nx

        from repro.graph.generators import gnm_random_graph

        g = gnm_random_graph(25, 40, seed=seed)
        nxg = nx.Graph(g.edge_list())
        ours = {frozenset(c) for c in biconnected_components(g)}
        theirs = {
            frozenset(v for e in comp for v in e)
            for comp in nx.biconnected_component_edges(nxg)
        }
        assert ours == theirs
