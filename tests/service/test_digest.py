"""Unit tests for the content digests keying the super-graph cache."""

from __future__ import annotations

import pytest

from repro.exceptions import DigestError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.digest import (
    _hash_lines,
    encode_vertex,
    graph_digest,
    labeling_digest,
    prefix_digest,
    prefix_digest_from_parts,
    scan_order_digest,
)
from repro.service.cache import SuperGraphCache


class TestHashLines:
    def test_newline_boundary_shift_regression(self):
        """One line containing a newline must not equal two separate lines.

        The v1 encoding joined lines with a bare separator, so any newline
        inside a line shifted the boundary and collided with a different
        line list; v2 length-prefixes every line.
        """
        assert _hash_lines("k", ["a\nb"]) != _hash_lines("k", ["a", "b"])
        assert _hash_lines("k", ["a\nb", "c"]) != _hash_lines("k", ["a", "b\nc"])

    def test_tag_binds_the_digest(self):
        assert _hash_lines("graph/v2", ["x"]) != _hash_lines("prefix/v2", ["x"])

    def test_empty_trailing_line_matters(self):
        assert _hash_lines("k", ["a"]) != _hash_lines("k", ["a", ""])

    def test_tag_line_boundary_cannot_shift(self):
        assert _hash_lines("k\na", ["b"]) != _hash_lines("k", ["a\nb"])


class TestEncodeVertex:
    def test_type_tags_prevent_cross_type_collisions(self):
        assert encode_vertex(1) != encode_vertex("1")
        assert encode_vertex(1) != encode_vertex(True)
        assert encode_vertex(1) != encode_vertex((1,))
        assert encode_vertex("") != encode_vertex(None)

    def test_string_length_prefix_prevents_concatenation_collisions(self):
        assert encode_vertex("ab") != encode_vertex("a") + "b"

    def test_tuples_encode_recursively(self):
        assert encode_vertex((1, "a")) == "t:2[i:1,s:1:a]"
        assert encode_vertex((1, (2,))) != encode_vertex((1, 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(DigestError):
            encode_vertex(object())


class TestGraphDigest:
    def test_stable_across_insertion_order(self):
        a = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        b = Graph.from_edges([(2, 3), (2, 1), (1, 0)], vertices=[3, 0])
        assert graph_digest(a) == graph_digest(b)

    def test_edge_endpoint_order_is_irrelevant(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(1, 0)])
        assert graph_digest(a) == graph_digest(b)

    def test_different_edges_differ(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(0, 1), (0, 2)])
        assert graph_digest(a) != graph_digest(b)

    def test_isolated_vertices_matter(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 1)], vertices=[2])
        assert graph_digest(a) != graph_digest(b)

    def test_tuple_and_str_vertices_digest(self):
        g = Graph.from_edges([(("a", 1), ("b", 2)), (("b", 2), ("c", 3))])
        h = Graph.from_edges([(("b", 2), ("c", 3)), (("a", 1), ("b", 2))])
        assert graph_digest(g) == graph_digest(h)

    def test_newline_bearing_vertices_cannot_collide(self):
        # Adversarial inputs for the v1 newline-join weakness: vertex names
        # containing the line separator must stay distinguishable from
        # topologically different graphs whose serialisations align.
        a = Graph.from_edges([("u\nv", "w")])
        b = Graph.from_edges([("u", "v\nw")])
        assert graph_digest(a) != graph_digest(b)
        c = Graph.from_edges([("x", "y")], vertices=["u\nv"])
        d = Graph.from_edges([("x", "y")], vertices=["u", "v"])
        assert graph_digest(c) != graph_digest(d)


class TestLabelingDigest:
    def test_discrete_stable_across_assignment_order(self):
        a = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 0, 2: 1})
        b = DiscreteLabeling((0.8, 0.2), {2: 1, 0: 1, 1: 0})
        assert labeling_digest(a) == labeling_digest(b)

    def test_discrete_sensitive_to_assignment(self):
        a = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 0})
        b = DiscreteLabeling((0.8, 0.2), {0: 0, 1: 1})
        assert labeling_digest(a) != labeling_digest(b)

    def test_discrete_sensitive_to_probabilities(self):
        a = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 0})
        b = DiscreteLabeling((0.7, 0.3), {0: 1, 1: 0})
        assert labeling_digest(a) != labeling_digest(b)

    def test_discrete_symbol_commas_cannot_collide(self):
        a = DiscreteLabeling((0.5, 0.5), {0: 0}, symbols=["a,b", "c"])
        b = DiscreteLabeling((0.5, 0.5), {0: 0}, symbols=["a", "b,c"])
        assert labeling_digest(a) != labeling_digest(b)

    def test_continuous_stable_across_order(self):
        a = ContinuousLabeling({0: [1.5, -0.2], 1: [0.0, 0.4]})
        b = ContinuousLabeling({1: [0.0, 0.4], 0: [1.5, -0.2]})
        assert labeling_digest(a) == labeling_digest(b)

    def test_continuous_sensitive_to_scores(self):
        a = ContinuousLabeling({0: [1.5], 1: [0.0]})
        b = ContinuousLabeling({0: [1.5], 1: [0.1]})
        assert labeling_digest(a) != labeling_digest(b)


class TestPrefixDigest:
    def test_discrete_ignores_edge_order_and_seed(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        lab = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 1, 2: 0})
        base = prefix_digest(g, lab, n_theta=10)
        assert prefix_digest(
            g, lab, n_theta=10, edge_order="shuffled", seed=7
        ) == base
        assert prefix_digest(
            g, lab, n_theta=10, edge_order="by_chi_square"
        ) == base

    def test_n_theta_is_part_of_the_key(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        lab = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 1, 2: 0})
        assert prefix_digest(g, lab, n_theta=10) != prefix_digest(
            g, lab, n_theta=11
        )

    def test_continuous_edge_order_is_part_of_the_key(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        lab = ContinuousLabeling({0: [1.0], 1: [2.0], 2: [0.5]})
        assert prefix_digest(
            g, lab, n_theta=10, edge_order="input"
        ) != prefix_digest(g, lab, n_theta=10, edge_order="by_chi_square")

    def test_newline_bearing_symbols_cannot_collide(self):
        a = DiscreteLabeling((0.5, 0.5), {0: 0}, symbols=["s\nt", "u"])
        b = DiscreteLabeling((0.5, 0.5), {0: 0}, symbols=["s", "t\nu"])
        assert labeling_digest(a) != labeling_digest(b)

    def test_continuous_shuffled_requires_int_seed(self):
        g = Graph.from_edges([(0, 1)])
        lab = ContinuousLabeling({0: [1.0], 1: [2.0]})
        with pytest.raises(DigestError):
            prefix_digest(g, lab, n_theta=10, edge_order="shuffled")
        with pytest.raises(DigestError):
            prefix_digest(g, lab, n_theta=10, edge_order="shuffled", seed=True)
        a = prefix_digest(g, lab, n_theta=10, edge_order="shuffled", seed=3)
        b = prefix_digest(g, lab, n_theta=10, edge_order="shuffled", seed=4)
        assert a != b


class TestPrefixDigestFromParts:
    """The parts-based derivation must agree with the instance-based one —
    that equality is what lets registry-resolved jobs skip re-hashing."""

    def test_discrete_matches_instance_hash(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        lab = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 1, 2: 0})
        derived = prefix_digest_from_parts(
            graph_digest(g), labeling_digest(lab),
            discrete=True, n_theta=10, edge_order="shuffled", seed=99,
        )
        assert derived == prefix_digest(
            g, lab, n_theta=10, edge_order="shuffled", seed=99
        )

    def test_continuous_matches_instance_hash(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        lab = ContinuousLabeling({0: [1.0], 1: [2.0], 2: [0.5]})
        for order in ("input", "by_chi_square"):
            derived = prefix_digest_from_parts(
                graph_digest(g), labeling_digest(lab),
                discrete=False, n_theta=15, edge_order=order,
            )
            assert derived == prefix_digest(
                g, lab, n_theta=15, edge_order=order
            )

    def test_continuous_shuffled_requires_int_seed(self):
        with pytest.raises(DigestError):
            prefix_digest_from_parts(
                "a" * 64, "b" * 64,
                discrete=False, n_theta=10, edge_order="shuffled",
            )


class TestScanOrderDigest:
    """Algorithm 2 scans vertices and edges in iteration order, so the
    continuous prefix key must tell apart graphs that differ only there."""

    @staticmethod
    def pair():
        a = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        b = Graph.from_edges([(2, 3), (1, 2), (0, 1)])
        return a, b

    def test_insertion_order_changes_the_scan_digest_only(self):
        a, b = self.pair()
        assert graph_digest(a) == graph_digest(b)
        assert scan_order_digest(a) != scan_order_digest(b)
        assert scan_order_digest(a) == scan_order_digest(a.copy())

    def test_edge_orientation_is_part_of_the_scan(self):
        a = Graph([0, 1])
        a.add_edge(0, 1)
        b = Graph([1, 0])
        b.add_edge(0, 1)
        assert list(a.edges()) == [(0, 1)] and list(b.edges()) == [(1, 0)]
        assert scan_order_digest(a) != scan_order_digest(b)

    def test_cache_keys_continuous_prefixes_on_the_scan(self):
        a, b = self.pair()
        continuous = ContinuousLabeling({v: [float(v)] for v in range(4)})
        discrete = DiscreteLabeling((0.5, 0.5), {v: v % 2 for v in range(4)})
        cache = SuperGraphCache()
        assert cache.key(a, continuous, n_theta=10) != cache.key(
            b, continuous, n_theta=10
        )
        assert cache.key(a, discrete, n_theta=10) == cache.key(
            b, discrete, n_theta=10
        ) == prefix_digest(a, discrete, n_theta=10)
