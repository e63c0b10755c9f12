"""Property-based tests for connected-subgraph enumeration and search.

Besides the enumeration-vs-oracle checks, this module runs the search
*differentially across backends* on hypothesis-generated graphs: the
vectorized numpy kernel must return the bit-identical
:class:`SearchOutcome` as the reference python DFS.  Labelings draw
dyadic or non-dyadic probabilities; the discrete statistic is evaluated
from integer counts either way, so the equality is ``==``.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumerate.accumulators import DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph, iter_bits
from repro.enumerate.connected import (
    count_connected_subgraphs,
    enumerate_connected_subsets,
    reference_connected_subsets,
)
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.components import is_connected_subset
from repro.graph.graph import Graph

pytestmark = pytest.mark.properties


DYADIC_PROBS = (0.5, 0.25, 0.25)
NON_DYADIC_PROBS = (0.37, 0.29, 0.21, 0.13)


@st.composite
def small_graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
        if possible
        else st.just([])
    )
    return Graph.from_edges(edges, vertices=range(n))


class TestEnumerationProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_matches_brute_force_oracle(self, graph):
        ours = set(enumerate_connected_subsets(graph))
        assert ours == reference_connected_subsets(graph)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_every_emitted_set_is_connected(self, graph):
        for subset in enumerate_connected_subsets(graph):
            assert is_connected_subset(graph, subset)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_no_duplicates(self, graph):
        subsets = list(enumerate_connected_subsets(graph))
        assert len(subsets) == len(set(subsets))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 8))
    def test_size_bounds_respected(self, data, min_mass):
        # The search's mass floor against the enumeration filtered by
        # size: on unit payloads the winner is the best connected set of
        # at least min_mass vertices, ties to the smallest bitmask.
        graph, labels, probs = data.draw(labeled_graphs())
        adjacency, acc = _instance(graph, labels, probs)
        bitset = BitsetGraph(graph)
        best_mask, best_value = 0, float("-inf")
        for subset in enumerate_connected_subsets(graph):
            if len(subset) < min_mass:
                continue
            mask = bitset.mask_of_vertices(subset)
            for i in iter_bits(mask):
                acc.push(i)
            value = acc.chi_square()
            for i in iter_bits(mask):
                acc.pop(i)
            if value > best_value or (value == best_value and mask < best_mask):
                best_mask, best_value = mask, value
        for prune in ("none", "bounds"):
            outcome = exhaustive_best_mask(
                adjacency, acc, min_mass=min_mass, prune=prune
            )
            assert outcome.mask == best_mask
            if best_mask:
                assert outcome.chi_square == best_value

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_singletons_always_present(self, graph):
        subsets = set(enumerate_connected_subsets(graph))
        for v in graph.vertices():
            assert frozenset({v}) in subsets


def _instance(graph, labels, probs):
    """Adjacency + a fresh accumulator for a labeled graph."""
    bitset = BitsetGraph(graph)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * len(probs)
        counts[labels[v]] = 1
        payloads.append(tuple(counts))
    return bitset.adjacency, DiscreteAccumulator(probs, payloads)


@st.composite
def labeled_graphs(draw, max_vertices=8):
    graph = draw(small_graphs(max_vertices=max_vertices))
    probs = draw(st.sampled_from([DYADIC_PROBS, NON_DYADIC_PROBS]))
    labels = {
        v: draw(st.integers(0, len(probs) - 1))
        for v in graph.vertices()
    }
    return graph, labels, probs


class TestBackendDifferentialProperties:
    """The numpy kernel is indistinguishable from the python DFS."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), st.integers(1, 6))
    def test_bit_identical_outcome(self, instance, min_mass):
        graph, labels, probs = instance
        adjacency, acc = _instance(graph, labels, probs)
        python = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, backend="python"
        )
        numpy_ = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, backend="numpy"
        )
        assert numpy_ == python

    @settings(max_examples=40, deadline=None)
    @given(labeled_graphs())
    def test_explored_matches_connected_set_count(self, instance):
        # Under prune="none" both backends must visit every connected set
        # exactly once; the standalone enumerator is the oracle count.
        graph, labels, probs = instance
        adjacency, acc = _instance(graph, labels, probs)
        expected = count_connected_subgraphs(graph, limit=None)
        python = exhaustive_best_mask(adjacency, acc, backend="python")
        numpy_ = exhaustive_best_mask(adjacency, acc, backend="numpy")
        assert python.explored == expected
        assert numpy_.explored == expected
