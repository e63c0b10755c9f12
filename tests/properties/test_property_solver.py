"""Property-based tests for the end-to-end solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import is_connected_subset
from repro.graph.generators import gnp_random_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import mine

pytestmark = pytest.mark.properties



@st.composite
def discrete_instances(draw):
    n = draw(st.integers(3, 12))
    p = draw(st.floats(0.15, 0.7))
    l = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    g = gnp_random_graph(n, p, seed=seed)
    lab = DiscreteLabeling.random(g, uniform_probabilities(l), seed=seed + 1)
    return g, lab


@st.composite
def continuous_instances(draw):
    n = draw(st.integers(3, 12))
    p = draw(st.floats(0.15, 0.7))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    g = gnp_random_graph(n, p, seed=seed)
    lab = ContinuousLabeling.random(g, k, seed=seed + 2)
    return g, lab


class TestSolverProperties:
    @settings(max_examples=30, deadline=None)
    @given(discrete_instances())
    def test_discrete_pipeline_equals_naive_without_reduction(self, instance):
        """Conclusion 2, stated precisely: without reduction the pipeline
        never overshoots the naive optimum, and matches it exactly whenever
        the optimum is bi-connected (Lemma 2's precondition).  Optima that
        are merely connected can be missed — hypothesis finds such
        instances, which is the paper's own caveat, not a bug."""
        from repro.graph.biconnectivity import is_biconnected_subset

        g, lab = instance
        naive = mine(g, lab, method="naive").best
        pipeline = mine(g, lab, method="supergraph", n_theta=10**9).best
        assert pipeline.chi_square <= naive.chi_square + 1e-9
        if is_biconnected_subset(g, naive.vertices):
            assert pipeline.chi_square == pytest.approx(
                naive.chi_square, rel=1e-9, abs=1e-9
            )

    @settings(max_examples=30, deadline=None)
    @given(discrete_instances(), st.integers(1, 4))
    def test_reported_chi_square_matches_vertices(self, instance, t):
        g, lab = instance
        for sub in mine(g, lab, top_t=t):
            assert sub.chi_square == lab.chi_square(sub.vertices)
            assert is_connected_subset(g, sub.vertices)

    @settings(max_examples=30, deadline=None)
    @given(continuous_instances())
    def test_continuous_result_consistent(self, instance):
        g, lab = instance
        best = mine(g, lab, n_theta=10**9).best
        assert best.chi_square == lab.chi_square(best.vertices)
        assert is_connected_subset(g, best.vertices)

    @settings(max_examples=25, deadline=None)
    @given(continuous_instances())
    def test_reduction_never_beats_naive(self, instance):
        g, lab = instance
        naive = mine(g, lab, method="naive").best
        reduced = mine(g, lab, n_theta=2).best
        assert reduced.chi_square <= naive.chi_square + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(discrete_instances(), st.integers(2, 4))
    def test_top_t_vertex_disjoint(self, instance, t):
        g, lab = instance
        seen: set = set()
        for sub in mine(g, lab, top_t=t):
            assert not (seen & sub.vertices)
            seen |= sub.vertices
