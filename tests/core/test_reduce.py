"""Unit tests for Algorithm 5 (super-graph reduction)."""

from __future__ import annotations

import math

import pytest

from repro.core import reduce as reduce_module
from repro.exceptions import GraphError
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.construct_continuous import build_continuous_supergraph
from repro.core.construct_discrete import build_discrete_supergraph
from repro.core.reduce import reduce_supergraph
from repro.core.supergraph import SuperGraph
from repro.stats.chi_square import CountVector


def chain_supergraph(chi_squares):
    """A path of singleton super-vertices with prescribed X^2 magnitudes.

    Uses 1-d continuous payloads: z = sqrt(X^2).
    """
    from repro.stats.zscore import RegionScore

    sg = SuperGraph()
    ids = []
    for i, x2 in enumerate(chi_squares):
        sv = sg.add_super_vertex([i], RegionScore.from_vertex((x2**0.5,)))
        ids.append(sv.id)
    for a, b in zip(ids, ids[1:]):
        sg.add_super_edge(a, b)
    return sg, ids


class TestReduction:
    def test_reaches_threshold(self):
        g = gnm_random_graph(60, 90, seed=1)
        lab = DiscreteLabeling.random(g, uniform_probabilities(4), seed=2)
        sg = build_discrete_supergraph(g, lab)
        assert sg.num_super_vertices > 10
        contractions = reduce_supergraph(sg, 10)
        assert sg.num_super_vertices == 10
        assert contractions > 0
        sg.validate_against(g)

    def test_noop_when_already_small(self):
        g = Graph.path(3)
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 0, 2: 0})
        sg = build_discrete_supergraph(g, lab)
        assert reduce_supergraph(sg, 5) == 0

    def test_contracts_minimum_chi_square_pair_first(self):
        sg, ids = chain_supergraph([9.0, 0.5, 0.4, 16.0])
        reduce_supergraph(sg, 3)
        # The 0.5 + 0.4 pair has the least sum and must merge first.
        merged = sg.super_of(1)
        assert merged.members == frozenset({1, 2})

    def test_stops_without_edges(self):
        sg = SuperGraph()
        sg.add_super_vertex([0], CountVector((0.5, 0.5), [1, 0]))
        sg.add_super_vertex([1], CountVector((0.5, 0.5), [0, 1]))
        # Two isolated super-vertices cannot be contracted below 2.
        contractions = reduce_supergraph(sg, 1)
        assert contractions == 0
        assert sg.num_super_vertices == 2

    def test_invalid_threshold(self):
        sg = SuperGraph()
        with pytest.raises(GraphError):
            reduce_supergraph(sg, 0)

    def test_heap_and_scan_agree_on_final_size(self):
        for seed in range(4):
            g = gnm_random_graph(50, 80, seed=seed)
            lab = ContinuousLabeling.random(g, 1, seed=seed + 10)
            a = build_continuous_supergraph(g, lab)
            b = build_continuous_supergraph(g, lab)
            reduce_supergraph(a, 8, use_heap=True)
            reduce_supergraph(b, 8, use_heap=False)
            assert a.num_super_vertices == b.num_super_vertices
            # Both reduce greedily by the same criterion; the resulting
            # partitions must coincide (ties broken identically by vertex
            # id order in both implementations may differ, so compare the
            # multiset of block sizes instead of exact blocks).
            assert sorted(len(m) for m in a.partition()) == sorted(
                len(m) for m in b.partition()
            )

    def test_reduction_preserves_original_cover(self):
        g = gnm_random_graph(40, 60, seed=5)
        lab = ContinuousLabeling.random(g, 2, seed=6)
        sg = build_continuous_supergraph(g, lab)
        reduce_supergraph(sg, 5)
        assert sg.total_original_vertices() == 40
        sg.validate_against(g)

    def test_lemma8_bound_holds_during_reduction(self):
        """Lemma 8: merged X^2 <= X^2_1 + X^2_2 for every contraction."""
        sg, ids = chain_supergraph([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        # Instrument by reducing one step at a time.  The merge absorbs the
        # smaller vertex into the larger one, so the merged vertex is the
        # surviving id whose size grew.
        while sg.num_super_vertices > 1:
            before = {
                sv.id: (sv.size, sv.chi_square) for sv in sg.super_vertices()
            }
            if reduce_supergraph(sg, sg.num_super_vertices - 1) == 0:
                break
            merged = [
                sv
                for sv in sg.super_vertices()
                if sv.id not in before or sv.size != before[sv.id][0]
            ]
            assert len(merged) == 1
            # The merge result is bounded by the sum of the two smallest
            # adjacent sums, hence certainly by the global sum.
            total_before = sum(chi for _, chi in before.values())
            assert merged[0].chi_square <= total_before + 1e-9


class TestHeapCompaction:
    @staticmethod
    def sparse_1k_instance():
        # 1000-vertex sparse graph: heavy contraction (n_theta=15) on a
        # sparse topology is exactly the regime where neighbour re-pushes
        # make the lazy-deletion heap balloon with stale entries.
        g = gnm_random_graph(1000, 1500, seed=42)
        lab = ContinuousLabeling.random(g, 1, seed=43)
        return g, lab

    @staticmethod
    def reduce_with_metrics(compact):
        from repro.telemetry import telemetry_session

        g, lab = TestHeapCompaction.sparse_1k_instance()
        sg = build_continuous_supergraph(g, lab)
        with pytest.MonkeyPatch.context() as patch:
            if not compact:
                # No stale count exceeds inf * live, and inf * 0 is NaN,
                # which compares false, so this baseline never compacts,
                # not even once no live edge is left.
                patch.setattr(reduce_module, "COMPACTION_FACTOR", math.inf)
            with telemetry_session() as (_, metrics):
                reduce_supergraph(sg, 15)
                snapshot = metrics.snapshot()
        return sg, snapshot

    def test_compaction_bounds_stale_entries_on_sparse_graph(self):
        compacted_sg, compacted = self.reduce_with_metrics(True)
        baseline_sg, baseline = self.reduce_with_metrics(False)

        assert compacted["reduce.heap_compactions"] >= 1
        assert baseline.get("reduce.heap_compactions", 0) == 0
        # Compaction discards dead entries wholesale instead of popping
        # them one by one, so the stale-pop count must drop sharply.
        assert compacted["reduce.heap_stale_entries"] < (
            baseline["reduce.heap_stale_entries"] / 2
        )

    def test_compaction_is_exact(self):
        # Priorities are recomputed on pop either way, so rebuilding the
        # heap cannot change which edge is contracted next: the final
        # partitions must coincide block for block.
        compacted_sg, _ = self.reduce_with_metrics(True)
        baseline_sg, _ = self.reduce_with_metrics(False)
        assert compacted_sg.num_super_vertices == baseline_sg.num_super_vertices
        assert {
            frozenset(m) for m in compacted_sg.partition()
        } == {frozenset(m) for m in baseline_sg.partition()}
