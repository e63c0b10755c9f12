"""Tests for live search-progress snapshots and their aggregation."""

from __future__ import annotations

import pytest

from repro.enumerate.accumulators import DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.generators import gnp_random_graph
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.telemetry.progress import (
    DEFAULT_PUBLISH_INTERVAL,
    ProgressAggregator,
    SearchProgress,
)

pytestmark = pytest.mark.telemetry


def random_instance(n=12, seed=5):
    """A random labeled instance large enough for multi-state searches."""
    graph = gnp_random_graph(n, 0.3, seed=seed)
    labeling = DiscreteLabeling.random(
        graph, uniform_probabilities(2), seed=seed + 1
    )
    bitset = BitsetGraph(graph)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * labeling.num_labels
        counts[labeling.label_of(v)] = 1
        payloads.append(tuple(counts))
    return bitset, DiscreteAccumulator(labeling.probabilities, payloads)


class TestSearchProgress:
    def test_combined_adds_counters_and_maxes_best(self):
        a = SearchProgress(states_visited=10, bound_cuts=2,
                           best_chi_square=1.5, elapsed_seconds=0.5)
        b = SearchProgress(states_visited=5, bound_cuts=1,
                           best_chi_square=3.0, kernel_batches=2,
                           elapsed_seconds=0.2)
        c = a.combined(b)
        assert c.states_visited == 15
        assert c.bound_cuts == 3
        assert c.best_chi_square == 3.0
        assert c.kernel_batches == 2
        assert c.elapsed_seconds == 0.5

    def test_combined_none_best_is_identity(self):
        a = SearchProgress(best_chi_square=None)
        b = SearchProgress(best_chi_square=2.0)
        assert a.combined(b).best_chi_square == 2.0
        assert b.combined(a).best_chi_square == 2.0
        assert a.combined(a).best_chi_square is None

    def test_payload_round_trip(self):
        snap = SearchProgress(states_visited=7, bound_cuts=3,
                              best_chi_square=1.25, kernel_batches=4,
                              elapsed_seconds=0.125)
        assert SearchProgress.from_payload(snap.to_payload()) == snap

    def test_from_payload_tolerates_missing_fields(self):
        assert SearchProgress.from_payload({}) == SearchProgress()


class TestProgressAggregator:
    def test_cumulative_stacks_calls_monotonically(self):
        clock = iter(float(i) for i in range(100))
        seen = []
        agg = ProgressAggregator(seen.append, min_interval=0.0,
                                 clock=lambda: next(clock))
        agg(SearchProgress(states_visited=5, best_chi_square=1.0))
        agg(SearchProgress(states_visited=9, best_chi_square=2.0))
        agg.finish_call()
        # The next call's counters restart from zero; cumulative must not.
        agg(SearchProgress(states_visited=3, best_chi_square=0.5))
        agg.flush()
        visited = [snap.states_visited for snap in seen]
        assert visited == sorted(visited)
        assert visited[-1] == 12
        assert seen[-1].best_chi_square == 2.0

    def test_throttle_limits_publish_rate(self):
        now = [0.0]
        seen = []
        agg = ProgressAggregator(seen.append, min_interval=1.0,
                                 clock=lambda: now[0])
        for i in range(10):
            now[0] += 0.2
            agg(SearchProgress(states_visited=i))
        # 10 offers over 2 simulated seconds, 1s throttle -> few publishes.
        assert 1 <= agg.published <= 3
        agg.flush()
        assert seen[-1].states_visited == 9

    def test_default_interval_is_modest(self):
        assert DEFAULT_PUBLISH_INTERVAL == pytest.approx(0.1)


class TestSearchEmitsProgress:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_snapshots_are_monotone_and_final(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        bitset, acc = random_instance()
        seen = []
        outcome = exhaustive_best_mask(
            bitset.adjacency, acc, backend=backend, progress=seen.append
        )
        assert seen, "the search must emit at least the final snapshot"
        visited = [snap.states_visited for snap in seen]
        assert visited == sorted(visited)
        assert visited[-1] == outcome.explored
        assert seen[-1].best_chi_square == pytest.approx(outcome.chi_square)
        if backend == "numpy":
            assert seen[-1].kernel_batches >= 1

    def test_backends_agree_on_final_counts(self):
        pytest.importorskip("numpy")
        bitset, acc = random_instance()
        finals = {}
        for backend in ("python", "numpy"):
            seen = []
            exhaustive_best_mask(
                bitset.adjacency, acc, backend=backend, progress=seen.append
            )
            finals[backend] = seen[-1]
        assert (finals["python"].states_visited
                == finals["numpy"].states_visited)

    def test_bounded_search_counts_cuts(self):
        bitset, acc = random_instance()
        seen = []
        outcome = exhaustive_best_mask(
            bitset.adjacency, acc, prune="bounds", progress=seen.append
        )
        assert seen[-1].bound_cuts == outcome.bound_cuts
        assert seen[-1].best_chi_square == pytest.approx(outcome.chi_square)
