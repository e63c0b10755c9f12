"""Unit tests for the exhaustive MSCS search (vs enumerate-everything oracle)."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import EnumerationLimitError, SearchAbortedError
from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.connected import enumerate_connected_subsets
from repro.enumerate.search import (
    PRUNE_MODES,
    SEARCH_BACKENDS,
    exhaustive_best_mask,
)
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities


def brute_force_best_discrete(graph, labeling):
    """Oracle: evaluate chi-square over every connected subset directly."""
    best_value, best_set = float("-inf"), frozenset()
    for subset in enumerate_connected_subsets(graph):
        value = labeling.chi_square(subset)
        if value > best_value:
            best_value, best_set = value, subset
    return best_set, best_value


def best_subset(bitset, accumulator):
    """``(vertex_set, chi_square, explored)`` of the search's winner."""
    outcome = exhaustive_best_mask(bitset.adjacency, accumulator)
    return bitset.vertex_set(outcome.mask), outcome.chi_square, outcome.explored


def discrete_accumulator_for(graph, labeling):
    bitset = BitsetGraph(graph)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * labeling.num_labels
        counts[labeling.label_of(v)] = 1
        payloads.append(tuple(counts))
    return bitset, DiscreteAccumulator(labeling.probabilities, payloads)


class TestDiscreteSearch:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        g = gnp_random_graph(10, 0.35, seed=seed)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=seed + 50)
        bitset, acc = discrete_accumulator_for(g, lab)
        subset, value, _ = best_subset(bitset, acc)
        _, oracle_value = brute_force_best_discrete(g, lab)
        assert value == pytest.approx(oracle_value)
        assert lab.chi_square(subset) == pytest.approx(oracle_value)

    def test_known_instance(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        subset, value, _ = best_subset(bitset, acc)
        # The rare-label triangle is the most significant region.
        assert subset == frozenset({0, 1, 2})
        assert value == pytest.approx(labeling.chi_square([0, 1, 2]))

    def test_explored_counts_all_connected_sets(self, triangle):
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1, 2: 0})
        bitset, acc = discrete_accumulator_for(triangle, lab)
        outcome = exhaustive_best_mask(bitset.adjacency, acc)
        assert outcome.explored == 7

    def test_empty_graph(self):
        bitset, acc = discrete_accumulator_for(
            Graph(), DiscreteLabeling((0.5, 0.5), {})
        )
        subset, value, explored = best_subset(bitset, acc)
        assert subset == frozenset()
        assert value == 0.0
        assert explored == 0

    def test_limit_enforced(self):
        g = Graph.complete(12)
        lab = DiscreteLabeling.random(g, (0.5, 0.5), seed=1)
        bitset, acc = discrete_accumulator_for(g, lab)
        with pytest.raises(EnumerationLimitError):
            exhaustive_best_mask(bitset.adjacency, acc, limit=50)

    @pytest.mark.parametrize("abort", ["limit", "check_abort"])
    def test_aborted_walk_leaves_accumulator_clean(self, abort):
        # Regression: an aborted walk used to leave its partial set pushed,
        # so the next search on the same accumulator found a wrong winner.
        g = Graph.complete(12)
        lab = DiscreteLabeling.random(g, (0.5, 0.2, 0.3), seed=3)
        bitset, acc = discrete_accumulator_for(g, lab)
        fresh = exhaustive_best_mask(bitset.adjacency, acc)
        polls = iter([False])  # pass the up-front poll, fire inside the walk
        kwargs = (
            {"limit": 300} if abort == "limit"
            else {"check_abort": lambda: next(polls, True)}
        )
        error = EnumerationLimitError if abort == "limit" else SearchAbortedError
        with pytest.raises(error):
            exhaustive_best_mask(bitset.adjacency, acc, **kwargs)
        assert acc.size == 0
        assert exhaustive_best_mask(bitset.adjacency, acc) == fresh

    def test_min_size_respected(self, small_labeled):
        # Unit payloads: the mass floor is a vertex-count floor.
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        outcome = exhaustive_best_mask(bitset.adjacency, acc, min_mass=5)
        assert bin(outcome.mask).count("1") >= 5
        # Only the connected sets of 5 or 6 vertices are scored: the
        # whole graph and the three that drop vertex 0, 1 or 5.
        assert outcome.evaluated == 4

    @pytest.mark.parametrize("prune", PRUNE_MODES)
    def test_min_mass_counts_payload_mass(self, prune):
        # A path 0-1-2 whose vertex 2 stands for three original vertices.
        # {0, 1} (mass 2, chi-square 2) would win unconstrained; under
        # min_mass=3 the best eligible set is {2} (chi-square 1/3).
        acc = DiscreteAccumulator((0.5, 0.5), [(0, 1), (0, 1), (2, 1)])
        adjacency = [0b010, 0b101, 0b010]
        assert exhaustive_best_mask(adjacency, acc, prune=prune).mask == 0b011
        outcome = exhaustive_best_mask(adjacency, acc, min_mass=3, prune=prune)
        assert outcome.mask == 0b100
        assert outcome.chi_square == pytest.approx(1 / 3)
        if prune == "none":
            # {2}, {1, 2} and {0, 1, 2} have mass >= 3.
            assert (outcome.explored, outcome.evaluated) == (6, 3)

    def test_unreachable_mass_floor_finds_nothing(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        for prune in PRUNE_MODES:
            outcome = exhaustive_best_mask(
                bitset.adjacency, acc, min_mass=7, prune=prune
            )
            assert outcome.mask == 0
            assert outcome.evaluated == 0

    def test_invalid_bounds(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        with pytest.raises(ValueError, match="min_mass"):
            exhaustive_best_mask(bitset.adjacency, acc, min_mass=0)


class TestContinuousSearch:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        g = gnp_random_graph(10, 0.35, seed=seed + 100)
        lab = ContinuousLabeling.random(g, 2, seed=seed + 200)
        bitset = BitsetGraph(g)
        acc = ContinuousAccumulator(
            [(lab.z_score_of(v), 1) for v in bitset.vertices]
        )
        subset, value, _ = best_subset(bitset, acc)
        best_value = max(
            lab.chi_square(s) for s in enumerate_connected_subsets(g)
        )
        assert value == pytest.approx(best_value)
        assert lab.chi_square(subset) == pytest.approx(value)

    def test_single_strong_vertex_wins(self):
        g = Graph.path(3)
        lab = ContinuousLabeling.from_scalar({0: 10.0, 1: -0.1, 2: 0.1})
        bitset = BitsetGraph(g)
        acc = ContinuousAccumulator(
            [(lab.z_score_of(v), 1) for v in bitset.vertices]
        )
        subset, value, _ = best_subset(bitset, acc)
        assert subset == frozenset({0})
        assert value == pytest.approx(100.0)


class TestDeepGraphs:
    def test_long_path_does_not_recurse(self):
        """The DFS depth equals the region size; a long path must not hit
        Python's recursion limit (regression: the search is iterative)."""
        n = 2500
        g = Graph.path(n)
        lab = DiscreteLabeling((0.5, 0.5), {v: v % 2 for v in range(n)})
        bitset, acc = discrete_accumulator_for(g, lab)
        subset, value, explored = best_subset(bitset, acc)
        # A path on n vertices has n(n+1)/2 connected subsets.
        assert explored == n * (n + 1) // 2
        assert value == pytest.approx(1.0)

    def test_push_pop_balance_after_search(self):
        g = gnp_random_graph(12, 0.4, seed=77)
        lab = DiscreteLabeling.random(g, uniform_probabilities(2), seed=78)
        bitset, acc = discrete_accumulator_for(g, lab)
        best_subset(bitset, acc)
        # The accumulator must end exactly where it started: empty.
        assert acc.chi_square() == 0.0
        assert acc.size == 0


class _CountingAccumulator:
    """A well-formed accumulator that is not one of the bundled types."""

    def __init__(self):
        self._n = 0

    def push(self, index):  # pragma: no cover - never called
        self._n += 1

    def pop(self, index):  # pragma: no cover - never called
        self._n -= 1

    def chi_square(self):  # pragma: no cover - never called
        return float(self._n)

    def upper_bound(self, candidate_mask):
        return float("inf")  # pragma: no cover - never called


class TestAccumulatorContract:
    @pytest.mark.parametrize("prune", PRUNE_MODES)
    @pytest.mark.parametrize("backend", SEARCH_BACKENDS)
    def test_non_bundled_accumulator_rejected(self, triangle, backend, prune):
        bitset = BitsetGraph(triangle)
        with pytest.raises(TypeError, match="_CountingAccumulator"):
            exhaustive_best_mask(
                bitset.adjacency, _CountingAccumulator(),
                backend=backend, prune=prune,
            )


@pytest.mark.bounds
class TestPruneModes:
    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_matches_brute_force(self, seed):
        g = gnp_random_graph(10, 0.35, seed=seed)
        lab = DiscreteLabeling.random(g, (0.5, 0.25, 0.25), seed=seed + 50)
        bitset, acc = discrete_accumulator_for(g, lab)
        outcome = exhaustive_best_mask(bitset.adjacency, acc, prune="bounds")
        _, oracle_value = brute_force_best_discrete(g, lab)
        assert outcome.chi_square == pytest.approx(oracle_value)
        assert lab.chi_square(bitset.vertex_set(outcome.mask)) == pytest.approx(
            oracle_value
        )

    def test_invalid_prune_mode(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        with pytest.raises(ValueError, match="prune"):
            exhaustive_best_mask(bitset.adjacency, acc, prune="aggressive")

    def test_split_prune_counters(self):
        # Bound cuts below the statistic floor are also counted as
        # testability cuts; on this instance some bound cuts lie above it.
        g = gnp_random_graph(12, 0.4, seed=91)
        lab = DiscreteLabeling.random(g, (0.5, 0.25, 0.25), seed=92)
        bitset, acc = discrete_accumulator_for(g, lab)
        plain = exhaustive_best_mask(bitset.adjacency, acc, prune="bounds")
        floor = plain.chi_square / 2
        outcome = exhaustive_best_mask(
            bitset.adjacency, acc, prune="bounds", statistic_floor=floor,
        )
        assert outcome.mask == plain.mask
        assert outcome.chi_square == plain.chi_square
        assert 0 < outcome.testability_cuts < outcome.bound_cuts
        assert plain.testability_cuts == 0

    def test_statistic_floor_needs_bounds(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        with pytest.raises(ValueError, match="statistic_floor"):
            exhaustive_best_mask(
                bitset.adjacency, acc, prune="none", statistic_floor=1.0
            )

    def test_bound_counters_zero_without_pruning(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        outcome = exhaustive_best_mask(bitset.adjacency, acc, prune="none")
        assert outcome.bound_cuts == 0
        assert outcome.bound_evaluations == 0

    def test_bounds_mode_counts_work(self, small_labeled):
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        plain = exhaustive_best_mask(bitset.adjacency, acc, prune="none")
        bounded = exhaustive_best_mask(bitset.adjacency, acc, prune="bounds")
        assert bounded.mask == plain.mask
        assert bounded.bound_evaluations > 0
        assert bounded.explored <= plain.explored

    def test_bounds_with_min_size_floor(self, small_labeled):
        # With min_mass=4 no single vertex is eligible, so none seeds the
        # incumbent, and branches that cannot reach mass 4 are cut; the
        # result must still match the unpruned search exactly.
        graph, labeling = small_labeled
        bitset, acc = discrete_accumulator_for(graph, labeling)
        plain = exhaustive_best_mask(bitset.adjacency, acc, min_mass=4)
        bounded = exhaustive_best_mask(
            bitset.adjacency, acc, min_mass=4, prune="bounds"
        )
        assert bounded.mask == plain.mask
        assert bounded.chi_square == plain.chi_square
        assert bin(bounded.mask).count("1") >= 4

    def test_limit_enforced_in_bounds_mode(self):
        g = Graph.complete(12)
        lab = DiscreteLabeling.random(g, (0.5, 0.5), seed=1)
        bitset, acc = discrete_accumulator_for(g, lab)
        with pytest.raises(EnumerationLimitError):
            exhaustive_best_mask(bitset.adjacency, acc, limit=50, prune="bounds")

    def test_accumulator_reusable_across_modes(self):
        # Satellite: a completed search leaves the accumulator empty, so
        # the same instance can serve repeated searches in either mode.
        g = gnp_random_graph(12, 0.4, seed=91)
        lab = DiscreteLabeling.random(g, (0.5, 0.25, 0.25), seed=92)
        bitset, acc = discrete_accumulator_for(g, lab)
        first = exhaustive_best_mask(bitset.adjacency, acc, prune="bounds")
        assert acc.size == 0 and acc.chi_square() == 0.0
        second = exhaustive_best_mask(bitset.adjacency, acc, prune="none")
        third = exhaustive_best_mask(bitset.adjacency, acc, prune="bounds")
        assert first.mask == second.mask == third.mask
        assert first.chi_square == third.chi_square
        assert acc.size == 0 and acc.chi_square() == 0.0


class TestAutoBackend:
    """``backend="auto"`` is the kernel on 1-64 vertices, the walk above."""

    @staticmethod
    def merged_instance(n, seed):
        # Super-vertex-like payloads (mass 1-3), so min_mass > 1 bites.
        g = gnp_random_graph(n, 3.0 / n, seed=seed)
        bitset = BitsetGraph(g)
        rng = random.Random(seed + 1)
        payloads = []
        for _ in bitset.vertices:
            counts = [0, 0, 0]
            for _ in range(rng.randint(1, 3)):
                counts[rng.randrange(3)] += 1
            payloads.append(tuple(counts))
        return bitset, DiscreteAccumulator((0.5, 0.3, 0.2), payloads)

    @staticmethod
    def search_with_batches(adjacency, acc, **kwargs):
        from repro.telemetry import names as metric
        from repro.telemetry import telemetry_session

        with telemetry_session() as (_, registry):
            outcome = exhaustive_best_mask(adjacency, acc, **kwargs)
        return outcome, registry.snapshot().get(metric.SEARCH_KERNEL_BATCHES, 0)

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("min_mass", [1, 4])
    @pytest.mark.parametrize("floored", [False, True])
    def test_bounds_searches_run_the_kernel(self, n, min_mass, floored):
        bitset, acc = self.merged_instance(n, seed=n)
        floor = None
        if floored:
            plain = exhaustive_best_mask(
                bitset.adjacency, acc, min_mass=min_mass, prune="bounds",
                backend="python",
            )
            floor = plain.chi_square / 2
        kwargs = dict(min_mass=min_mass, prune="bounds", statistic_floor=floor)
        auto, batches = self.search_with_batches(
            bitset.adjacency, acc, backend="auto", **kwargs
        )
        numpy_ = exhaustive_best_mask(bitset.adjacency, acc, backend="numpy", **kwargs)
        assert auto == numpy_
        assert batches > 0

    @pytest.mark.parametrize("prune", PRUNE_MODES)
    def test_above_64_vertices_runs_the_walk(self, prune):
        g = Graph.path(65)
        lab = DiscreteLabeling((0.5, 0.5), {v: int(v % 3 == 0) for v in range(65)})
        bitset, acc = discrete_accumulator_for(g, lab)
        auto, batches = self.search_with_batches(
            bitset.adjacency, acc, backend="auto", prune=prune
        )
        python = exhaustive_best_mask(
            bitset.adjacency, acc, backend="python", prune=prune
        )
        assert auto == python
        assert batches == 0
