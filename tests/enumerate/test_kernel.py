"""Unit tests for the vectorized numpy search kernel.

The differential property suites (``tests/properties/``) prove end-to-end
outcome equality; these tests pin the kernel's *pieces* against their
scalar references — batch statistics, bounds and closures against the
incremental accumulators and the python walk's closure elementwise — and
the edge semantics (abort, limit, fallback, degenerate graphs) of
``exhaustive_best_mask(backend="numpy")`` the integration layers rely on.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.enumerate.accumulators import (
    ContinuousAccumulator,
    DiscreteAccumulator,
)
from repro.enumerate.bitset import BitsetGraph, iter_bits
from repro.enumerate.kernel import (
    MAX_KERNEL_VERTICES,
    _batch_closure,
    _bit_matrix,
    _ContinuousScorer,
    _DiscreteScorer,
    _neighborhood_masks,
)
from repro.enumerate.search import (
    SearchOutcome,
    _reachable_closure,
    exhaustive_best_mask,
)
from repro.exceptions import EnumerationLimitError, SearchAbortedError
from repro.graph.generators import gnp_random_graph

DYADIC_PROBS = (0.5, 0.25, 0.25)


def _random_adjacency(seed, n=12, p=0.3):
    g = gnp_random_graph(n, p, seed=seed)
    return BitsetGraph(g)


def _discrete_payloads(seed, n, *, merged=False, spread=3):
    """Unit payloads, or with ``merged`` up to ``spread - 1`` extra counts."""
    rng = random.Random(seed)
    payloads = []
    for _ in range(n):
        counts = [0] * len(DYADIC_PROBS)
        counts[rng.randrange(len(DYADIC_PROBS))] = 1
        if merged:
            counts[rng.randrange(len(DYADIC_PROBS))] += rng.randrange(spread)
        payloads.append(tuple(counts))
    return payloads


def _continuous_payloads(seed, n, dims=2):
    rng = random.Random(seed)
    return [
        (tuple(rng.gauss(0.0, 1.5) for _ in range(dims)), rng.randint(1, 3))
        for _ in range(n)
    ]


def _random_connected_masks(bitset, seed, count=40):
    """Random connected vertex sets (as masks) grown by edge expansion."""
    rng = random.Random(seed)
    n = len(bitset.adjacency)
    masks = []
    for _ in range(count):
        v = rng.randrange(n)
        mask = 1 << v
        for _ in range(rng.randrange(n)):
            frontier = bitset.neighbors_mask(mask)
            if not frontier:
                break
            choice = rng.choice(list(iter_bits(frontier)))
            mask |= 1 << choice
        masks.append(mask)
    return masks


class TestNeighborhoodMasks:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bitset_adjacency(self, seed):
        bitset = _random_adjacency(seed)
        arr = _neighborhood_masks(bitset.adjacency)
        assert [int(m) for m in arr] == list(bitset.adjacency)

    def test_keeps_the_top_bit(self):
        # Vertex 63 sets the sign bit of a 64-bit word; uint64 keeps it.
        adjacency = [0] * MAX_KERNEL_VERTICES
        adjacency[0] = 1 << 63
        adjacency[63] = 1
        assert int(_neighborhood_masks(adjacency)[0]) == 1 << 63


class TestBatchClosure:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_closure(self, seed):
        bitset = _random_adjacency(seed)
        adj = _neighborhood_masks(bitset.adjacency)
        masks = _random_connected_masks(bitset, seed)
        frontiers = [bitset.neighbors_mask(mask) for mask in masks]
        batch = _batch_closure(
            adj,
            np.array(frontiers, dtype=np.uint64),
            np.array(masks, dtype=np.uint64),
        )
        for mask, frontier, got in zip(masks, frontiers, batch):
            assert int(got) == _reachable_closure(
                bitset.adjacency, frontier, mask
            )


class TestBatchScorersMatchScalar:
    """Batch chi/bound == scalar accumulator values, elementwise."""

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("merged", [False, True])
    def test_discrete_chi_bit_identical(self, seed, merged):
        bitset = _random_adjacency(seed)
        n = len(bitset.adjacency)
        payloads = _discrete_payloads(seed, n, merged=merged)
        acc = DiscreteAccumulator(DYADIC_PROBS, payloads)
        scorer = _DiscreteScorer(acc.probabilities, acc.payloads)
        masks = _random_connected_masks(bitset, seed + 500)
        chi = scorer.chi_masks(np.array(masks, dtype=np.uint64))
        for mask, got in zip(masks, chi):
            for i in iter_bits(mask):
                acc.push(i)
            # Dyadic probabilities: both paths are exact, compare with ==.
            assert float(got) == acc.chi_square()
            for i in reversed(list(iter_bits(mask))):
                acc.pop(i)

    @pytest.mark.parametrize("seed", range(15))
    def test_continuous_chi_close(self, seed):
        bitset = _random_adjacency(seed)
        n = len(bitset.adjacency)
        acc = ContinuousAccumulator(_continuous_payloads(seed, n))
        scorer = _ContinuousScorer(acc.payloads)
        masks = _random_connected_masks(bitset, seed + 500)
        chi = scorer.chi_masks(np.array(masks, dtype=np.uint64))
        for mask, got in zip(masks, chi):
            for i in iter_bits(mask):
                acc.push(i)
            assert float(got) == pytest.approx(
                acc.chi_square(), rel=1e-12, abs=1e-12
            )
            for i in reversed(list(iter_bits(mask))):
                acc.pop(i)

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("spread", [1, 3, 64])
    def test_discrete_bound_bit_identical(self, seed, spread):
        # spread=1 keeps unit payloads; 64 adds counts up to 63, which
        # reach deeper count bit planes and larger closure masses.
        bitset = _random_adjacency(seed)
        n = len(bitset.adjacency)
        payloads = _discrete_payloads(seed, n, merged=True, spread=spread)
        acc = DiscreteAccumulator(DYADIC_PROBS, payloads)
        scorer = _DiscreteScorer(acc.probabilities, acc.payloads)
        masks = _random_connected_masks(bitset, seed + 900)
        rows, closures = [], []
        for mask in masks:
            closure = bitset.neighbors_mask(mask)
            if closure:
                rows.append(mask)
                closures.append(closure)
        if not rows:
            pytest.skip("degenerate draw: no expandable sets")
        bound = scorer.bound(
            _bit_matrix(np.array(rows, dtype=np.uint64), n),
            _bit_matrix(np.array(closures, dtype=np.uint64), n),
        )
        for mask, closure, got in zip(rows, closures, bound):
            for i in iter_bits(mask):
                acc.push(i)
            assert float(got) == acc.upper_bound(closure)
            for i in reversed(list(iter_bits(mask))):
                acc.pop(i)

    @pytest.mark.parametrize("seed", range(15))
    def test_continuous_bound_close_and_admissible(self, seed):
        bitset = _random_adjacency(seed)
        n = len(bitset.adjacency)
        acc = ContinuousAccumulator(_continuous_payloads(seed, n))
        scorer = _ContinuousScorer(acc.payloads)
        masks = _random_connected_masks(bitset, seed + 900)
        rows, closures = [], []
        for mask in masks:
            closure = bitset.neighbors_mask(mask)
            if closure:
                rows.append(mask)
                closures.append(closure)
        if not rows:
            pytest.skip("degenerate draw: no expandable sets")
        bound = scorer.bound(
            _bit_matrix(np.array(rows, dtype=np.uint64), n),
            _bit_matrix(np.array(closures, dtype=np.uint64), n),
        )
        for mask, closure, got in zip(rows, closures, bound):
            for i in iter_bits(mask):
                acc.push(i)
            scalar = acc.upper_bound(closure)
            assert float(got) == pytest.approx(scalar, rel=1e-12)
            # Either way the bound must dominate the current statistic.
            assert float(got) >= acc.chi_square() - 1e-9
            for i in reversed(list(iter_bits(mask))):
                acc.pop(i)

    def test_bound_ties_near_cutoff_are_exact(self):
        # A symmetric instance where several subsets share the optimal
        # statistic exactly: the batch bound at the incumbent threshold
        # must equal the scalar bound bit-for-bit or the strict cut
        # (bound < incumbent) could disagree between backends.
        payloads = [(1, 0, 0)] * 4
        adjacency = [0b1110, 0b1101, 0b1011, 0b0111]  # K4
        acc = DiscreteAccumulator(DYADIC_PROBS, payloads)
        scorer = _DiscreteScorer(acc.probabilities, acc.payloads)
        for mask in (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100):
            closure = 0b1111 ^ mask
            batch = scorer.bound(
                _bit_matrix(np.array([mask], dtype=np.uint64), 4),
                _bit_matrix(np.array([closure], dtype=np.uint64), 4),
            )
            for i in iter_bits(mask):
                acc.push(i)
            assert float(batch[0]) == acc.upper_bound(closure)
            for i in reversed(list(iter_bits(mask))):
                acc.pop(i)


def _instance(seed, n=10, p=0.32):
    bitset = _random_adjacency(seed, n=n, p=p)
    acc = DiscreteAccumulator(
        DYADIC_PROBS, _discrete_payloads(seed, len(bitset.adjacency))
    )
    return bitset.adjacency, acc


def _numpy_search(adjacency, acc, **kwargs):
    return exhaustive_best_mask(adjacency, acc, backend="numpy", **kwargs)


class TestKernelEdgeSemantics:
    def test_empty_graph(self):
        acc = DiscreteAccumulator(DYADIC_PROBS, [])
        assert _numpy_search([], acc) == SearchOutcome(
            mask=0, chi_square=0.0, explored=0
        )

    def test_single_vertex(self):
        acc = DiscreteAccumulator(DYADIC_PROBS, [(0, 1, 0)])
        outcome = _numpy_search([0], acc)
        assert outcome.mask == 1
        assert outcome.explored == 1

    def test_limit_raises_with_python_semantics(self):
        adjacency, acc = _instance(3)
        full = _numpy_search(adjacency, acc)
        with pytest.raises(EnumerationLimitError):
            _numpy_search(adjacency, acc, limit=full.explored // 2)
        # A limit the search fits under changes nothing.
        assert _numpy_search(adjacency, acc, limit=full.explored) == full

    def test_check_abort_before_start(self):
        adjacency, acc = _instance(4)
        with pytest.raises(SearchAbortedError):
            _numpy_search(adjacency, acc, check_abort=lambda: True)

    def test_check_abort_mid_batch_leaves_no_partial_state(self):
        adjacency, acc = _instance(5)
        calls = {"n": 0}

        def abort_later():
            calls["n"] += 1
            return calls["n"] > 3

        with pytest.raises(SearchAbortedError):
            _numpy_search(adjacency, acc, check_abort=abort_later)
        # The kernel never mutates the accumulator, so an aborted run
        # leaves it empty and a rerun is bit-identical to a fresh one.
        assert acc.size == 0
        rerun = _numpy_search(adjacency, acc)
        fresh = DiscreteAccumulator(
            DYADIC_PROBS, _discrete_payloads(5, len(adjacency))
        )
        assert rerun == _numpy_search(adjacency, fresh)

    def test_oversized_graph_falls_back_via_search_dispatch(self):
        # Above the kernel's vertex cap the search silently runs on the
        # python walk instead.
        n = MAX_KERNEL_VERTICES + 1
        adjacency = [0] * n
        adjacency[0] = 0b10
        adjacency[1] = 0b01
        acc = DiscreteAccumulator(DYADIC_PROBS, [(1, 0, 0)] * n)
        outcome = _numpy_search(adjacency, acc)
        assert outcome.explored == n + 1  # n singles + the one edge pair

    def test_invalid_arguments_match_python_contract(self):
        adjacency, acc = _instance(6)
        with pytest.raises(ValueError):
            _numpy_search(adjacency, acc, min_mass=0)
        with pytest.raises(ValueError):
            _numpy_search(adjacency, acc, prune="aggressive")

    def test_backend_argument_validated(self):
        adjacency, acc = _instance(7)
        with pytest.raises(ValueError):
            exhaustive_best_mask(adjacency, acc, backend="fortran")


class TestKernelTelemetry:
    """Both backends flush the same metric names with comparable meaning."""

    def test_counter_parity_under_prune_none(self):
        from repro.telemetry import names as metric
        from repro.telemetry import telemetry_session

        adjacency, acc = _instance(9)
        with telemetry_session() as (_, registry):
            exhaustive_best_mask(adjacency, acc, backend="python")
        python = registry.snapshot()
        with telemetry_session() as (_, registry):
            exhaustive_best_mask(adjacency, acc, backend="numpy")
        numpy_ = registry.snapshot()

        # Set-family counters are backend-independent and must agree.
        for name in (
            metric.SEARCH_STATES_VISITED,
            metric.SEARCH_CHI_SQUARE_EVALUATIONS,
        ):
            assert numpy_[name] == python[name]
        # Kernel-specific counters exist only on the numpy side.
        assert numpy_[metric.SEARCH_KERNEL_BATCHES] >= 1
        assert metric.SEARCH_KERNEL_BATCHES not in python

    def test_bound_counters_meaningful_under_prune_bounds(self):
        from repro.telemetry import names as metric
        from repro.telemetry import telemetry_session

        adjacency, acc = _instance(10)
        snapshots = {}
        for backend in ("python", "numpy"):
            with telemetry_session() as (_, registry):
                exhaustive_best_mask(
                    adjacency, acc, prune="bounds", backend=backend
                )
            snapshots[backend] = registry.snapshot()
        for backend, snap in snapshots.items():
            assert snap[metric.SEARCH_BOUND_EVALUATIONS] > 0, backend
            assert snap[metric.SEARCH_STATES_VISITED] > 0, backend


class TestKernelMatchesPythonWalk:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_size_floor_filters_evaluations(self, seed):
        # The min_mass floor counts payload mass, not vertices: merged
        # payloads make the two differ.
        adjacency = _random_adjacency(seed, n=10, p=0.32).adjacency
        acc = DiscreteAccumulator(
            DYADIC_PROBS, _discrete_payloads(seed, len(adjacency), merged=True)
        )
        outcome = _numpy_search(adjacency, acc, min_mass=4)
        reference = exhaustive_best_mask(
            adjacency, acc, min_mass=4, backend="python"
        )
        assert outcome == reference
        assert outcome.evaluated < outcome.explored
