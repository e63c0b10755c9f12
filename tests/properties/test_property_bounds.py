"""Mode- and backend-equivalence properties of the exhaustive search.

Branch-and-bound is only admissible if it returns the *identical* optimum —
mask and statistic — as the plain exhaustive search, for every instance.
These tests check that over 240 seeded random instances (120 discrete,
120 continuous), which is the acceptance bar of the branch-and-bound PR.

Instances vary the ``min_mass`` floor across seeds, so the reachable-mass
cut and the eligible-single incumbent seed of ``prune="bounds"`` are
exercised on unit payloads (where mass is the vertex count) and on merged
super-vertex payloads (where it is not).

The same harness runs differentially across *backends*: the vectorized
numpy kernel (``backend="numpy"``) must reproduce the python walk
exactly.  Under ``prune="none"`` every :class:`SearchOutcome` field is
asserted ``==`` — the counters are functions of the visited set family,
not the visit order, so batching must not move them by even one.  Under ``prune="bounds"``
the cut accounting is enumeration-order dependent (a DFS and a level walk
hold different incumbents at corresponding decisions), so the assertions
narrow to the optimum (mask + statistic) and sanity bounds on the
counters.

Discrete instances use dyadic label probabilities (0.5, 0.25, 0.25) so
every accumulator operation is exact in binary floating point and the
equality can be ``==`` rather than approximate: with non-dyadic
probabilities the two modes can differ by a few ulps purely because
pruning skips push/pop pairs (each of which perturbs the running sum),
while the selected vertex set stays identical.  Continuous statistics are
approximate across backends for the same reason — the python accumulator
sums incrementally along the DFS path, the kernel in one matmul — so the
masks and counters are asserted exactly and the scores to 1e-9.
"""

from __future__ import annotations

import random

import pytest

from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.generators import gnp_random_graph
from repro.labels.discrete import DiscreteLabeling

pytestmark = [pytest.mark.properties, pytest.mark.bounds]

DYADIC_PROBS = (0.5, 0.25, 0.25)


def _discrete_instance(seed, *, super_vertices=False):
    g = gnp_random_graph(10, 0.32, seed=seed)
    lab = DiscreteLabeling.random(g, DYADIC_PROBS, seed=seed + 1000)
    bitset = BitsetGraph(g)
    rng = random.Random(seed + 2000)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * len(DYADIC_PROBS)
        counts[lab.label_of(v)] = 1
        if super_vertices:
            # Pretend the vertex is a merged group: inflate its count
            # vector so payload mass differs from the vertex count.
            counts[rng.randrange(len(DYADIC_PROBS))] += rng.randrange(3)
        payloads.append(tuple(counts))
    return bitset.adjacency, DiscreteAccumulator(DYADIC_PROBS, payloads)


def _continuous_instance(seed):
    g = gnp_random_graph(10, 0.32, seed=seed)
    bitset = BitsetGraph(g)
    rng = random.Random(seed + 3000)
    payloads = [
        (
            tuple(rng.gauss(0.0, 1.5) for _ in range(2)),
            rng.randint(1, 3),
        )
        for _ in bitset.vertices
    ]
    return bitset.adjacency, ContinuousAccumulator(payloads)


def _mass_floor(seed):
    """Vary ``min_mass`` across seeds: no floor, a low one, a high one."""
    return (1, 3, 1, 6)[seed % 4]


class TestDiscreteEquivalence:
    @pytest.mark.parametrize("seed", range(120))
    def test_identical_optimum(self, seed):
        adjacency, acc = _discrete_instance(seed)
        min_mass = _mass_floor(seed)
        plain = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, prune="none"
        )
        # Reusing the accumulator doubles as a reusability check: the
        # search must leave it empty (balanced push/pop) on completion.
        bounded = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, prune="bounds"
        )
        assert bounded.mask == plain.mask
        assert bounded.chi_square == plain.chi_square  # exact: dyadic probs
        assert bounded.explored <= plain.explored


class TestDiscreteSuperVertexEquivalence:
    @pytest.mark.parametrize("seed", range(200, 230))
    def test_identical_optimum_with_merged_payloads(self, seed):
        adjacency, acc = _discrete_instance(seed, super_vertices=True)
        min_mass = _mass_floor(seed)
        plain = exhaustive_best_mask(adjacency, acc, min_mass=min_mass, prune="none")
        bounded = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, prune="bounds"
        )
        assert bounded.mask == plain.mask
        assert bounded.chi_square == plain.chi_square
        assert bounded.explored <= plain.explored


class TestContinuousEquivalence:
    @pytest.mark.parametrize("seed", range(120))
    def test_identical_optimum(self, seed):
        adjacency, acc = _continuous_instance(seed)
        min_mass = _mass_floor(seed)
        plain = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, prune="none"
        )
        bounded = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass, prune="bounds"
        )
        assert bounded.mask == plain.mask
        assert bounded.chi_square == pytest.approx(
            plain.chi_square, rel=1e-9, abs=1e-12
        )
        assert bounded.explored <= plain.explored


class TestBackendEquivalenceDiscrete:
    """python vs numpy over 120 discrete instances x both prune modes."""

    @pytest.mark.parametrize("seed", range(120))
    def test_prune_none_bit_identical_outcome(self, seed):
        adjacency, acc = _discrete_instance(seed)
        min_mass = _mass_floor(seed)
        python = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="none", backend="python",
        )
        numpy_ = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="none", backend="numpy",
        )
        # Full dataclass equality: mask, statistic (exact — dyadic probs),
        # and every accounting field.
        assert numpy_ == python

    @pytest.mark.parametrize("seed", range(120))
    def test_prune_bounds_identical_optimum(self, seed):
        adjacency, acc = _discrete_instance(seed)
        min_mass = _mass_floor(seed)
        python = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="bounds", backend="python",
        )
        numpy_ = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="bounds", backend="numpy",
        )
        assert numpy_.mask == python.mask
        assert numpy_.chi_square == python.chi_square  # exact: dyadic probs
        # Cut accounting is order-dependent under bounds, but the kernel
        # must still prune: never more states than the unpruned family.
        unpruned = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="none", backend="python",
        )
        assert numpy_.explored <= unpruned.explored

    @pytest.mark.parametrize("seed", range(200, 230))
    def test_super_vertex_payloads(self, seed):
        adjacency, acc = _discrete_instance(seed, super_vertices=True)
        min_mass = _mass_floor(seed)
        for prune in ("none", "bounds"):
            python = exhaustive_best_mask(
                adjacency, acc, min_mass=min_mass, prune=prune, backend="python"
            )
            numpy_ = exhaustive_best_mask(
                adjacency, acc, min_mass=min_mass, prune=prune, backend="numpy"
            )
            if prune == "none":
                assert numpy_ == python
            else:
                assert numpy_.mask == python.mask
                assert numpy_.chi_square == python.chi_square


class TestBackendEquivalenceContinuous:
    """python vs numpy over 120 continuous instances x both prune modes."""

    @pytest.mark.parametrize("seed", range(120))
    def test_prune_none_identical_family_and_optimum(self, seed):
        adjacency, acc = _continuous_instance(seed)
        min_mass = _mass_floor(seed)
        python = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="none", backend="python",
        )
        numpy_ = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="none", backend="numpy",
        )
        assert numpy_.mask == python.mask
        # The statistic is path-dependent in floating point (incremental
        # push/pop vs one matmul), so scores agree to ulps, not bits.
        assert numpy_.chi_square == pytest.approx(
            python.chi_square, rel=1e-9, abs=1e-12
        )
        # Counters are integers over the same set family: exact.
        assert numpy_.explored == python.explored
        assert numpy_.evaluated == python.evaluated

    @pytest.mark.parametrize("seed", range(120))
    def test_prune_bounds_identical_optimum(self, seed):
        adjacency, acc = _continuous_instance(seed)
        min_mass = _mass_floor(seed)
        python = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="bounds", backend="python",
        )
        numpy_ = exhaustive_best_mask(
            adjacency, acc, min_mass=min_mass,
            prune="bounds", backend="numpy",
        )
        assert numpy_.mask == python.mask
        assert numpy_.chi_square == pytest.approx(
            python.chi_square, rel=1e-9, abs=1e-12
        )


class TestPruningActuallyHappens:
    """Guard against the bound silently degenerating into a no-op."""

    def test_aggregate_state_reduction(self):
        plain_total = bounded_total = 0
        for seed in range(30):
            adjacency, acc = _discrete_instance(seed)
            plain_total += exhaustive_best_mask(
                adjacency, acc, prune="none"
            ).explored
            bounded = exhaustive_best_mask(adjacency, acc, prune="bounds")
            bounded_total += bounded.explored
            assert bounded.bound_evaluations > 0
        # The PR's acceptance bar is >=30% fewer states; leave headroom.
        assert bounded_total <= 0.7 * plain_total
