"""Unit tests for the admissible chi-square upper bounds.

The load-bearing invariant is *admissibility*: for any current accumulator
state and any candidate set, ``upper_bound`` must dominate the statistic of
every reachable superset.  These tests check it exhaustively on small
instances (every subset of the candidates is a reachable superset when
connectivity is ignored, which only makes the check stricter).
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.bounds import continuous_upper_bound, discrete_upper_bound
from repro.enumerate.bitset import mask_of
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.graph.generators import gnp_random_graph

pytestmark = pytest.mark.bounds

PROBS = (0.5, 0.25, 0.25)


def unit_payloads(labels):
    payloads = []
    for label in labels:
        counts = [0] * len(PROBS)
        counts[label] = 1
        payloads.append(tuple(counts))
    return payloads


class TestDiscreteAdmissibility:
    """bound(current, candidates) >= chi(current + any candidate subset)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_over_subsets(self, seed):
        import random

        rng = random.Random(seed)
        labels = [rng.randrange(len(PROBS)) for _ in range(9)]
        acc = DiscreteAccumulator(PROBS, unit_payloads(labels))
        current = [0, 1, 2]
        for v in current:
            acc.push(v)
        candidates = list(range(3, 9))
        bound = acc.upper_bound(mask_of(candidates))
        for r in range(len(candidates) + 1):
            for combo in combinations(candidates, r):
                for v in combo:
                    acc.push(v)
                assert acc.chi_square() <= bound + 1e-9, (
                    f"superset {current + list(combo)} beats the bound"
                )
                for v in reversed(combo):
                    acc.pop(v)

    def test_super_vertex_payloads(self):
        # Merged payloads: candidate masses larger than one vertex.
        payloads = [(2, 0, 0), (0, 3, 0), (1, 0, 2)]
        acc = DiscreteAccumulator(PROBS, payloads)
        acc.push(0)
        bound = acc.upper_bound(mask_of([1, 2]))
        for combo in ([1], [2], [1, 2]):
            for v in combo:
                acc.push(v)
            assert acc.chi_square() <= bound + 1e-9
            for v in reversed(combo):
                acc.pop(v)

    def test_empty_candidates_returns_current(self):
        acc = DiscreteAccumulator(PROBS, unit_payloads([1, 2]))
        acc.push(0)
        assert acc.upper_bound(0) == pytest.approx(acc.chi_square())

    def test_pure_function_interior_optimum(self):
        # Concave case (W < n*rho): the integer interior maximum must be
        # covered, not just the endpoints.
        probs = (0.5, 0.5)
        bound = discrete_upper_bound(
            weighted=2.0, size=1, probabilities=probs,
            counts=(1, 0), candidate_counts=(0, 10),
        )
        rho = (2 * 0 + 10) / 0.5
        direct = max(
            (2.0 + m * rho) / (1 + m) - (1 + m) for m in range(0, 11)
        )
        assert bound == pytest.approx(direct)


class TestContinuousAdmissibility:
    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_over_subsets(self, seed):
        import random

        rng = random.Random(seed)
        payloads = [
            (tuple(rng.uniform(-3, 3) for _ in range(2)), rng.randint(1, 3))
            for _ in range(9)
        ]
        acc = ContinuousAccumulator(payloads)
        for v in (0, 1):
            acc.push(v)
        candidates = list(range(2, 9))
        bound = acc.upper_bound(mask_of(candidates))
        for r in range(len(candidates) + 1):
            for combo in combinations(candidates, r):
                for v in combo:
                    acc.push(v)
                assert acc.chi_square() <= bound + 1e-9
                for v in reversed(combo):
                    acc.pop(v)

    def test_pure_function_matches_formula(self):
        assert continuous_upper_bound(
            (3.0, -1.0), (2.0, 0.5), 4
        ) == pytest.approx(((3.0 + 2.0) ** 2 + (1.0 + 0.5) ** 2) / 4)

    def test_empty_region_bound(self):
        assert continuous_upper_bound((0.0,), (2.5,), 0) == pytest.approx(
            2.5 ** 2
        )


class TestBoundTightensWithFewerCandidates:
    def test_monotone_in_candidate_set(self):
        g = gnp_random_graph(10, 0.4, seed=3)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=4)
        labels = [lab.label_of(v) for v in g.vertices()]
        acc = DiscreteAccumulator(lab.probabilities, unit_payloads(labels))
        acc.push(0)
        wide = acc.upper_bound(mask_of(range(1, 10)))
        narrow = acc.upper_bound(mask_of(range(1, 4)))
        assert narrow <= wide + 1e-12
