"""Unit tests for incremental chi-square accumulators."""

from __future__ import annotations

import pytest

from repro.exceptions import LabelingError
from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.stats.chi_square import chi_square_statistic
from repro.stats.zscore import RegionScore

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


class TestDiscreteAccumulator:
    def test_empty_is_zero(self):
        acc = DiscreteAccumulator((0.5, 0.5), [(1, 0), (0, 1)])
        assert acc.chi_square() == 0.0
        assert acc.size == 0

    def test_push_matches_direct_formula(self):
        payloads = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]
        acc = DiscreteAccumulator(UNIFORM3, payloads)
        acc.push(0)
        acc.push(3)
        assert acc.counts == (3, 1, 0)
        assert acc.chi_square() == pytest.approx(
            chi_square_statistic([3, 1, 0], UNIFORM3)
        )

    def test_pop_restores_state(self):
        acc = DiscreteAccumulator((0.5, 0.5), [(1, 0), (0, 1), (3, 2)])
        acc.push(0)
        before = acc.chi_square()
        acc.push(2)
        acc.pop(2)
        assert acc.chi_square() == pytest.approx(before)
        assert acc.counts == (1, 0)

    def test_pop_to_empty_resets_float_error(self):
        acc = DiscreteAccumulator((0.3, 0.7), [(1, 0), (0, 1)])
        for _ in range(100):
            acc.push(0)
            acc.push(1)
            acc.pop(1)
            acc.pop(0)
        assert acc.chi_square() == 0.0

    def test_super_vertex_payloads(self):
        # A payload representing a merged super-vertex of 5 same-label nodes.
        acc = DiscreteAccumulator((0.5, 0.5), [(5, 0), (0, 2)])
        acc.push(0)
        acc.push(1)
        assert acc.size == 7
        assert acc.chi_square() == pytest.approx(
            chi_square_statistic([5, 2], (0.5, 0.5))
        )

    def test_payload_validation(self):
        with pytest.raises(LabelingError):
            DiscreteAccumulator((0.5, 0.5), [(1, 0, 0)])
        with pytest.raises(LabelingError):
            DiscreteAccumulator((0.5, 0.5), [(-1, 0)])
        # Every payload stands for at least one vertex, as the search's
        # mass floor assumes.
        with pytest.raises(LabelingError, match="no vertices"):
            DiscreteAccumulator((0.5, 0.5), [(1, 0), (0, 0)])


class TestContinuousAccumulator:
    def test_empty_is_zero(self):
        acc = ContinuousAccumulator([((1.0,), 1)])
        assert acc.chi_square() == 0.0

    def test_push_matches_region_score(self):
        payloads = [((1.0, -1.0), 1), ((2.0, 0.5), 1), ((-0.5, 0.0), 2)]
        acc = ContinuousAccumulator(payloads)
        acc.push(0)
        acc.push(2)
        expected = RegionScore((0.5, -1.0), 3)
        assert acc.chi_square() == pytest.approx(expected.chi_square())
        assert acc.size == 3

    def test_pop_restores(self):
        acc = ContinuousAccumulator([((1.5,), 1), ((-2.0,), 1)])
        acc.push(0)
        before = acc.chi_square()
        acc.push(1)
        acc.pop(1)
        assert acc.chi_square() == pytest.approx(before)

    def test_pop_to_empty_resets(self):
        acc = ContinuousAccumulator([((0.1,), 1)])
        for _ in range(50):
            acc.push(0)
            acc.pop(0)
        assert acc.chi_square() == 0.0

    def test_validation(self):
        with pytest.raises(LabelingError):
            ContinuousAccumulator([])
        with pytest.raises(LabelingError):
            ContinuousAccumulator([((1.0,), 0)])
        with pytest.raises(LabelingError):
            ContinuousAccumulator([((1.0,), 1), ((1.0, 2.0), 1)])
        with pytest.raises(LabelingError):
            ContinuousAccumulator([((), 1)])
