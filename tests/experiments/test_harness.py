"""Unit tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.harness import (
    RepeatedMeasurement,
    repeat_measurements,
    timed,
)


class TestTimed:
    def test_returns_result_and_duration(self):
        result, seconds = timed(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0.0

    def test_kwargs_passed(self):
        result, _ = timed(lambda *, a: a, a=7)
        assert result == 7


class TestRepeatedMeasurement:
    def test_aggregates(self):
        m = RepeatedMeasurement((1.0, 2.0, 3.0))
        assert m.mean == 2.0
        assert m.minimum == 1.0
        assert m.maximum == 3.0
        assert m.stdev == pytest.approx(1.0)
        assert m.repetitions == 3

    def test_single_observation_stdev_zero(self):
        assert RepeatedMeasurement((5.0,)).stdev == 0.0


class TestRepeatMeasurements:
    def test_runs_with_indices(self):
        seen = []

        def fn(i):
            seen.append(i)
            return float(i)

        m = repeat_measurements(fn, 4)
        assert seen == [0, 1, 2, 3]
        assert m.mean == 1.5

    def test_invalid_repetitions(self):
        with pytest.raises(ExperimentError):
            repeat_measurements(lambda i: 0.0, 0)

