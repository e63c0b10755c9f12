"""Timing and repetition harness shared by all benchmarks.

The paper averages synthetic results over 10 runs and reports per-stage
wall times (super-graph conversion / reduction / naïve search).  This
module provides the small, deterministic utilities those experiments need:
a timing wrapper and a repetition aggregator.  Per-stage times come from
the pipeline's own telemetry spans (:mod:`repro.telemetry`).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any, TypeVar

from repro.exceptions import ExperimentError

__all__ = ["RepeatedMeasurement", "repeat_measurements", "timed"]

T = TypeVar("T")


def timed(fn: Callable[..., T], *args: Any, **kwargs: Any) -> tuple[T, float]:
    """Call ``fn`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@dataclass(frozen=True, slots=True)
class RepeatedMeasurement:
    """Aggregate of a repeated scalar measurement."""

    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Arithmetic mean."""
        return math.fsum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        """Smallest observation."""
        return min(self.values)

    @property
    def maximum(self) -> float:
        """Largest observation."""
        return max(self.values)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0.0 for a single observation)."""
        if len(self.values) < 2:
            return 0.0
        return statistics.stdev(self.values)

    @property
    def repetitions(self) -> int:
        """Number of observations."""
        return len(self.values)


def repeat_measurements(
    fn: Callable[[int], float], repetitions: int
) -> RepeatedMeasurement:
    """Run ``fn(rep_index)`` ``repetitions`` times and aggregate.

    The repetition index doubles as a seed offset so runs are independent
    but the whole experiment stays deterministic — the paper's
    "averaged over 10 different runs" protocol.
    """
    if repetitions < 1:
        raise ExperimentError(f"repetitions must be >= 1, got {repetitions}")
    values = tuple(float(fn(i)) for i in range(repetitions))
    return RepeatedMeasurement(values)

