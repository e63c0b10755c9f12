"""Parameter-sweep driver for the Figure 3-6 style experiments.

The synthetic experiments all share one shape: sweep a parameter (edge
count, label count, dimension, reduction level) over a range of values,
run a measurement at each point averaged over seeds, and report a series.
:func:`run_sweep` encodes that shape once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

from repro.exceptions import ExperimentError
from repro.experiments.harness import RepeatedMeasurement

__all__ = ["SweepPoint", "edge_count_range", "run_sweep"]


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One point of a sweep: parameter value + aggregated measurements.

    ``measurements`` maps a metric name (e.g. ``"super_vertices"``,
    ``"seconds"``) to its aggregate over the repetitions.
    """

    parameter: Any
    measurements: dict[str, RepeatedMeasurement]

    def mean(self, metric: str) -> float:
        """Mean of a metric at this point."""
        try:
            return self.measurements[metric].mean
        except KeyError:
            raise ExperimentError(
                f"unknown metric {metric!r}; have {sorted(self.measurements)}"
            ) from None


def run_sweep(
    parameters: Sequence[Any],
    measure: Callable[[Any, int], dict[str, float]],
    *,
    repetitions: int = 3,
) -> list[SweepPoint]:
    """Evaluate ``measure(parameter, rep_index)`` over a parameter range.

    ``measure`` returns a dict of metric values; each metric is aggregated
    over ``repetitions`` independent runs (the repetition index should be
    folded into the RNG seed for reproducibility).
    """
    if not parameters:
        raise ExperimentError("a sweep needs at least one parameter value")
    points: list[SweepPoint] = []
    for parameter in parameters:
        samples: dict[str, list[float]] = {}
        for rep in range(max(1, repetitions)):
            metrics = measure(parameter, rep)
            for name, value in metrics.items():
                samples.setdefault(name, []).append(float(value))
        measurements = {
            name: RepeatedMeasurement(tuple(values))
            for name, values in samples.items()
        }
        points.append(SweepPoint(parameter=parameter, measurements=measurements))
    return points


def edge_count_range(
    n: int, *, factor_of_n_log_n: Sequence[float] = (0.25, 0.5, 1, 2, 4, 8)
) -> list[int]:
    """Edge counts as multiples of ``n ln n`` — the paper's density axis.

    Figures 3-5 sweep the edge count through the ``l * n ln n`` /
    ``4 n ln n`` density thresholds; expressing the sweep in units of
    ``n ln n`` puts the predicted knee at ``factor = l`` (or 4).
    """
    if n < 2:
        raise ExperimentError(f"need n >= 2, got {n}")
    base = n * math.log(n)
    max_edges = n * (n - 1) // 2
    counts = []
    for factor in factor_of_n_log_n:
        m = min(int(factor * base), max_edges)
        counts.append(max(m, n - 1))
    return sorted(set(counts))
