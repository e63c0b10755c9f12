"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The pipeline's internal quantities — edges contracted, enumeration states
visited, chi-square evaluations — are recorded against stable dotted names
(see :mod:`repro.telemetry.names`).  Instrumentation sites accumulate into
cheap local integers and flush once per call, so the registry is touched a
handful of times per pipeline stage rather than per inner-loop iteration.

Histograms use fixed bucket upper bounds (Prometheus-style): ``observe``
is O(#buckets) worst case, and percentile queries return the upper bound of
the bucket containing the requested quantile — an approximation that is
exact enough for "how skewed are per-search state counts" questions while
keeping memory constant.

The registry itself is **thread-safe**: every mutation and snapshot runs
under one internal lock, because the serving layer updates it from HTTP
handler threads and the job collector while ``GET /metricsz`` snapshots it
concurrently.  The individual metric objects stay lock-free — callers that
hold a metric directly own its synchronisation — and the disabled-telemetry
hot path never reaches the registry at all, so the gate stays a bare
attribute check.

Registries ship and store in one format, the JSONL ``metric`` record of
:meth:`MetricsRegistry.to_records` (every histogram record carries its raw
per-bucket counts), and :meth:`MetricsRegistry.merge_records` folds such
records back in losslessly (counters add, gauges last-write-wins,
histograms merge bucket-wise) — the mechanism the mining service uses to
aggregate worker telemetry and ``repro trace summarize`` uses to merge
trace files.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from typing import Any

from repro.exceptions import TelemetryError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 50_000, 100_000,
    1_000_000, math.inf,
)
"""Default histogram bucket upper bounds — tuned for count-like quantities."""


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def to_record(self) -> dict[str, Any]:
        """The JSONL ``metric`` record for this counter."""
        return {
            "type": "metric",
            "kind": "counter",
            "name": self.name,
            "value": self.value,
        }


class Gauge:
    """A point-in-time value metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def to_record(self) -> dict[str, Any]:
        """The JSONL ``metric`` record for this gauge."""
        return {
            "type": "metric",
            "kind": "gauge",
            "name": self.name,
            "value": self.value,
        }


class Histogram:
    """Fixed-bucket distribution metric with percentile summaries.

    ``buckets`` are inclusive upper bounds in increasing order; the last
    bound should be ``inf`` so every observation lands somewhere (one is
    appended automatically otherwise).
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "minimum", "maximum")

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket")
        if list(buckets) != sorted(buckets):
            raise TelemetryError(
                f"histogram {name!r} buckets must be increasing: {buckets}"
            )
        if buckets[-1] != math.inf:
            buckets = tuple(buckets) + (math.inf,)
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0 <= q <= 100).

        Returns the upper bound of the bucket containing the quantile,
        clamped to the observed maximum (so the ``inf`` bucket never leaks
        into results).  Returns 0.0 for an empty histogram.
        """
        if not 0 <= q <= 100:
            raise TelemetryError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * q / 100) or 1
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                return min(bound, self.maximum)
        return self.maximum  # pragma: no cover - inf bucket catches all

    def summary(self) -> dict[str, float]:
        """Count / sum / min / max / mean and the p50, p90, p99 quantiles."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def to_record(self) -> dict[str, Any]:
        """The JSONL ``metric`` record: name, full summary, and raw buckets.

        The ``buckets`` entry carries the per-bucket (non-cumulative)
        counts as ``[upper_bound, count]`` pairs so that histograms from
        several processes or trace files merge *exactly* (quantiles are
        recomputed from the merged counts instead of being averaged).
        """
        record: dict[str, Any] = {
            "type": "metric",
            "kind": "histogram",
            "name": self.name,
        }
        record.update(self.summary())
        record["buckets"] = [
            [bound, count] for bound, count in zip(self.buckets, self.counts)
        ]
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_record` record."""
        name = record["name"]
        raw = record.get("buckets")
        if not raw:
            raise TelemetryError(
                f"histogram {name!r} record has no raw buckets to merge"
            )
        histogram = cls(name, tuple(bound for bound, _ in raw))
        if len(histogram.buckets) != len(raw):
            raise TelemetryError(
                f"histogram {name!r} record buckets lack the inf bound"
            )
        histogram.counts = [count for _, count in raw]
        histogram.count = record["count"]
        histogram.total = record["sum"]
        # An empty record reports min/max as 0.0; keep the +-inf identities
        # so merging it never drags a non-empty histogram's extremes.
        if histogram.count:
            histogram.minimum = record["min"]
            histogram.maximum = record["max"]
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical buckets into this one."""
        if self.buckets != other.buckets:
            raise TelemetryError(
                f"histogram {self.name!r} cannot merge buckets "
                f"{other.buckets} into {self.buckets}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, and histograms.

    A name belongs to exactly one metric kind for the registry's lifetime;
    re-registering it as a different kind raises :class:`TelemetryError`
    (silent kind drift would corrupt dashboards built on the namespace).

    All public methods are thread-safe: a single internal lock serialises
    registration, the convenience one-shots, record merges, and snapshots,
    so a concurrent ``snapshot()`` can never observe a torn histogram
    (bucket counts that do not sum to ``count``) or lose a counter
    increment.  Metric objects handed out by :meth:`counter` /
    :meth:`gauge` / :meth:`histogram` are *not* individually locked —
    callers mutating them directly own that synchronisation.
    """

    __slots__ = ("_metrics", "_lock")

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create_locked(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            return self._get_or_create_locked(name, cls, *args)

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, buckets)

    # Convenience one-shots used by instrumentation sites.  These hold the
    # lock across the read-modify-write so concurrent updates never lose
    # increments and snapshots never observe partial histogram state.
    def count(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        with self._lock:
            self._get_or_create_locked(name, Counter).add(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        with self._lock:
            self._get_or_create_locked(name, Gauge).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        with self._lock:
            self._get_or_create_locked(name, Histogram, DEFAULT_BUCKETS).observe(
                value
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view: counters/gauges map to values, histograms to summaries."""
        with self._lock:
            out: dict[str, Any] = {}
            for name, metric in sorted(self._metrics.items()):
                if isinstance(metric, Histogram):
                    out[name] = metric.summary()
                else:
                    out[name] = metric.value
            return out

    def to_records(self) -> list[dict[str, Any]]:
        """JSONL records for every registered metric (sorted by name)."""
        with self._lock:
            return [
                self._metrics[name].to_record() for name in sorted(self._metrics)
            ]

    def merge_records(self, records: Iterable[dict[str, Any]]) -> None:
        """Fold :meth:`to_records`-shaped ``metric`` records into this registry.

        Counters add, gauges take the incoming value, histograms merge
        bucket-wise.  A name that clashes with an existing metric's kind or
        bucket bounds, or a histogram record without raw ``buckets``,
        raises :class:`TelemetryError`, exactly like live registration.
        """
        with self._lock:
            for record in records:
                name, kind = record["name"], record.get("kind")
                if kind == "counter":
                    self._get_or_create_locked(name, Counter).add(record["value"])
                elif kind == "gauge":
                    self._get_or_create_locked(name, Gauge).set(record["value"])
                elif kind == "histogram":
                    incoming = Histogram.from_record(record)
                    self._get_or_create_locked(
                        name, Histogram, incoming.buckets
                    ).merge(incoming)
                else:
                    raise TelemetryError(
                        f"metric {name!r} has unknown kind {kind!r}"
                    )
