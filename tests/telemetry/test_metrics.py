"""Unit tests for counters, gauges, histograms, and the registry."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

pytestmark = pytest.mark.telemetry


class TestCounter:
    def test_accumulates(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(TelemetryError):
            Counter("x").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_summary_of_known_values(self):
        h = Histogram("h", buckets=(1, 2, 5, 10))
        for v in (1, 1, 2, 3, 7):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["sum"] == 14.0
        assert s["min"] == 1
        assert s["max"] == 7
        assert s["mean"] == pytest.approx(2.8)

    def test_percentiles_fixed_buckets(self):
        # 100 observations: 50 land in (..1], 40 in (1..5], 10 in (5..100].
        h = Histogram("h", buckets=(1, 5, 100))
        for _ in range(50):
            h.observe(1)
        for _ in range(40):
            h.observe(4)
        for _ in range(10):
            h.observe(60)
        assert h.percentile(50) == 1
        assert h.percentile(90) == 5
        # The top bucket's upper bound (100) clamps to the observed max.
        assert h.percentile(99) == 60
        assert h.percentile(0) == 1
        assert h.percentile(100) == 60

    def test_overflow_lands_in_inf_bucket(self):
        h = Histogram("h", buckets=(1, 2))
        h.observe(1_000_000)
        assert h.count == 1
        assert h.percentile(50) == 1_000_000  # clamped to observed max

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.percentile(50) == 0.0
        assert h.summary()["count"] == 0
        assert h.mean == 0.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(5, 1))

    def test_bad_percentile_rejected(self):
        h = Histogram("h")
        h.observe(1)
        with pytest.raises(TelemetryError):
            h.percentile(101)

    def test_inf_bucket_appended(self):
        h = Histogram("h", buckets=(1, 2))
        assert h.buckets[-1] == math.inf


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert len(r) == 1

    def test_kind_collision_rejected(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TelemetryError, match="Counter"):
            r.gauge("a")
        with pytest.raises(TelemetryError):
            r.histogram("a")

    def test_convenience_one_shots(self):
        r = MetricsRegistry()
        r.count("c", 2)
        r.count("c")
        r.set_gauge("g", 7.5)
        r.observe("h", 3)
        assert r.counter("c").value == 3
        assert r.gauge("g").value == 7.5
        assert r.histogram("h").count == 1
        assert "c" in r and "missing" not in r

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.count("z.counter", 4)
        r.set_gauge("a.gauge", 2.0)
        r.observe("m.hist", 10)
        snap = r.snapshot()
        assert list(snap) == ["a.gauge", "m.hist", "z.counter"]  # sorted
        assert snap["z.counter"] == 4
        assert snap["a.gauge"] == 2.0
        assert snap["m.hist"]["count"] == 1

    def test_to_records(self):
        r = MetricsRegistry()
        r.count("c", 1)
        r.observe("h", 2)
        records = r.to_records()
        assert [rec["kind"] for rec in records] == ["counter", "histogram"]
        assert all(rec["type"] == "metric" for rec in records)


def mixed_registry(values):
    """A counter, a gauge, a histogram fed ``values`` and an empty one."""
    r = MetricsRegistry()
    r.histogram("h.empty", (1, 10))
    h = r.histogram("h", (1, 10))
    for v in values:
        r.count("c")
        r.set_gauge("g", v)
        h.observe(v)
    return r


class TestMergeRecords:
    def test_round_trip(self):
        source = mixed_registry([0.5, 7.0, 1e9])  # 1e9: the inf bucket
        target = MetricsRegistry()
        target.merge_records(source.to_records())
        assert target.to_records() == source.to_records()

    @pytest.mark.parametrize("a, b", [([0.5, 1e9], [7.0, 0.25]), ([5.0], [])])
    def test_merge_equals_observing_both_streams(self, a, b):
        # ([5.0], []): an empty histogram's 0.0 min/max must not leak in.
        merged = MetricsRegistry()
        merged.merge_records(mixed_registry(a).to_records())
        merged.merge_records(mixed_registry(b).to_records())
        assert merged.to_records() == mixed_registry(a + b).to_records()

    def test_kind_and_bucket_clashes_rejected(self):
        r = mixed_registry([1.0])
        with pytest.raises(TelemetryError, match="Counter"):
            r.merge_records([{"kind": "gauge", "name": "c", "value": 1}])
        with pytest.raises(TelemetryError, match="buckets"):
            r.merge_records([Histogram("h", (2, 20)).to_record()])
