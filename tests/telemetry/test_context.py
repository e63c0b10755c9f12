"""Tests for cross-process trace capture, merging, and persistence."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.context import (
    capture_session,
    new_trace_id,
    payload_records,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.span import Tracer, read_trace_records, write_trace_records

pytestmark = pytest.mark.telemetry


def session_payload(trace_id="abc123"):
    """A small finished session: two nested spans plus mixed metrics."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with tracer.span("solver.mine"):
        with tracer.span("solver.search"):
            metrics.count("search.states_visited", 100)
    metrics.set_gauge("construct.super_vertices", 4)
    metrics.observe("search.states_per_call", 100.0)
    return capture_session(tracer, metrics, trace_id=trace_id)


class TestCaptureSession:
    def test_payload_shape(self):
        payload = session_payload()
        assert payload["trace_id"] == "abc123"
        assert payload["pid"] == os.getpid()
        assert len(payload["spans"]) == 2
        assert all(span["pid"] == os.getpid() for span in payload["spans"])
        assert payload["metrics"][-1]["value"] == 100  # search.states_visited

    def test_payload_is_json_serializable(self):
        payload = session_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_new_trace_id_format(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16
        int(a, 16)  # must be hex


class TestMergePayloadMetrics:
    def test_merges_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.count("search.states_visited", 11)
        registry.merge_records(session_payload()["metrics"])
        snapshot = registry.snapshot()
        assert len(registry) == 3
        assert snapshot["search.states_visited"] == 111
        assert snapshot["construct.super_vertices"] == 4
        assert snapshot["search.states_per_call"]["count"] == 1

    def test_empty_payload_merges_nothing(self):
        registry = MetricsRegistry()
        registry.merge_records([])
        assert len(registry) == 0


class TestPayloadRecords:
    def test_meta_then_spans_then_metrics(self):
        records = payload_records(session_payload(), job_id="j1")
        assert records[0] == {
            "type": "meta", "schema": 1, "trace_id": "abc123",
            "pid": os.getpid(), "job_id": "j1",
        }
        kinds = [r.get("type") for r in records]
        assert kinds == ["meta", "span", "span", "metric", "metric", "metric"]

    def test_metric_records_carry_raw_buckets(self):
        records = payload_records(session_payload())
        histograms = [
            r for r in records
            if r.get("type") == "metric" and r.get("kind") == "histogram"
        ]
        assert histograms and all("buckets" in r for r in histograms)


class TestWriteJobTrace:
    def test_round_trips_through_read_trace_records(self, tmp_path):
        records = payload_records(session_payload(), job_id="j9")
        path = write_trace_records(tmp_path / "job.jsonl", records)
        assert read_trace_records(path) == records

    def test_unwritable_path_raises_telemetry_error(self, tmp_path):
        with pytest.raises(TelemetryError):
            write_trace_records(tmp_path / "missing" / "x.jsonl", [])

