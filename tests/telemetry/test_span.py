"""Unit tests for the tracing layer: nesting, timing, JSONL round-trip."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.span import SCHEMA_VERSION, Tracer, read_trace_records
from repro.telemetry.summarize import summarize_traces

pytestmark = pytest.mark.telemetry


class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        # Completion order: inner closes first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert root.parent_id is None

    def test_successive_roots_are_siblings(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.parent_id for s in tracer.spans] == [None, None]

    def test_active_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.active_span is None
        with tracer.span("outer") as outer:
            assert tracer.active_span is outer
            with tracer.span("inner") as inner:
                assert tracer.active_span is inner
            assert tracer.active_span is outer
        assert tracer.active_span is None


class TestSpanTiming:
    def test_wall_time_measured(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            sum(range(1000))
        assert span.wall_seconds > 0.0

    def test_nested_span_within_parent_window(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                sum(range(1000))
        assert inner.wall_seconds <= outer.wall_seconds
        assert inner.start_offset >= outer.start_offset


class TestSpanAttributes:
    def test_creation_and_set(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            span.set(b="two")
        assert span.attributes == {"a": 1, "b": "two"}

    def test_error_attribute_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing") as span:
                raise ValueError("boom")
        assert span.attributes["error"] == "ValueError"
        # The span is still recorded with its timing.
        assert tracer.spans == [span]


class TestJsonlRoundTrip:
    def test_write_and_read(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", kind="test"):
            with tracer.span("child"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"type": "meta", "schema": SCHEMA_VERSION}
        assert read_trace_records(path) == lines
        spans = lines[1:]
        assert {s["name"] for s in spans} == {"root", "child"}
        by_name = {s["name"]: s for s in spans}
        assert by_name["child"]["parent"] == by_name["root"]["id"]
        assert by_name["root"]["parent"] is None
        assert by_name["root"]["attrs"] == {"kind": "test"}
        assert all(s["wall_s"] >= 0 for s in spans)

    def test_metrics_records_appended(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        tracer = Tracer()
        with tracer.span("s"):
            pass
        registry = MetricsRegistry()
        registry.count("x.count", 3)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path, metrics=registry)
        meta, span, *metrics = read_trace_records(path)
        assert span["name"] == "s"
        assert metrics == [
            {"type": "metric", "kind": "counter", "name": "x.count", "value": 3}
        ]

    def test_malformed_trace_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(TelemetryError, match="invalid JSON"):
            read_trace_records(path)

    def test_unknown_record_types_ignored(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type": "exotic", "x": 1}\n{"type": "span", "name": "s"}\n')
        summary = summarize_traces([path])
        assert (summary["num_spans"], summary["num_metrics"]) == (1, 0)

    def test_missing_trace_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            read_trace_records(tmp_path / "absent.jsonl")

    def test_unwritable_trace_path_raises(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        with pytest.raises(TelemetryError, match="cannot write"):
            tracer.write_jsonl(tmp_path / "no-such-dir" / "t.jsonl")
