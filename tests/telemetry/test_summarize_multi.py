"""Tests for multi-file trace summaries (merge without double-counting)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.context import capture_session, payload_records
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.span import Tracer, write_trace_records
from repro.telemetry.summarize import render_summary, summarize_traces

pytestmark = pytest.mark.telemetry


def write_trace(path, *, pid, states, per_call):
    """One job-style trace artifact with a deterministic fake pid."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with tracer.span("solver.mine"):
        with tracer.span("solver.search"):
            metrics.count("search.states_visited", states)
            for value in per_call:
                metrics.observe("search.states_per_call", value)
    payload = capture_session(tracer, metrics, trace_id="t")
    payload["pid"] = pid
    for span in payload["spans"]:
        span["pid"] = pid
    return write_trace_records(path, payload_records(payload))


class TestSummarizeTraces:
    def test_counters_sum_across_files(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=101, states=40, per_call=[40])
        b = write_trace(tmp_path / "b.jsonl", pid=202, states=2, per_call=[2])
        summary = summarize_traces([a, b])
        assert summary["num_files"] == 2
        metrics = {row[0]: row for row in summary["metrics"]}
        counter = metrics["search.states_visited"]
        assert counter[2] == 42

    def test_histograms_merge_exactly(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=1, states=1,
                        per_call=[3.0, 10.0])
        b = write_trace(tmp_path / "b.jsonl", pid=2, states=1,
                        per_call=[250.0])
        summary = summarize_traces([a, b])
        histogram = next(
            row for row in summary["metrics"]
            if row[0] == "search.states_per_call"
        )
        # calls column is the merged observation count, not per-file max.
        assert histogram[2] == 3

    def test_per_process_rollup_counts_roots_once(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=7, states=1, per_call=[1])
        b = write_trace(tmp_path / "b.jsonl", pid=8, states=1, per_call=[1])
        summary = summarize_traces([a, b])
        processes = {row[0]: row for row in summary["processes"]}
        assert set(processes) == {"7", "8"}
        for row in processes.values():
            assert row[1] == 2  # two spans per file
            # root_s counts only the parentless span, not nested children.
            assert row[2] <= row[3]

    def test_single_file_equivalence(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=1, states=5, per_call=[5])
        assert render_summary(a) == render_summary([a])

    def test_empty_input_rejected(self):
        with pytest.raises(TelemetryError):
            summarize_traces([])

    def test_stage_rollup_not_double_counted(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=1, states=1, per_call=[1])
        b = write_trace(tmp_path / "b.jsonl", pid=2, states=1, per_call=[1])
        summary = summarize_traces([a, b])
        stages = {row[0]: row for row in summary["stages"]}
        assert stages["solver.mine"][1] == 2  # one root call per file
        assert stages["solver.search"][1] == 2


class TestRenderSummary:
    def test_multi_file_render_includes_process_table(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=11, states=1, per_call=[1])
        b = write_trace(tmp_path / "b.jsonl", pid=22, states=1, per_call=[1])
        text = render_summary([a, b])
        assert "2 files" in text
        assert "Per-process" in text
        assert "11" in text and "22" in text

    def test_single_file_render_omits_process_table(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", pid=11, states=1, per_call=[1])
        text = render_summary(a)
        assert "Per-process" not in text


class TestLegacyRecords:
    def test_bucketless_histogram_rejected(self, tmp_path):
        # A summary-only record cannot merge exactly: an error, not a guess.
        record = Histogram("search.states_per_call").to_record()
        del record["buckets"]
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TelemetryError, match="legacy.jsonl.*states_per_call"):
            summarize_traces([path])
