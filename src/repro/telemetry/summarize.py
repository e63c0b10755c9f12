"""Render per-stage breakdowns from persisted JSONL traces.

Backs the ``repro trace summarize`` CLI subcommand: reads one or more
traces (``repro mine --trace`` files or the service's per-job artifacts)
with :func:`~repro.telemetry.span.read_trace_records`, aggregates spans by
name into a per-stage wall-time table, rolls spans up by originating
process, and merges every recorded metric.  All aggregation here is over
the *records* (plain dicts), so the summarizer works on traces from other
processes and older runs.

Merging across files never double-counts: each file's records contribute
exactly once, folded into one fresh
:class:`~repro.telemetry.metrics.MetricsRegistry` with
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_records` — counters
add, gauges keep the last file's value, and histograms merge bucket-wise
from their raw ``buckets`` so the re-derived quantiles are exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.exceptions import TelemetryError
from repro.experiments.tables import format_table
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.span import read_trace_records

__all__ = [
    "metric_rows",
    "stage_rows",
    "process_rows",
    "summarize_traces",
    "render_summary",
]


def stage_rows(span_records: list[dict]) -> tuple[list[str], list[list[Any]]]:
    """Aggregate spans by name into ``(headers, rows)``.

    Rows are sorted by total wall time, descending; the ``% self`` column
    reports each stage's share of the root spans' total wall time (nested
    spans overlap their parents, so shares of non-root stages need not sum
    to 100).
    """
    by_name: dict[str, dict[str, float]] = {}
    root_total = 0.0
    for record in span_records:
        name = record.get("name", "?")
        wall = float(record.get("wall_s", 0.0))
        agg = by_name.setdefault(
            name, {"calls": 0, "total": 0.0, "min": wall, "max": wall}
        )
        agg["calls"] += 1
        agg["total"] += wall
        agg["min"] = min(agg["min"], wall)
        agg["max"] = max(agg["max"], wall)
        if record.get("parent") is None:
            root_total += wall

    headers = ["stage", "calls", "total_s", "mean_s", "min_s", "max_s", "share"]
    rows: list[list[Any]] = []
    for name, agg in sorted(
        by_name.items(), key=lambda item: -item[1]["total"]
    ):
        calls = int(agg["calls"])
        total = agg["total"]
        share = f"{100.0 * total / root_total:.1f}%" if root_total > 0 else "-"
        rows.append([
            name,
            calls,
            round(total, 6),
            round(total / calls, 6),
            round(agg["min"], 6),
            round(agg["max"], 6),
            share,
        ])
    return headers, rows


def process_rows(span_records: list[dict]) -> tuple[list[str], list[list[Any]]]:
    """Roll spans up by originating process into ``(headers, rows)``.

    The process key is the span record's ``pid`` (stamped by the service's
    cross-process capture); spans without one — single-process traces —
    land under ``main``.  ``root_s`` sums only parentless spans, so it is
    each process's end-to-end wall time without nested double-counting.
    """
    by_pid: dict[str, dict[str, float]] = {}
    for record in span_records:
        key = str(record.get("pid", "main"))
        agg = by_pid.setdefault(key, {"spans": 0, "root": 0.0, "total": 0.0})
        agg["spans"] += 1
        wall = float(record.get("wall_s", 0.0))
        agg["total"] += wall
        if record.get("parent") is None:
            agg["root"] += wall
    headers = ["process", "spans", "root_s", "span_total_s"]
    rows = [
        [key, int(agg["spans"]), round(agg["root"], 6), round(agg["total"], 6)]
        for key, agg in sorted(
            by_pid.items(), key=lambda item: -item[1]["root"]
        )
    ]
    return headers, rows


def metric_rows(metric_records: list[dict]) -> tuple[list[str], list[list[Any]]]:
    """Flatten metric records into ``(headers, rows)``.

    Counters and gauges render their value; histograms render
    ``count/mean/p50/p90/max`` so distribution skew is visible at a glance.
    """
    headers = ["metric", "kind", "value", "detail"]
    rows: list[list[Any]] = []
    for record in sorted(metric_records, key=lambda r: r.get("name", "")):
        kind = record.get("kind", "?")
        name = record.get("name", "?")
        if kind == "histogram":
            value = record.get("count", 0)
            detail = (
                f"mean={record.get('mean', 0.0):.2f} "
                f"p50={record.get('p50', 0.0):g} "
                f"p90={record.get('p90', 0.0):g} "
                f"max={record.get('max', 0.0):g}"
            )
        else:
            value = record.get("value", 0)
            detail = ""
        rows.append([name, kind, value, detail])
    return headers, rows


def summarize_traces(paths: Sequence[str | Path]) -> dict[str, Any]:
    """Structured summary of one or more trace files, merged.

    Spans from every file are pooled (each file counted exactly once) for
    the per-stage and per-process tables; metric records are merged as
    described in the module docstring, and a record that cannot merge (a
    kind or bucket clash, or a histogram without raw ``buckets``) raises
    :class:`TelemetryError` naming its file.  Span records that lack a
    ``pid`` inherit their file's meta-record pid, so artifacts written
    before pid-stamping still attribute correctly.
    """
    if not paths:
        raise TelemetryError("no trace files given")
    span_records: list[dict] = []
    registry = MetricsRegistry()
    for path in paths:
        file_pid: Any = None
        metric_records: list[dict] = []
        for record in read_trace_records(path):
            kind = record.get("type")
            if kind == "meta":
                file_pid = record.get("pid")
            elif kind == "span":
                if "pid" not in record and file_pid is not None:
                    record = dict(record, pid=file_pid)
                span_records.append(record)
            elif kind == "metric":
                metric_records.append(record)
        try:
            registry.merge_records(metric_records)
        except TelemetryError as exc:
            raise TelemetryError(f"{path}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(
                f"{path}: malformed metric record: {exc!r}"
            ) from None
    merged_metrics = registry.to_records()
    stage_headers, stages = stage_rows(span_records)
    process_headers, processes = process_rows(span_records)
    metric_headers, metrics = metric_rows(merged_metrics)
    return {
        "num_files": len(paths),
        "num_spans": len(span_records),
        "num_metrics": len(merged_metrics),
        "stage_headers": stage_headers,
        "stages": stages,
        "process_headers": process_headers,
        "processes": processes,
        "metric_headers": metric_headers,
        "metrics": metrics,
    }


def render_summary(paths: str | Path | Sequence[str | Path]) -> str:
    """Human-readable per-stage + per-process + metrics summary.

    Accepts a single path or a sequence of paths; several files are merged
    as one logical trace.  The per-process table appears only when more
    than one process contributed spans.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    summary = summarize_traces(paths)
    if summary["num_spans"] == 0 and summary["num_metrics"] == 0:
        joined = ", ".join(str(p) for p in paths)
        raise TelemetryError(f"{joined} contains no span or metric records")
    parts: list[str] = []
    if summary["stages"]:
        title = f"Per-stage wall time ({summary['num_spans']} spans"
        if summary["num_files"] > 1:
            title += f", {summary['num_files']} files"
        parts.append(format_table(
            summary["stage_headers"], summary["stages"], title=title + ")",
        ))
    if len(summary["processes"]) > 1:
        parts.append(format_table(
            summary["process_headers"], summary["processes"],
            title=f"Per-process rollup ({len(summary['processes'])} processes)",
        ))
    if summary["metrics"]:
        parts.append(format_table(
            summary["metric_headers"], summary["metrics"],
            title=f"Metrics ({summary['num_metrics']} recorded)",
        ))
    return "\n\n".join(parts)
