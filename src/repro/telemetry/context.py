"""Cross-process trace context: capture, ship, merge, and persist.

The mining service runs every job inside a spawn-context worker process,
so spans and metrics recorded there die with the worker unless they are
serialised back.  This module defines the wire shape for that round trip:

1. The worker runs ``mine()`` under a :func:`repro.telemetry.
   telemetry_session` and calls :func:`capture_session` when the job ends,
   producing a plain-dict *telemetry payload* (trace id, pid, pid-stamped
   span records, a lossless metrics state) that travels over the result
   pipe alongside the mining result.
2. The parent folds the payload's metrics into its own registry with
   :func:`merge_payload_metrics`.  Prefix-cache counters are not in the
   payload: the cache keeps plain attribute counters, which the job
   manager sums from per-job deltas into the pool's counters.
3. :func:`write_job_trace` persists the payload as a per-job JSONL trace
   artifact (meta record + spans + metrics) in the same schema
   :meth:`~repro.telemetry.span.Tracer.write_jsonl` writes, so ``repro
   trace summarize`` and ``GET /jobs/<id>/trace`` read job artifacts and
   single-process traces identically.

Payloads are pure builtin data (dicts/lists/numbers/strings), so they
pickle over multiprocessing queues and dump to JSON without adapters.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any

from repro.exceptions import TelemetryError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.span import SCHEMA_VERSION, Tracer

__all__ = [
    "capture_session",
    "merge_payload_metrics",
    "new_trace_id",
    "payload_records",
    "write_job_trace",
]

def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (the service's trace-id format)."""
    return secrets.token_hex(8)


def capture_session(
    tracer: Tracer,
    metrics: MetricsRegistry,
    *,
    trace_id: str,
) -> dict[str, Any]:
    """Snapshot a finished telemetry session into a shippable payload.

    Span records are stamped with the capturing process's pid so a merged
    multi-process trace can still attribute every span to its origin.
    """
    pid = os.getpid()
    spans = []
    for span in tracer.spans:
        record = span.to_record()
        record["pid"] = pid
        spans.append(record)
    return {
        "schema": SCHEMA_VERSION,
        "trace_id": trace_id,
        "pid": pid,
        "cpu_time": tracer.cpu_time,
        "spans": spans,
        "metrics": metrics.to_state(),
    }


def merge_payload_metrics(
    registry: MetricsRegistry, payload: dict[str, Any]
) -> int:
    """Fold a payload's metrics state into ``registry``.

    Returns the number of metric names merged.
    """
    state = payload.get("metrics") or {}
    merged = sum(
        len(state.get(group, {}))
        for group in ("counters", "gauges", "histograms")
    )
    if merged:
        registry.merge_state(state)
    return merged


def payload_records(
    payload: dict[str, Any], **meta_extra: Any
) -> list[dict[str, Any]]:
    """The JSONL records of a payload: meta, then spans, then metrics.

    ``meta_extra`` entries (job id, timings, ...) are added to the meta
    record; readers that predate them ignore unknown keys.
    """
    meta: dict[str, Any] = {
        "type": "meta",
        "schema": payload.get("schema", SCHEMA_VERSION),
        "cpu_time": payload.get("cpu_time", False),
        "trace_id": payload.get("trace_id"),
        "pid": payload.get("pid"),
    }
    meta.update(meta_extra)
    records: list[dict[str, Any]] = [meta]
    records.extend(payload.get("spans", []))
    # Rebuilding a registry from the state and exporting it reuses the
    # exact record schema (summary + raw buckets) live registries write.
    replay = MetricsRegistry()
    replay.merge_state(payload.get("metrics") or {})
    records.extend(replay.to_records())
    return records


def write_job_trace(
    path: str | Path, payload: dict[str, Any], **meta_extra: Any
) -> Path:
    """Persist a payload as a JSONL trace artifact; returns the path."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for record in payload_records(payload, **meta_extra):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise TelemetryError(f"cannot write trace file {path}: {exc}") from None
    return path
