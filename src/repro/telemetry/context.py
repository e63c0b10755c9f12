"""Cross-process trace context: capture, ship, and persist.

The mining service runs every job inside a spawn-context worker process,
so spans and metrics recorded there die with the worker unless they are
serialised back.  This module defines the wire shape for that round trip:

1. The worker runs ``mine()`` under a :func:`repro.telemetry.
   telemetry_session` and calls :func:`capture_session` when the job ends,
   producing a plain-dict *telemetry payload* (trace id, pid, pid-stamped
   span records, the registry's metric records) that travels over the
   result pipe alongside the mining result.
2. The parent folds the payload's metric records into its own registry
   with :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_records`.
   Prefix-cache counters are not in the payload: the cache keeps plain
   attribute counters, which the job manager sums from per-job deltas
   into the pool's counters.
3. :func:`payload_records` lays the payload out as a JSONL trace (meta
   record + spans + metrics) in the schema :meth:`~repro.telemetry.span.
   Tracer.write_jsonl` writes, so ``repro trace summarize`` and ``GET
   /jobs/<id>/trace`` read job artifacts and single-process traces
   identically.

Payloads are pure builtin data (dicts/lists/numbers/strings), so they
pickle over multiprocessing pipes and dump to JSON without adapters.
"""

from __future__ import annotations

import os
import secrets
from typing import Any

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.span import SCHEMA_VERSION, Tracer

__all__ = [
    "capture_session",
    "new_trace_id",
    "payload_records",
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
        "spans": spans,
        "metrics": metrics.to_records(),
    }


def payload_records(
    payload: dict[str, Any], **meta_extra: Any
) -> list[dict[str, Any]]:
    """The JSONL records of a payload: meta, then spans, then metrics.

    ``meta_extra`` entries (job id, timings, ...) are added to the meta
    record; readers that predate them ignore unknown keys.
    """
    meta: dict[str, Any] = {
        "type": "meta",
        "schema": payload["schema"],
        "trace_id": payload["trace_id"],
        "pid": payload["pid"],
        **meta_extra,
    }
    return [meta, *payload["spans"], *payload["metrics"]]
