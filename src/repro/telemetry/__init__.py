"""``repro.telemetry`` — pipeline observability: tracing, metrics, profiling.

The paper's pipeline is a staged hot path (construct → reduce → search);
optimising it requires measuring it.  This package provides the three
pieces the rest of the library instruments against:

``repro.telemetry.span``
    Nested :class:`Span`/:class:`Tracer` wall-time tracing and the one
    JSONL trace writer/reader pair.
``repro.telemetry.metrics``
    A :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
    histograms keyed by the stable names in :mod:`repro.telemetry.names`.
``repro.telemetry.summarize``
    Per-stage breakdown tables from persisted traces (the ``repro trace
    summarize`` subcommand), merging multiple files without double-counting.
``repro.telemetry.context``
    Cross-process trace context: capture a worker session into a shippable
    payload and lay it out as per-job trace records.
``repro.telemetry.progress``
    Live :class:`SearchProgress` heartbeats published by both search
    backends at the ``check_abort`` cadence, aggregated per job.
``repro.telemetry.exposition``
    Prometheus text-format rendering of metric records
    (``GET /metricsz?format=prometheus``).

Telemetry is **off by default** and gated by the module-level
:data:`TELEMETRY` singleton.  Instrumentation sites are written as::

    from repro.telemetry import TELEMETRY as _TELEMETRY
    ...
    if _TELEMETRY.enabled:
        _TELEMETRY.metrics.count(names.SEARCH_STATES_VISITED, explored)

so the disabled path costs a single attribute check (verified by the
``tests/telemetry`` overhead guard).  Enable collection for a block of
work with :func:`telemetry_session`::

    from repro.telemetry import telemetry_session

    with telemetry_session() as (tracer, metrics):
        result = mine(graph, labeling)
    tracer.write_jsonl("trace.jsonl", metrics=metrics)

The tracer and the gate itself stay single-threaded by design — the
pipeline they instrument is single-threaded, and keeping the gate
lock-free is what makes the disabled path free.  The
:class:`MetricsRegistry` *is* thread-safe (one internal lock), because the
serving layer mutates it from HTTP handler threads and the job collector
while ``GET /metricsz`` snapshots it concurrently.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

from repro.telemetry.context import (
    capture_session,
    new_trace_id,
    payload_records,
)
from repro.telemetry.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.progress import (
    ProgressAggregator,
    SearchProgress,
)
from repro.telemetry.span import (
    SCHEMA_VERSION,
    Span,
    Tracer,
    read_trace_records,
    write_trace_records,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressAggregator",
    "SCHEMA_VERSION",
    "SearchProgress",
    "Span",
    "TELEMETRY",
    "Telemetry",
    "Tracer",
    "capture_session",
    "new_trace_id",
    "payload_records",
    "read_trace_records",
    "render_prometheus",
    "telemetry_session",
    "write_trace_records",
]


class Telemetry:
    """Global on/off gate holding the active tracer and metrics registry.

    ``enabled`` is the only attribute hot paths ever read; ``tracer`` and
    ``metrics`` are non-None exactly while enabled.  Switch it with
    :func:`telemetry_session`.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Tracer | None = None
        self.metrics: MetricsRegistry | None = None


TELEMETRY = Telemetry()
"""The process-wide telemetry gate (disabled by default)."""


@contextmanager
def telemetry_session() -> Iterator[tuple[Tracer, MetricsRegistry]]:
    """Enable global telemetry for a block, restoring the prior state after.

    Yields a fresh ``(tracer, metrics)`` pair.  Sessions nest: an inner
    session swaps in its own sinks and the outer session's sinks come back
    on exit.
    """
    previous = (TELEMETRY.enabled, TELEMETRY.tracer, TELEMETRY.metrics)
    tracer, metrics = Tracer(), MetricsRegistry()
    TELEMETRY.enabled, TELEMETRY.tracer, TELEMETRY.metrics = True, tracer, metrics
    try:
        yield tracer, metrics
    finally:
        TELEMETRY.enabled, TELEMETRY.tracer, TELEMETRY.metrics = previous
