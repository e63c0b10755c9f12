"""Structured tracing: nested wall-time spans and the JSONL trace format.

A :class:`Span` measures one named region of the pipeline (a stage, a
round, a search call); a :class:`Tracer` maintains the active-span stack so
nesting is recorded as a parent/child tree.  Spans measure wall time with
:func:`time.perf_counter`.

The tracer is deliberately dependency-free and single-threaded — the
pipeline it instruments is single-threaded, and the global telemetry gate
(:data:`repro.telemetry.TELEMETRY`) keeps the disabled path down to one
attribute check.

Trace files are JSON Lines: a meta record, one record per span, then any
metric records, so partial files from aborted runs stay parseable.
:func:`write_trace_records` is the one writer of that format and
:func:`read_trace_records` the one reader; the CLI's ``--trace`` file and
the service's per-job artifacts both go through them.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from repro.exceptions import TelemetryError

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "Tracer",
    "read_trace_records",
    "write_trace_records",
]

SCHEMA_VERSION = 1
"""Trace-file schema version written into the ``meta`` record."""


class Span:
    """One timed, named region; a node in the trace tree.

    Use as a context manager obtained from :meth:`Tracer.span`.  Attributes
    passed at creation (or added to :attr:`attributes` while the span is
    open) are exported verbatim, so they must be JSON-serialisable.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "start_offset",
        "wall_seconds",
        "_tracer",
        "_start_wall",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_offset: float = 0.0
        self.wall_seconds: float = 0.0
        self._tracer = tracer
        self._start_wall: float = 0.0

    def set(self, **attributes: Any) -> "Span":
        """Attach extra attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack.append(self)
        self._start_wall = time.perf_counter()
        self.start_offset = self._start_wall - tracer._epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_wall = time.perf_counter()
        tracer = self._tracer
        self.wall_seconds = end_wall - self._start_wall
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        top = tracer._stack.pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise TelemetryError(
                f"span {self.name!r} closed while {top.name!r} was still open"
            )
        tracer.spans.append(self)

    def to_record(self) -> dict[str, Any]:
        """The JSONL representation of a finished span."""
        record: dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_offset, 9),
            "wall_s": round(self.wall_seconds, 9),
        }
        if self.attributes:
            record["attrs"] = self.attributes
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span(name={self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, wall={self.wall_seconds:.6f}s)"
        )


class Tracer:
    """Records a tree of :class:`Span` objects in completion order.

    ``spans`` holds finished spans; nesting is recoverable through
    ``parent_id``.  The tracer is reusable across several pipeline calls —
    successive roots simply become siblings.
    """

    __slots__ = ("spans", "_stack", "_next_id", "_epoch")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    def span(self, name: str, **attributes: Any) -> Span:
        """Create (but do not start) a child span of the active span.

        Entering the returned span starts its clocks and pushes it on the
        active-span stack, so nesting follows ``with`` structure.
        """
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, name, self._next_id, parent, attributes)
        self._next_id += 1
        return span

    @property
    def active_span(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def to_records(self) -> list[dict[str, Any]]:
        """All finished spans as JSONL records, preceded by a meta record."""
        meta = {"type": "meta", "schema": SCHEMA_VERSION}
        return [meta] + [s.to_record() for s in self.spans]

    def write_jsonl(self, path: str | Path, *, metrics=None) -> None:
        """Write the trace (and optionally a metrics registry) as JSONL.

        ``metrics`` may be a :class:`~repro.telemetry.metrics.MetricsRegistry`;
        its records are appended after the span records so one file carries
        the whole observability payload of a run.
        """
        records = self.to_records()
        if metrics is not None:
            records.extend(metrics.to_records())
        write_trace_records(path, records)


def write_trace_records(path: str | Path, records: Iterable[dict]) -> Path:
    """Write ``records`` to ``path`` as JSONL, one sorted-key object a line."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise TelemetryError(f"cannot write trace file {path}: {exc}") from None
    return path


def read_trace_records(path: str | Path) -> list[dict]:
    """Every record of a JSONL trace, in file order, meta included.

    Blank lines and non-object lines are skipped; malformed lines raise
    :class:`TelemetryError` with the offending line number.
    """
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise TelemetryError(f"cannot read trace file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(
                f"{path}:{lineno}: invalid JSON in trace file: {exc}"
            ) from None
        if isinstance(record, dict):
            records.append(record)
    return records
