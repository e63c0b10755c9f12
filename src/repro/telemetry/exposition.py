"""Prometheus text-format exposition of the metrics registry.

Renders the version 0.0.4 text format (what ``GET /metricsz?format=
prometheus`` serves, and what a stock Prometheus scraper ingests without
adapters).  Dotted registry names are mangled to legal Prometheus names —
``search.states_visited`` becomes ``repro_search_states_visited`` — and
histograms are exported with the conventional cumulative ``_bucket{le=}``
series plus ``_sum``/``_count``, recomputed from the records' raw
per-bucket counts so scraped quantiles are exact, not re-derived from the
JSONL summary approximations.

The renderer consumes :meth:`~repro.telemetry.metrics.MetricsRegistry.
to_records` records rather than live metric objects, so the same function
serves a local registry, a worker payload, or a merged pool-wide
aggregate.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from typing import Any

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "prometheus_name",
    "render_prometheus",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The Content-Type Prometheus scrapers expect for the text format."""

_PREFIX = "repro_"
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Mangle a dotted registry name into a legal Prometheus metric name."""
    mangled = _INVALID.sub("_", name)
    if mangled[:1].isdigit():
        mangled = "_" + mangled
    return _PREFIX + mangled


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(
    records: Iterable[dict[str, Any]] | None = None,
    *,
    counters: dict[str, float] | None = None,
    gauges: dict[str, float] | None = None,
    labeled: dict[str, tuple[str, dict[str, float]]] | None = None,
) -> str:
    """Render metric records (plus ad-hoc series) as Prometheus text.

    ``records`` are :meth:`~repro.telemetry.metrics.MetricsRegistry.
    to_records` records (may be None/empty).  ``counters``/``gauges`` add
    scalar series kept outside any registry (pool statistics); they win
    over same-named records so an aggregated value is never exported
    twice.  ``labeled`` maps a metric name to ``(label_key, {label_value:
    value})`` and renders one gauge family with one sample per label
    value — e.g. job counts by status.  Families are emitted sorted by
    exported name.
    """
    counters = dict(counters or {})
    gauges = dict(gauges or {})
    labeled = dict(labeled or {})

    families: dict[str, tuple[str, list[str]]] = {}

    def add(name: str, kind: str, lines: list[str]) -> None:
        families[prometheus_name(name)] = (kind, lines)

    for name, (label_key, samples) in labeled.items():
        exported = prometheus_name(name)
        lines = [
            f'{exported}{{{label_key}="{_escape_label(str(value))}"}} '
            f"{_format_value(count)}"
            for value, count in sorted(samples.items())
        ]
        add(name, "gauge", lines)
    for name, value in counters.items():
        add(name, "counter", [f"{prometheus_name(name)} {_format_value(value)}"])
    for name, value in gauges.items():
        add(name, "gauge", [f"{prometheus_name(name)} {_format_value(value)}"])

    overridden = set(families)
    for record in records or ():
        name, kind = record["name"], record["kind"]
        exported = prometheus_name(name)
        if exported in overridden:
            continue
        if kind != "histogram":
            add(name, kind, [f"{exported} {_format_value(record['value'])}"])
            continue
        lines = []
        cumulative = 0
        for bound, count in record["buckets"]:
            cumulative += count
            lines.append(
                f'{exported}_bucket{{le="{_format_value(float(bound))}"}} '
                f"{cumulative}"
            )
        lines.append(f"{exported}_sum {_format_value(float(record['sum']))}")
        lines.append(f"{exported}_count {record['count']}")
        add(name, "histogram", lines)

    out: list[str] = []
    for exported in sorted(families):
        kind, lines = families[exported]
        out.append(f"# TYPE {exported} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else ""
