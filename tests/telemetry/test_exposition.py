"""Tests for the Prometheus text-format exposition."""

from __future__ import annotations

import pytest

from repro.telemetry.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_name,
    render_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.telemetry


def registry_records():
    registry = MetricsRegistry()
    registry.count("search.states_visited", 42)
    registry.set_gauge("construct.super_vertices", 6)
    histogram = registry.histogram("search.states_per_call", (5, 500))
    for value in (3.0, 250.0, 2500.5):  # the last lands in the inf bucket
        histogram.observe(value)
    return registry.to_records()


# The renderer's text for registry_records() when it read metrics states.
PINNED = """\
# TYPE repro_construct_super_vertices gauge
repro_construct_super_vertices 6
# TYPE repro_search_states_per_call histogram
repro_search_states_per_call_bucket{le="5"} 1
repro_search_states_per_call_bucket{le="500"} 2
repro_search_states_per_call_bucket{le="+Inf"} 3
repro_search_states_per_call_sum 2753.5
repro_search_states_per_call_count 3
# TYPE repro_search_states_visited counter
repro_search_states_visited 42
"""


class TestNameMangling:
    def test_dots_become_underscores_with_prefix(self):
        assert (prometheus_name("search.states_visited")
                == "repro_search_states_visited")

    def test_leading_digit_guard(self):
        mangled = prometheus_name("9lives")
        assert mangled.startswith("repro_")
        assert not mangled.removeprefix("repro_")[:1].isdigit()


class TestRender:
    def test_counters_gauges_and_type_lines(self):
        text = render_prometheus(registry_records())
        assert "# TYPE repro_search_states_visited counter" in text
        assert "repro_search_states_visited 42" in text
        assert "# TYPE repro_construct_super_vertices gauge" in text
        assert "repro_construct_super_vertices 6" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets_and_sum(self):
        text = render_prometheus(registry_records())
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_search_states_per_call")]
        buckets = [l for l in lines if "_bucket{" in l]
        assert buckets, "histograms must export _bucket series"
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 3
        assert 'le="+Inf"' in buckets[-1]
        assert "repro_search_states_per_call_sum 2753.5" in text
        assert "repro_search_states_per_call_count 3" in text

    def test_extras_override_state_entries(self):
        records = [{"kind": "counter", "name": "service.cache.hits", "value": 999}]
        text = render_prometheus(records, counters={"service.cache.hits": 5})
        assert "repro_service_cache_hits 5" in text
        assert "999" not in text

    def test_labeled_family(self):
        text = render_prometheus(
            None, labeled={"service.jobs": ("status", {"done": 3, "queued": 1})}
        )
        assert "# TYPE repro_service_jobs gauge" in text
        assert 'repro_service_jobs{status="done"} 3' in text
        assert 'repro_service_jobs{status="queued"} 1' in text

    def test_text_is_pinned(self):
        assert render_prometheus(registry_records()) == PINNED

    def test_empty_render(self):
        assert render_prometheus(None) == ""

    def test_content_type_is_prometheus_v004(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE
