"""Regression tests: the registry under concurrent readers and writers.

The HTTP server snapshots the registry from many handler threads while
the collector thread and handler threads keep counting — the registry
must serialise internally (it used to rely on the job manager's lock).
"""

from __future__ import annotations

import threading

import pytest

from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.telemetry

THREADS = 8
ITERATIONS = 2000


class TestConcurrentRegistry:
    def test_concurrent_counts_are_not_lost(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def work():
            barrier.wait()
            for _ in range(ITERATIONS):
                registry.count("service.requests_total")
                registry.observe("service.request_seconds", 0.001)

        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["service.requests_total"] == THREADS * ITERATIONS
        assert (snapshot["service.request_seconds"]["count"]
                == THREADS * ITERATIONS)

    def test_snapshot_during_writes_never_raises(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def write():
            i = 0
            while not stop.is_set():
                registry.count(f"search.name_{i % 5}")
                registry.observe("search.states_per_call", float(i % 100))
                registry.set_gauge("construct.super_vertices", i)
                i += 1

        def read():
            try:
                while not stop.is_set():
                    registry.snapshot()
                    registry.to_records()
                    registry.names()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        writers = [threading.Thread(target=write) for _ in range(2)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in writers + readers:
            thread.join(timeout=10)
        timer.cancel()
        assert not errors

    def test_merge_records_while_counting(self):
        source = MetricsRegistry()
        source.count("search.states_visited", 10)
        source.observe("search.states_per_call", 10.0)
        records = source.to_records()

        target = MetricsRegistry()
        barrier = threading.Barrier(2)

        def merge():
            barrier.wait()
            for _ in range(200):
                target.merge_records(records)

        def count():
            barrier.wait()
            for _ in range(200):
                target.count("search.states_visited", 10)

        threads = [threading.Thread(target=merge),
                   threading.Thread(target=count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert target.snapshot()["search.states_visited"] == 400 * 10
