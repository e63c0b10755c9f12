"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports (run pytest with ``-s`` to see them
inline; they are also persisted as CSV under ``benchmarks/results/``) and
registers at least one pytest-benchmark timing.

Setting ``REPRO_BENCH_TRACE=1`` in the environment additionally runs every
benchmark test inside a telemetry session and dumps the JSONL trace (spans
plus pipeline metrics) next to the CSV results as
``results/trace-<test_name>.jsonl`` — inspect them with
``python -m repro trace summarize``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.experiments.tables import format_table, write_csv
from repro.telemetry import telemetry_session

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SEARCH_JSON = RESULTS_DIR / "BENCH_search.json"


def emit(name: str, title: str, headers, rows) -> None:
    """Print a paper-table-analogue and persist it as CSV."""
    table = format_table(headers, rows, title=title)
    print("\n" + table + "\n")
    write_csv(RESULTS_DIR / f"{name}.csv", headers, rows)


def emit_bench_json(section: str, payload) -> None:
    """Merge one benchmark's machine-readable results into BENCH_search.json.

    Each benchmark module owns a named section (wall times and state
    counts per regime) so partial runs update only their own slice;
    the file accumulates across modules instead of being clobbered.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    try:
        doc = json.loads(BENCH_SEARCH_JSON.read_text())
        if not isinstance(doc, dict):
            doc = {}
    except (OSError, ValueError):
        doc = {}
    doc[section] = payload
    BENCH_SEARCH_JSON.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Optionally trace each benchmark run (REPRO_BENCH_TRACE=1)."""
    if not os.environ.get("REPRO_BENCH_TRACE"):
        yield
        return
    with telemetry_session() as (tracer, metrics):
        yield
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    safe_name = re.sub(r"[^\w.-]+", "_", request.node.name)
    tracer.write_jsonl(
        RESULTS_DIR / f"trace-{safe_name}.jsonl", metrics=metrics
    )
