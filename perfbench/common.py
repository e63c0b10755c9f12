"""Shared plumbing of the benchmark: paths, environment, statistics, output.

Everything here is workload-agnostic.  The benchmark is run from the root
of a source checkout; :data:`ROOT` is that root and :data:`WORK` the
scratch directory (``.perfbench/``) where every file the benchmark writes
lives — the service's cache and trace directories, temporary files, and
the span JSONL dumps.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CLEARED_VARS = ("REPRO_TEST_PARALLEL", "REPRO_BENCH_TRACE")
"""Repository switches that silently change what a run measures:
``REPRO_TEST_PARALLEL`` turns ``parallel=1`` searches into sharded ones and
``REPRO_BENCH_TRACE`` makes the pytest benchmarks dump traces."""

PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
"""One BLAS/OpenMP thread per process: the service runs two workers on a
two-core box, and the library workloads are single-threaded by design."""

MARKER = "PERFBENCH_CLEAN_ENV"


def clean_env() -> dict[str, str]:
    """The environment every benchmark process runs under."""
    env = dict(os.environ)
    for name in CLEARED_VARS:
        env.pop(name, None)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env[MARKER] = "1"
    return env


def ensure_clean_process(argv: list[str]) -> None:
    """Re-exec the interpreter under :func:`clean_env` unless already there.

    Thread pools and the hash seed are fixed when the interpreter and numpy
    start, so setting them from inside a running process is too late.
    ``execv`` replaces this process; no child is left behind.
    """
    if os.environ.get(MARKER) == "1":
        return
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.execve(sys.executable, [sys.executable, *argv], clean_env())


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def environment_snapshot() -> dict[str, object]:
    """Host facts that explain a noisy run: cores, versions, load, steal."""
    import numpy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "time": time.time(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": load,
        "steal_ticks": _steal_ticks(),
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by the exclusive quantile method."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def emit_result(
    *, correct: bool, attempted: int, failed: int,
    metrics: dict[str, dict[str, object]],
) -> None:
    """Print the result object; it must be the last line of stdout."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
