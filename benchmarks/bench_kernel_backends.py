"""Backend shootout: vectorized numpy kernel vs the reference python DFS.

Times ``exhaustive_best_mask`` under both backends x both prune modes on
the two regimes of ``bench_ablation_bounds.py`` — a raw sparse graph like
the naive method searches, and the reduced super-graph the paper's
pipeline produces — and records wall time, states visited, and speedup to
``benchmarks/results/``.  Every timed pair is also checked for the
identical optimum, so the table can never report a speedup obtained by
returning a different answer.

Run with plain pytest (no ``--benchmark-only``: the comparisons need
paired timings inside one test, so this module times explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_backends.py -s
"""

from __future__ import annotations

import time

from repro.core.solver import mine
from repro.enumerate.accumulators import DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.generators import gnm_random_graph
from repro.labels.discrete import DiscreteLabeling
from repro.telemetry import telemetry_session
from repro.telemetry import names as metric

from conftest import emit, emit_bench_json

DYADIC_PROBS = (0.5, 0.25, 0.25)
# Raw-search regimes, searched uncapped: sparse G(n, m) graphs whose
# exhaustive family grows from 112k to 365k connected sets, where
# batching amortizes.
RAW_REGIMES = [(22, 30), (24, 32), (24, 36)]
SUPER_N, SUPER_M, N_THETA = 200, 420, 20
REPEATS = 3


def _raw_instance(n, m, seed=7):
    g = gnm_random_graph(n, m, seed=seed)
    lab = DiscreteLabeling.random(g, DYADIC_PROBS, seed=seed + 1)
    bitset = BitsetGraph(g)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * len(DYADIC_PROBS)
        counts[lab.label_of(v)] = 1
        payloads.append(tuple(counts))
    return bitset.adjacency, DiscreteAccumulator(DYADIC_PROBS, payloads)


def _timed_search(adjacency, acc, *, prune, backend):
    best = float("inf")
    outcome = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = exhaustive_best_mask(
            adjacency, acc, prune=prune, backend=backend
        )
        best = min(best, time.perf_counter() - start)
    return outcome, best


def test_raw_search_backends():
    rows = []
    records = []
    for n, m in RAW_REGIMES:
        adjacency, acc = _raw_instance(n, m)
        for prune in ("none", "bounds"):
            python, python_s = _timed_search(
                adjacency, acc, prune=prune, backend="python"
            )
            numpy_, numpy_s = _timed_search(
                adjacency, acc, prune=prune, backend="numpy"
            )
            auto, auto_s = _timed_search(
                adjacency, acc, prune=prune, backend="auto"
            )
            assert numpy_.mask == python.mask
            assert numpy_.chi_square == python.chi_square  # dyadic probs
            assert auto.mask == python.mask
            assert auto.chi_square == python.chi_square
            if prune == "none":
                assert numpy_ == python  # full outcome, counters included
            rows.append(
                [
                    f"gnm({n},{m})",
                    prune,
                    round(python_s * 1000, 2),
                    round(numpy_s * 1000, 2),
                    round(auto_s * 1000, 2),
                    python.explored,
                    numpy_.explored,
                    round(python_s / numpy_s, 1),
                ]
            )
            records.append({
                "regime": f"gnm({n},{m})",
                "prune": prune,
                "wall_seconds": {
                    "python": python_s, "numpy": numpy_s, "auto": auto_s,
                },
                "states": {"python": python.explored, "numpy": numpy_.explored},
            })
    emit(
        "kernel_backends_raw",
        f"Search backends on raw graphs (uncapped, min of {REPEATS} runs)",
        [
            "regime",
            "prune",
            "python ms",
            "numpy ms",
            "auto ms",
            "python states",
            "numpy states",
            "speedup",
        ],
        rows,
    )
    emit_bench_json("raw_search_backends", records)
    # Acceptance bar: an order-of-magnitude wall-time drop on at least
    # the largest regime under prune="none" (identical state family).
    largest_none = [r for r in rows if r[0] == "gnm(24,36)" and r[1] == "none"]
    assert largest_none and largest_none[0][-1] >= 5.0


def test_pipeline_backends():
    g = gnm_random_graph(SUPER_N, SUPER_M, seed=11)
    lab = DiscreteLabeling.random(g, DYADIC_PROBS, seed=12)
    rows = []
    records = []
    for prune in ("none", "bounds"):
        timings = {}
        states = {}
        best = {}
        for backend in ("python", "numpy", "auto"):
            wall = float("inf")
            for _ in range(REPEATS):
                with telemetry_session() as (_, metrics):
                    start = time.perf_counter()
                    result = mine(
                        g, lab, n_theta=N_THETA, prune=prune, backend=backend
                    )
                    wall = min(wall, time.perf_counter() - start)
                states[backend] = metrics.snapshot()[
                    metric.SEARCH_STATES_VISITED
                ]
            timings[backend] = wall
            best[backend] = result.best
        assert best["numpy"].vertices == best["python"].vertices
        assert best["auto"].vertices == best["python"].vertices
        if prune == "bounds":
            # The regression backend="auto" exists to kill: on the small
            # bounds-pruned reduced super-graph the kernel's batch setup
            # used to cost ~0.6x of python's total; auto must pick the
            # python walk there and stay within timing noise of it.
            assert timings["auto"] <= timings["python"] * 1.5
        rows.append(
            [
                prune,
                round(timings["python"] * 1000, 2),
                round(timings["numpy"] * 1000, 2),
                round(timings["auto"] * 1000, 2),
                states["python"],
                states["numpy"],
                round(timings["python"] / timings["numpy"], 1),
            ]
        )
        records.append({
            "regime": f"pipeline gnm({SUPER_N},{SUPER_M}) n_theta={N_THETA}",
            "prune": prune,
            "wall_seconds": dict(timings),
            "states": dict(states),
        })
    emit(
        "kernel_backends_pipeline",
        f"mine() backends on the reduced super-graph "
        f"(n={SUPER_N}, m={SUPER_M}, N_theta={N_THETA}, "
        f"min of {REPEATS} runs)",
        ["prune", "python ms", "numpy ms", "auto ms",
         "python states", "numpy states", "speedup"],
        rows,
    )
    emit_bench_json("pipeline_backends", records)
