"""Statistic-floor ablation: bounded search cost with and without the
Tarone floor.

The correction subsystem reaches the exhaustive search in one way: the
conservative statistic floor, below which no subgraph can pass
``delta*``, seeds the branch-and-bound incumbent.  This benchmark
quantifies what that buys on Figure-2-style search-bound regimes —
random graphs dense enough that the exhaustive stage dominates — by
running the identical instance with ``prune="bounds"`` alone and with
the floor added, on both backends.

Emits ``correction_pruning.csv`` and extends
``results/BENCH_search.json`` with a ``correction`` section (per-regime
explored-state counts, testability cuts — the bound cuts below the
floor —, delta*, and the end-to-end corrected-mine telemetry).
"""

from __future__ import annotations

import random

import pytest

from repro.core.solver import mine
from repro.enumerate.accumulators import DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import exhaustive_best_mask
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling
from repro.stats.correction import (
    conservative_statistic_floor,
    hypothesis_count_envelope,
    tarone_threshold,
)
from repro.stats.correction import TestabilityEnvelope as _Envelope
from repro.telemetry import names as metric
from repro.telemetry import telemetry_session

from conftest import emit, emit_bench_json

PROBS = (0.5, 0.25, 0.25)
ALPHA = 0.05

# (name, vertices, edge probability, seed): gnp regimes where the
# exhaustive search is the dominant cost, matching the Figure 2 ablation
# framing.
REGIMES = [
    ("sparse-14", 14, 0.25, 101),
    ("medium-14", 14, 0.35, 202),
    ("dense-12", 12, 0.5, 303),
]

_section: dict = {"alpha": ALPHA, "regimes": []}


def _instance(n, p, seed):
    g = gnp_random_graph(n, p, seed=seed)
    lab = DiscreteLabeling.random(g, PROBS, seed=seed + 1)
    bitset = BitsetGraph(g)
    payloads = []
    for v in bitset.vertices:
        counts = [0] * len(PROBS)
        counts[lab.label_of(v)] = 1
        payloads.append(tuple(counts))
    return g, bitset.adjacency, DiscreteAccumulator(PROBS, payloads)


def _floor(graph, probabilities):
    envelope = _Envelope(probabilities)
    max_degree = max(
        (graph.degree(v) for v in graph.vertices()), default=0
    )
    counts = hypothesis_count_envelope(graph.num_vertices, max_degree)
    tarone = tarone_threshold(envelope, counts, ALPHA)
    if tarone.delta_star <= 0.0:
        return tarone, None
    return tarone, conservative_statistic_floor(
        tarone.delta_star, len(probabilities) - 1
    )


@pytest.mark.parametrize("backend", ("python", "numpy"))
def test_correction_pruning_ablation(benchmark, backend):
    rows = []
    for name, n, p, seed in REGIMES:
        graph, adjacency, acc = _instance(n, p, seed=seed)
        tarone, floor = _floor(graph, PROBS)
        assert floor is not None, f"regime {name} must be feasible"

        baseline = exhaustive_best_mask(
            adjacency, acc, prune="bounds", backend=backend
        )
        pruned = exhaustive_best_mask(
            adjacency, acc, prune="bounds", backend=backend,
            statistic_floor=floor,
        )
        # Admissibility on the bench regimes: when the optimum reaches
        # the floor, the seeded search returns the identical winner.
        if baseline.chi_square >= floor:
            assert pruned.mask == baseline.mask
        assert pruned.testability_cuts > 0, f"no cuts fired on {name}"
        assert pruned.explored <= baseline.explored
        rows.append(
            [
                name,
                backend,
                baseline.explored,
                pruned.explored,
                round(1 - pruned.explored / baseline.explored, 3),
                pruned.testability_cuts,
                f"{tarone.delta_star:.3e}",
                tarone.testable_min_size,
            ]
        )
        _section["regimes"].append(
            {
                "regime": name,
                "backend": backend,
                "explored_baseline": baseline.explored,
                "explored_floor": pruned.explored,
                "testability_cuts": pruned.testability_cuts,
                "delta_star": tarone.delta_star,
                "num_testable": tarone.num_testable,
                "testable_min_size": tarone.testable_min_size,
            }
        )

    name, n, p, seed = REGIMES[0]
    graph, adjacency, acc = _instance(n, p, seed=seed)
    _, floor = _floor(graph, PROBS)
    benchmark.pedantic(
        exhaustive_best_mask,
        args=(adjacency, acc),
        kwargs=dict(
            prune="bounds", backend=backend, statistic_floor=floor
        ),
        rounds=3,
        iterations=1,
    )
    emit(
        "correction_pruning",
        f"Statistic-floor ablation ({backend} backend, alpha={ALPHA})",
        [
            "Regime", "Backend", "States (bounds)", "States (+floor)",
            "Reduction", "Testability cuts", "delta*", "Min testable size",
        ],
        rows,
    )
    emit_bench_json("correction", _section)


def test_corrected_mine_end_to_end():
    """The solver path cuts states too: search.testability_cuts > 0."""
    rng = random.Random(77)
    n = 14
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [
        (u, v)
        for u, v in (
            (rng.randrange(n), rng.randrange(n)) for _ in range(10)
        )
        if u != v
    ]
    graph = Graph.from_edges(edges, vertices=range(n))
    labeling = DiscreteLabeling.random(graph, PROBS, seed=78)
    with telemetry_session() as (_, metrics):
        result = mine(
            graph, labeling, top_t=2, prune="bounds",
            correction="fwer", alpha=ALPHA,
        )
        snap = metrics.snapshot()
    assert snap.get(metric.SEARCH_TESTABILITY_CUTS, 0) > 0
    _section["mine_end_to_end"] = {
        "testability_cuts": snap.get(metric.SEARCH_TESTABILITY_CUTS, 0),
        "delta_star": snap.get(metric.CORRECTION_DELTA_STAR, 0.0),
        "regions_filtered": snap.get(metric.CORRECTION_REGIONS_FILTERED, 0),
        "survivors": len(result.subgraphs),
    }
    emit_bench_json("correction", _section)
