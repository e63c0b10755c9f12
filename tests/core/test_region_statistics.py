"""Every reported chi-square is a function of the region alone.

A region's chi-square and p-value are its labeling's statistic of the
vertex set, so the search backend, the prune mode and the polish pass
cannot change them, and two regions with equal statistics tie exactly
(the smallest mask wins in every search path).  The label probabilities
here are not dyadic, so no float sum along a search path is exact by
luck.
"""

from __future__ import annotations

import pytest

from repro.core.solver import mine
from repro.graph.generators import barabasi_albert_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.protocol import result_to_payload
from repro.telemetry import telemetry_session
from repro.telemetry import names as metric

PROBS = (0.37, 0.29, 0.21, 0.13)
PATHS = [
    (prune, backend)
    for prune in ("none", "bounds")
    for backend in ("python", "numpy")
]


def _instance(kind: str, seed: int, n: int):
    graph = barabasi_albert_graph(n, 2, seed=seed)
    if kind == "discrete":
        return graph, DiscreteLabeling.random(graph, PROBS, seed=seed + 1)
    return graph, ContinuousLabeling.random(graph, 2, seed=seed + 1)


def _assert_paths_agree(graph, labeling, **params) -> None:
    """All four prune x backend paths report the same regions, bit for
    bit, and each region's chi-square is its labeling's statistic."""
    regions = []
    for prune, backend in PATHS:
        result = mine(graph, labeling, prune=prune, backend=backend, **params)
        for sub in result:
            assert sub.chi_square == labeling.chi_square(sub.vertices)
        regions.append(result_to_payload(result)["subgraphs"])
    assert regions[0]
    for other in regions[1:]:
        assert other == regions[0]


@pytest.mark.parametrize("seed", [25, 56])
def test_paths_agree_where_float_noise_split_them(seed):
    # Seed 25: a bounds-pruned python walk picked a region one vertex
    # away from the other paths; seed 56: the kernel and the python walk
    # picked different top regions.  Both were ties of equal count
    # vectors decided by the last bit of a path-dependent float sum.
    graph, labeling = _instance("discrete", seed, 40 + seed % 50)
    _assert_paths_agree(graph, labeling, top_t=3, n_theta=16)


@pytest.mark.properties
@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("seed", range(100, 120))
def test_paths_agree_on_random_instances(kind, seed):
    graph, labeling = _instance(kind, seed, 24 + seed % 20)
    _assert_paths_agree(
        graph, labeling, top_t=3, n_theta=12, polish=seed % 3 == 0
    )


def test_polish_reports_no_improvement_of_an_unchanged_region():
    # The hill-climb keeps region 2 of this instance as it is.  When its
    # value was compared with the search's path-dependent one, polish
    # "improved" the unchanged set and replaced its components.
    graph = barabasi_albert_graph(14, 2, seed=13)
    labeling = DiscreteLabeling.random(graph, (0.4, 0.3, 0.2, 0.1), seed=14)
    plain = mine(graph, labeling, top_t=4, method="naive")
    with telemetry_session() as (_, metrics):
        polished = mine(graph, labeling, top_t=4, method="naive", polish=True)
    assert metrics.snapshot().get(metric.SOLVER_POLISH_IMPROVEMENTS, 0) == 0
    assert result_to_payload(polished)["subgraphs"] == (
        result_to_payload(plain)["subgraphs"]
    )
