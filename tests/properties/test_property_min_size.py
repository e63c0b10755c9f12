"""``mine(min_size=k)`` returns the best region with at least ``k`` vertices.

The search on a reduced super-graph scores a connected union of
super-vertices only when it carries at least ``min_size`` *original*
vertices (its mass), so the region ``mine`` returns must be the best such
union.  The oracle here rebuilds the round-0 reduced super-graph the
solver searches (Algorithm 1, then Algorithm 5 at ``n_theta``) and checks
every connected union of its super-vertices by brute force.  It runs on a
seeded sweep of 400 random Barabási–Albert instances under both backends and
both prune modes: 12–40 vertices, labels drawn from ``(0.5, 0.3, 0.2)``,
``n_theta`` 6–12 and ``min_size`` 2–10.
"""

from __future__ import annotations

import random

import pytest

from repro.core.construct_discrete import build_discrete_supergraph
from repro.core.reduce import reduce_supergraph
from repro.core.solver import mine
from repro.enumerate.connected import enumerate_connected_subsets
from repro.graph.generators import barabasi_albert_graph
from repro.labels.discrete import DiscreteLabeling

pytestmark = pytest.mark.properties

PROBS = (0.5, 0.3, 0.2)
MODES = [
    (backend, prune)
    for backend in ("python", "numpy")
    for prune in ("none", "bounds")
]


def _instance(seed):
    rng = random.Random(seed)
    n = rng.randint(12, 40)
    graph = barabasi_albert_graph(n, 2, seed=rng.randrange(10**6))
    labeling = DiscreteLabeling.random(graph, PROBS, seed=rng.randrange(10**6))
    return graph, labeling, rng.randint(6, 12), rng.randint(2, 10)


def _best_union(graph, labeling, n_theta, min_size):
    """Chi-square of the best connected union of reduced super-vertices
    with at least ``min_size`` original vertices (None when there is none)."""
    supergraph = build_discrete_supergraph(graph.copy(), labeling)
    reduce_supergraph(supergraph, n_theta)
    best = None
    for ids in enumerate_connected_subsets(supergraph.topology):
        members = set()
        for sid in ids:
            members |= supergraph.super_vertex(sid).members
        if len(members) >= min_size:
            value = labeling.chi_square(members)
            if best is None or value > best:
                best = value
    return best


def _check(graph, labeling, n_theta, min_size):
    expected = _best_union(graph, labeling, n_theta, min_size)
    for backend, prune in MODES:
        result = mine(
            graph, labeling, n_theta=n_theta, min_size=min_size,
            backend=backend, prune=prune,
        )
        if expected is None:
            assert not result.subgraphs, (backend, prune)
            continue
        assert result.best.size >= min_size, (backend, prune)
        assert result.best.chi_square == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        ), (backend, prune)


def test_pinned_twelve_vertex_case():
    # All 12 vertices score 0.1111; the 10-vertex union {0..8, 10} of
    # reduced super-vertices scores 2.5333 and is the best with >= 10.
    graph = barabasi_albert_graph(12, 2, seed=139)
    labeling = DiscreteLabeling.random(graph, PROBS, seed=140)
    expected = _best_union(graph, labeling, 11, 10)
    assert expected == pytest.approx(2.5333333333, rel=1e-9)
    for backend, prune in MODES:
        best = mine(
            graph, labeling, n_theta=11, min_size=10,
            backend=backend, prune=prune,
        ).best
        assert best.vertices == frozenset({0, 1, 2, 3, 4, 5, 6, 7, 8, 10})
        assert best.chi_square == pytest.approx(expected, rel=1e-9)
    _check(graph, labeling, 11, 10)


@pytest.mark.parametrize("seed", range(400))
def test_min_size_region_is_the_best_eligible_union(seed):
    _check(*_instance(seed))
