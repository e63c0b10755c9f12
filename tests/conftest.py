"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities

try:
    from hypothesis import settings as _hyp_settings

    # Wall-clock deadlines measure the CI host, not the code under test:
    # a 0.03ms property flakes at 200ms whenever a neighboring suite
    # (worker pools) saturates the box.  Most property
    # tests already opt out per-test; make it the suite-wide default.
    _hyp_settings.register_profile("repro", deadline=None)
    _hyp_settings.load_profile("repro")
except ImportError:  # hypothesis is a test extra; tier-1 runs without it
    pass


@pytest.fixture
def triangle() -> Graph:
    """K3 on vertices 0, 1, 2."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    """Path 0-1-2-3."""
    return Graph.path(4)


@pytest.fixture
def two_components() -> Graph:
    """Two disjoint edges: 0-1 and 2-3."""
    return Graph.from_edges([(0, 1), (2, 3)])


@pytest.fixture
def small_labeled():
    """A 6-vertex labeled graph with an obvious dense-label region.

    Vertices 0-2 form a triangle of label 1 (rare, p=0.2); 3-5 hang off as
    a path of label 0.
    """
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    labeling = DiscreteLabeling(
        (0.8, 0.2), {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    )
    return graph, labeling


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def random_discrete_instance(seed: int, n: int = 12, p_edge: float = 0.4, l: int = 3):
    """A reproducible random discrete instance for oracle comparisons."""
    from repro.graph.generators import gnp_random_graph

    graph = gnp_random_graph(n, p_edge, seed=seed)
    labeling = DiscreteLabeling.random(
        graph, uniform_probabilities(l), seed=seed + 1
    )
    return graph, labeling


def random_continuous_instance(seed: int, n: int = 12, p_edge: float = 0.4, k: int = 2):
    """A reproducible random continuous instance for oracle comparisons."""
    from repro.graph.generators import gnp_random_graph

    graph = gnp_random_graph(n, p_edge, seed=seed)
    labeling = ContinuousLabeling.random(graph, k, seed=seed + 1)
    return graph, labeling


def service_cache_dir_from_env() -> str | None:
    """Cache directory for the service fixtures, from ``REPRO_TEST_CACHE_DIR``.

    Unset (the default) returns None — service fixtures run with the plain
    in-memory prefix cache.  CI's disk-tier step sets the variable to rerun
    the whole service suite over the persistent two-tier cache: ``1`` (or
    ``true``/``yes``) means a fresh temporary directory, any other value is
    used as the directory itself.
    """
    import os
    import tempfile

    value = os.environ.get("REPRO_TEST_CACHE_DIR")
    if not value:
        return None
    if value.lower() in ("1", "true", "yes"):
        return tempfile.mkdtemp(prefix="repro-service-cache-")
    os.makedirs(value, exist_ok=True)
    return value
