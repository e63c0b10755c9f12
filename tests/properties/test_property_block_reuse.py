"""Reusing Algorithm 1's blocks across TSSS rounds equals rebuilding them.

After a round removes a union of whole blocks, :func:`repro.core.solver.mine`
assembles the next super-graph from the surviving blocks instead of
re-running Algorithm 1.  These suites pin that shortcut to the rebuild it
replaces: the super-graph handed to reduction in every round equals a
fresh :func:`build_discrete_supergraph` of the working graph, down to the
iteration order of each super-vertex's members, and ``mine()`` results
are identical with and without reuse.  The results are compared with
polish on and off, under FWER correction, on both search backends, and
behind a prefix cache that hits on some rounds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solver
from repro.core.construct_discrete import BlockPartition, build_discrete_supergraph
from repro.graph.generators import gnm_random_graph
from repro.labels.discrete import DiscreteLabeling
from repro.service.cache import SuperGraphCache
from repro.telemetry.names import SERVICE_CACHE_HITS as HITS

pytestmark = pytest.mark.properties

PROBS = (0.4, 0.3, 0.2, 0.1)


@st.composite
def instances(draw):
    n = draw(st.integers(4, 40))
    m = draw(st.integers(0, min(n * (n - 1) // 2, 4 * n)))
    seed = draw(st.integers(0, 10_000))
    graph = gnm_random_graph(n, m, seed=seed)
    labeling = DiscreteLabeling.random(graph, PROBS, seed=seed + 1)
    return graph, labeling


@contextmanager
def rebuilding_every_round():
    """Forget the blocks after every round, as mine() did before reuse."""
    with mock.patch.object(BlockPartition, "without", lambda self, vertices: None):
        yield


@contextmanager
def counting_reuse():
    calls = []
    original = BlockPartition.supergraph

    def supergraph(self, graph, labeling):
        calls.append(graph.num_vertices)
        return original(self, graph, labeling)

    with mock.patch.object(BlockPartition, "supergraph", supergraph):
        yield calls


def _shape(supergraph):
    """Everything about a super-graph that later stages can observe."""
    return (
        [
            (sv.id, list(sv.members), sv.payload.counts, sv.chi_square)
            for sv in supergraph.super_vertices()
        ],
        supergraph.topology,
    )


def _canonical(result):
    report = {
        field.name: getattr(result.report, field.name)
        for field in fields(result.report)
        if not field.name.endswith("_seconds")
    }
    return result.subgraphs, report, result.correction


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(2, 5))
def test_every_round_reduces_a_fresh_build(instance, top_t):
    graph, labeling = instance
    rounds = []
    original = solver.reduce_supergraph

    def checked_reduce(supergraph, n_theta, **kwargs):
        covered = supergraph.original_vertices(supergraph.super_vertex_ids())
        working = graph.induced_subgraph(
            v for v in graph.vertices() if v in covered
        )
        assert _shape(supergraph) == _shape(
            build_discrete_supergraph(working, labeling)
        )
        rounds.append(len(covered))
        return original(supergraph, n_theta, **kwargs)

    with mock.patch.object(solver, "reduce_supergraph", checked_reduce):
        result = solver.mine(graph, labeling, top_t=top_t, n_theta=6)
    assert len(rounds) == result.report.rounds


MODES = {
    "plain": dict(),
    "polish": dict(polish=True),
    "fwer": dict(correction="fwer", alpha=0.2),
    "numpy": dict(backend="numpy", prune="bounds"),
    "fwer-polish-numpy": dict(
        correction="fwer", alpha=0.2, polish=True, backend="numpy"
    ),
}


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(2, 5), st.sampled_from(sorted(MODES)))
def test_mine_with_reuse_equals_rebuild(instance, top_t, mode):
    graph, labeling = instance
    params = dict(top_t=top_t, n_theta=6, **MODES[mode])
    reused = solver.mine(graph, labeling, **params)
    with rebuilding_every_round():
        rebuilt = solver.mine(graph, labeling, **params)
    assert _canonical(reused) == _canonical(rebuilt)


@settings(max_examples=30, deadline=None)
@given(instances(), st.integers(1, 3), st.integers(1, 3))
def test_prefix_cache_hits_on_early_rounds(instance, warm_t, extra):
    """Rounds a warm cache answers leave no blocks; the next miss rebuilds."""
    graph, labeling = instance
    top_t = warm_t + extra
    expected = solver.mine(graph, labeling, top_t=top_t, n_theta=6)
    for forget in (False, True):
        cache = SuperGraphCache()
        solver.mine(graph, labeling, top_t=warm_t, n_theta=6, prefix_cache=cache)
        hits = cache.counters[HITS]
        if forget:
            with rebuilding_every_round():
                got = solver.mine(
                    graph, labeling, top_t=top_t, n_theta=6, prefix_cache=cache
                )
        else:
            got = solver.mine(
                graph, labeling, top_t=top_t, n_theta=6, prefix_cache=cache
            )
        assert cache.counters[HITS] - hits == min(warm_t, got.report.rounds)
        assert _canonical(got) == _canonical(expected)


class TestReuseHappens:
    """The shortcut is taken exactly where the exactness argument allows."""

    def _instance(self):
        graph = gnm_random_graph(60, 150, seed=3)
        return graph, DiscreteLabeling.random(graph, PROBS, seed=4)

    def test_polish_off_reuses_every_later_round(self):
        graph, labeling = self._instance()
        with counting_reuse() as calls:
            result = solver.mine(graph, labeling, top_t=4, n_theta=8)
        assert result.report.rounds == 4
        assert len(calls) == 3

    def test_top_one_never_reuses(self):
        graph, labeling = self._instance()
        with counting_reuse() as calls:
            solver.mine(graph, labeling, top_t=1)
        assert calls == []

    def test_polished_region_splitting_a_block_forces_a_rebuild(self):
        # On this instance polish moves the first region off the block
        # boundaries, so the second round must rebuild.
        graph = gnm_random_graph(60, 150, seed=108)
        labeling = DiscreteLabeling.random(graph, PROBS, seed=109)
        first = solver.mine(graph, labeling, top_t=1, n_theta=3, polish=True)
        blocks = BlockPartition.of(build_discrete_supergraph(graph, labeling), graph)
        assert blocks.without(first.best.vertices) is None
        with counting_reuse() as calls:
            solver.mine(graph, labeling, top_t=2, n_theta=3, polish=True)
        assert calls == []

    def test_naive_and_continuous_never_reuse(self):
        from repro.labels.continuous import ContinuousLabeling

        graph, labeling = self._instance()
        small = graph.induced_subgraph(range(12))
        with counting_reuse() as calls:
            solver.mine(
                small, labeling.restricted_to(small.vertices()), top_t=3,
                method="naive",
            )
            solver.mine(
                graph, ContinuousLabeling.random(graph, 2, seed=5), top_t=3,
            )
        assert calls == []
