"""Algorithm 2's flat pass against the merge-by-merge build it replaced.

The oracle below is a copy of the earlier implementation: one
:class:`SuperGraph` super-vertex per vertex, every edge added up front,
then :meth:`SuperGraph.merge` for each contracting edge.  The flat
pass must reproduce it exactly — the same live ids in order, the same
member sets (iteration order included), bit-identical raw sums and
statistics, the same super-edges, and the same telemetry — in every
``edge_order`` mode, for 1-3 dimensions, int/str/tuple vertex names,
isolated vertices, exact chi-square ties (which must not contract) and
all-zero scores.  ``mine()`` must give the same result with either build.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mine
from repro.core import solver
from repro.core.construct_continuous import (
    _ordered_edges,
    build_continuous_supergraph,
)
from repro.core.contracting import continuous_merge_if_contracting
from repro.core.supergraph import SuperGraph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.service.cache import SuperGraphCache
from repro.stats.zscore import RegionScore
from repro.telemetry import TELEMETRY
from repro.telemetry import names as metric
from repro.telemetry import telemetry_session

pytestmark = pytest.mark.properties

NAMINGS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"v{i}"),
}

# Small integers make exact ties common: (1, 1) + (1, -1) merges to
# (2, 0) with chi-square 4/2 = 2, equal to both endpoints, so the edge
# must not contract.  -0.0 exercises the commutativity of signed zeros.
TIE_PRONE = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


def merge_by_merge_build(graph, labeling, *, edge_order="input", seed=None):
    """The earlier Algorithm 2: a live SuperGraph contracted edge by edge."""
    labeling.validate_covers(graph)
    sg = SuperGraph()
    for v in graph.vertices():
        sg.add_super_vertex((v,), RegionScore.from_vertex(labeling.z_score_of(v)))
    for u, v in graph.edges():
        su, sv = sg.super_of(u).id, sg.super_of(v).id
        if su != sv:
            sg.add_super_edge(su, sv)
    edges_scanned = 0
    edges_contracted = 0
    for u, v in _ordered_edges(graph, edge_order, labeling, seed):
        edges_scanned += 1
        super_u = sg.super_of(u)
        super_v = sg.super_of(v)
        if super_u.id == super_v.id:
            continue
        if continuous_merge_if_contracting(
            super_u.payload, super_v.payload
        ) is not None:
            sg.merge(super_u.id, super_v.id)
            edges_contracted += 1
    if TELEMETRY.enabled:
        metrics = TELEMETRY.metrics
        metrics.count(metric.CONSTRUCT_EDGES_SCANNED, edges_scanned)
        metrics.count(metric.CONSTRUCT_EDGES_CONTRACTED, edges_contracted)
        metrics.set_gauge(metric.CONSTRUCT_SUPER_VERTICES, sg.num_super_vertices)
        metrics.set_gauge(metric.CONSTRUCT_SUPER_EDGES, sg.num_super_edges)
        for sv in sg.super_vertices():
            metrics.observe(metric.CONSTRUCT_SUPER_VERTEX_SIZE, sv.size)
    return sg


@st.composite
def instances(draw, max_vertices=24):
    n = draw(st.integers(1, max_vertices))
    name = NAMINGS[draw(st.sampled_from(sorted(NAMINGS)))]
    dimensions = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n) if pairs
                 else st.just([]))
    values = draw(st.sampled_from(["ties", "zeros", "floats"]))
    if values == "zeros":
        value = st.just(0.0)
    elif values == "ties":
        value = st.sampled_from(TIE_PRONE)
    else:
        value = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    scores = draw(st.lists(
        st.tuples(*[value] * dimensions), min_size=n, max_size=n
    ))
    # Vertices first, in the drawn order, so some stay isolated and the
    # scan order is not the naming order.
    graph = Graph(name(i) for i in order)
    for i, j in edges:
        graph.add_edge(name(i), name(j), exist_ok=True)
    labeling = ContinuousLabeling({name(i): scores[i] for i in range(n)})
    edge_order = draw(st.sampled_from(["input", "shuffled", "by_chi_square"]))
    seed = draw(st.integers(0, 2**16)) if edge_order == "shuffled" else None
    return graph, labeling, edge_order, seed


def assert_identical(new, old):
    assert list(new.super_vertex_ids()) == list(old.super_vertex_ids())
    for a, b in zip(new.super_vertices(), old.super_vertices()):
        assert a.members == b.members
        assert list(a.members) == list(b.members)
        assert a.payload == b.payload
        assert a.payload.raw_sums == b.payload.raw_sums
        assert [r.hex() for r in a.payload.raw_sums] == [
            r.hex() for r in b.payload.raw_sums
        ]
        assert a.chi_square == b.chi_square
    assert {frozenset(e) for e in new.topology.edges()} == {
        frozenset(e) for e in old.topology.edges()
    }
    assert list(new.topology.vertices()) == list(old.topology.vertices())
    assert new.total_original_vertices() == old.total_original_vertices()
    assert new._next_id == old._next_id


def build_with_metrics(build, graph, labeling, edge_order, seed):
    with telemetry_session() as (_, metrics):
        sg = build(graph, labeling, edge_order=edge_order, seed=seed)
    return sg, metrics.snapshot()


@settings(max_examples=300, deadline=None)
@given(instances())
def test_flat_pass_equals_merge_by_merge(instance):
    graph, labeling, edge_order, seed = instance
    new, new_metrics = build_with_metrics(
        build_continuous_supergraph, graph, labeling, edge_order, seed
    )
    old, old_metrics = build_with_metrics(
        merge_by_merge_build, graph, labeling, edge_order, seed
    )
    assert_identical(new, old)
    new.validate_against(graph)
    assert new_metrics == old_metrics


@settings(max_examples=40, deadline=None)
@given(instances(max_vertices=18), st.sampled_from(["python", "numpy"]))
def test_mine_equal_with_either_build(instance, backend):
    graph, labeling, edge_order, seed = instance
    kwargs = dict(top_t=3, n_theta=6, edge_order=edge_order, seed=seed,
                  backend=backend)

    def run(build):
        original = solver.build_continuous_supergraph
        solver.build_continuous_supergraph = build
        try:
            cache = SuperGraphCache()
            plain = mine(graph, labeling, **kwargs)
            cold = mine(graph, labeling, prefix_cache=cache, **kwargs)
            warm = mine(graph, labeling, prefix_cache=cache, **kwargs)
        finally:
            solver.build_continuous_supergraph = original
        return plain, cold, warm

    new = run(build_continuous_supergraph)
    old = run(merge_by_merge_build)
    for a, b in zip(new, old):
        assert a.subgraphs == b.subgraphs
        assert a.report.rounds == b.report.rounds
        assert a.report.supergraph_vertices == b.report.supergraph_vertices
        assert a.report.supergraph_edges == b.report.supergraph_edges
        assert a.report.contractions == b.report.contractions
        assert a.report.explored_subgraphs == b.report.explored_subgraphs
    assert new[1].subgraphs == new[0].subgraphs == new[2].subgraphs


class TestTiesAndIds:
    def test_exact_tie_does_not_contract(self):
        # (1, 1) and (1, -1) merge to (2, 0): chi-square 2 == max(2, 2).
        graph = Graph.from_edges([(0, 1)])
        labeling = ContinuousLabeling({0: (1.0, 1.0), 1: (1.0, -1.0)})
        sg = build_continuous_supergraph(graph, labeling)
        assert sg.num_super_vertices == 2
        assert sg.num_super_edges == 1

    def test_all_zero_scores_never_contract(self):
        graph = Graph.path(5)
        labeling = ContinuousLabeling.from_scalar({i: 0.0 for i in range(5)})
        sg = build_continuous_supergraph(graph, labeling)
        assert list(sg.super_vertex_ids()) == [0, 1, 2, 3, 4]
        assert sg.num_super_edges == 4

    def test_equal_sizes_keep_the_first_endpoints_id(self):
        # Inserted as 1 then 0, so the edge is scanned as (1, 0) and the
        # root of vertex 1 (id 0) survives the tie on size.
        graph = Graph([1, 0])
        graph.add_edge(1, 0)
        labeling = ContinuousLabeling.from_scalar({0: 2.0, 1: 2.0})
        sg = build_continuous_supergraph(graph, labeling)
        assert list(sg.super_vertex_ids()) == [0]
        assert sg.super_of(0).members == {0, 1}

    def test_larger_root_absorbs_and_ids_leave_gaps(self):
        # By chi-square, (1, 2) is scanned first and 1's root (id 1) wins
        # the tie on size; then {1, 2} absorbs the singleton 0.
        graph = Graph.from_edges([(1, 2), (0, 1)], vertices=[0, 1, 2, 3])
        labeling = ContinuousLabeling.from_scalar(
            {0: 2.5, 1: 3.0, 2: 3.0, 3: -1.0}
        )
        sg = build_continuous_supergraph(
            graph, labeling, edge_order="by_chi_square"
        )
        assert list(sg.super_vertex_ids()) == [1, 3]
        assert sg.super_vertex(1).members == {0, 1, 2}
        assert sg._next_id == 4
