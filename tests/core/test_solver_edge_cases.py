"""Edge-case and failure-injection tests for the solver."""

from __future__ import annotations

import pytest

from repro.exceptions import EnumerationLimitError, LabelingError
from repro.graph.graph import Graph
from repro.graph.generators import gnp_random_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import mine


class TestFailureInjection:
    def test_search_limit_bubbles_up(self):
        g = Graph.complete(14)
        lab = DiscreteLabeling.random(g, (0.5, 0.5), seed=1)
        with pytest.raises(EnumerationLimitError):
            mine(g, lab, method="naive", search_limit=100)

    def test_partial_labeling_rejected_before_any_work(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1})
        with pytest.raises(LabelingError):
            mine(g, lab)

    def test_labeling_superset_is_fine(self):
        # The labeling may cover more vertices than the graph (top-t
        # rounds rely on this).
        g = Graph.from_edges([(0, 1)])
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1, 99: 0})
        assert mine(g, lab).subgraphs


class TestDisconnectedGraphs:
    def test_mscs_within_one_component(self):
        g = Graph.from_edges([(0, 1), (1, 2), (10, 11)])
        lab = DiscreteLabeling(
            (0.9, 0.1), {0: 1, 1: 1, 2: 1, 10: 1, 11: 0}
        )
        best = mine(g, lab).best
        assert best.vertices == frozenset({0, 1, 2})

    def test_top_t_spans_components(self):
        g = Graph.from_edges([(0, 1), (10, 11)])
        lab = DiscreteLabeling((0.9, 0.1), {0: 1, 1: 1, 10: 1, 11: 1})
        result = mine(g, lab, top_t=2)
        assert len(result) == 2
        found = {frozenset(sub.vertices) for sub in result}
        assert found == {frozenset({0, 1}), frozenset({10, 11})}

    def test_isolated_vertices_minable(self):
        g = Graph([0, 1, 2])
        lab = ContinuousLabeling.from_scalar({0: 1.0, 1: 5.0, 2: -2.0})
        best = mine(g, lab).best
        assert best.vertices == frozenset({1})


class TestDeterminism:
    def test_shuffled_edge_order_deterministic_with_seed(self):
        g = gnp_random_graph(30, 0.3, seed=5)
        lab = ContinuousLabeling.random(g, 1, seed=6)
        a = mine(g, lab, edge_order="shuffled", seed=42).best
        b = mine(g, lab, edge_order="shuffled", seed=42).best
        assert a.vertices == b.vertices
        assert a.chi_square == b.chi_square

    def test_repeat_runs_identical(self):
        g = gnp_random_graph(25, 0.35, seed=7)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=8)
        runs = [mine(g, lab, top_t=3) for _ in range(3)]
        signatures = [
            tuple(sorted(map(str, sub.vertices)) for sub in run)
            for run in runs
        ]
        assert signatures[0] == signatures[1] == signatures[2]


class TestSingletonAndTiny:
    def test_single_vertex_graph(self):
        g = Graph([0])
        lab = DiscreteLabeling((0.9, 0.1), {0: 1})
        best = mine(g, lab).best
        assert best.vertices == frozenset({0})
        assert best.chi_square == pytest.approx(
            lab.chi_square([0])
        )

    def test_two_vertices_no_edge(self):
        g = Graph([0, 1])
        lab = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1})
        result = mine(g, lab, top_t=5)
        assert len(result) == 2
        assert all(sub.size == 1 for sub in result)

    def test_n_theta_one(self):
        # Everything collapses to a single super-vertex; the result is the
        # whole (connected) graph.
        g = Graph.path(6)
        lab = DiscreteLabeling.random(g, (0.5, 0.5), seed=9)
        best = mine(g, lab, n_theta=1).best
        assert best.vertices == frozenset(range(6))


class TestComponentsOrdering:
    def test_bfs_order_renders_chains_endpoint_first(self):
        # A chain of three monochromatic segments: components must come out
        # in path order, never bridge-first.
        g = Graph.path(9)
        assignment = {v: (0 if v < 3 else 1 if v < 6 else 0) for v in range(9)}
        lab = DiscreteLabeling((0.7, 0.3), assignment)
        best = mine(g, lab).best
        if len(best.components) == 3:
            sizes = best.component_sizes
            assert sizes[1] == 3  # the middle segment sits in the middle


class TestMinSizeFloorEscalation:
    """The retry loop in ``_search_supergraph`` that raises the super-vertex
    floor until the winner carries enough original vertices."""

    def test_naive_path_escalates_to_floor(self, small_labeled):
        graph, labeling = small_labeled
        # Unconstrained, the rare-label triangle {0,1,2} wins (3 vertices);
        # min_size=5 forces the singleton super-graph search to retry with
        # ever-higher super-vertex floors until the region is big enough.
        result = mine(graph, labeling, method="naive", min_size=5)
        assert result.best.size >= 5
        unconstrained = mine(graph, labeling, method="naive")
        assert unconstrained.best.size == 3
        assert result.best.chi_square <= unconstrained.best.chi_square

    def test_supergraph_path_escalates_with_merged_vertices(self, small_labeled):
        graph, labeling = small_labeled
        # Construction merges the triangle into one size-3 super-vertex, so
        # min_size=4 rejects the one-super-vertex winner and the retry must
        # pull in neighbours.
        result = mine(graph, labeling, method="supergraph", min_size=4)
        assert result.best.size >= 4
        assert frozenset({0, 1, 2}) <= result.best.vertices

    @pytest.mark.parametrize(
        ("min_size", "floors", "region"),
        [(3, [1, 2, 3], frozenset({0, 1, 2})), (6, [1, 2, 3, 4, 5], None)],
    )
    def test_search_calls_and_explored_pinned(
        self, monkeypatch, min_size, floors, region
    ):
        # A path of 5 has 15 connected sets.  The rare-label end vertex
        # wins alone, then with one neighbour, so min_size=3 takes three
        # searches; min_size=6 runs out of floors after five.
        from repro.core import solver

        calls = []
        search = solver.exhaustive_best_mask

        def recording(*args, **kwargs):
            outcome = search(*args, **kwargs)
            calls.append((kwargs.get("min_size", 1), outcome.explored))
            return outcome

        monkeypatch.setattr(solver, "exhaustive_best_mask", recording)
        graph = Graph.path(5)
        labeling = DiscreteLabeling((0.9, 0.1), {0: 1, 1: 0, 2: 0, 3: 0, 4: 0})
        result = mine(graph, labeling, method="naive", min_size=min_size)
        assert calls == [(floor, 15) for floor in floors]
        assert result.report.explored_subgraphs == 15 * len(floors)
        if region is None:
            assert len(result) == 0
        else:
            assert result.best.vertices == region

    def test_unreachable_floor_yields_no_subgraphs(self, small_labeled):
        graph, labeling = small_labeled
        result = mine(graph, labeling, min_size=len(list(graph.vertices())) + 1)
        assert len(result) == 0

    @pytest.mark.parametrize("method", ["naive", "supergraph"])
    def test_floor_respected_on_random_graphs(self, method):
        g = gnp_random_graph(12, 0.35, seed=13)
        lab = DiscreteLabeling.random(g, uniform_probabilities(3), seed=14)
        for min_size in (1, 3, 6):
            result = mine(g, lab, method=method, min_size=min_size)
            if result.subgraphs:
                assert result.best.size >= min_size


class TestReportAccounting:
    def test_naive_rounds_accumulate_construction_seconds(self, small_labeled):
        # Regression: the naive branch used to time the singleton
        # super-graph construction span but never add it to the report.
        graph, labeling = small_labeled
        result = mine(graph, labeling, method="naive")
        assert result.report.construction_seconds > 0.0

    def test_naive_top_t_keeps_accumulating(self, small_labeled):
        graph, labeling = small_labeled
        one = mine(graph, labeling, method="naive", top_t=1)
        two = mine(graph, labeling, method="naive", top_t=2)
        assert two.report.construction_seconds > 0.0
        assert two.report.rounds > one.report.rounds


class TestPolishComponents:
    def test_polished_discrete_region_reports_components(self, small_labeled):
        # Regression: _polish used to return components=() so a polished
        # region lost its Table-2 breakdown.
        graph, labeling = small_labeled
        result = mine(graph, labeling, polish=True)
        best = result.best
        assert best.components
        assert sum(c.size for c in best.components) == best.size
        for component in best.components:
            assert component.label in labeling.symbols

    def test_polished_continuous_region_reports_components(self):
        g = gnp_random_graph(15, 0.3, seed=21)
        lab = ContinuousLabeling.random(g, 1, seed=22)
        result = mine(g, lab, polish=True)
        best = result.best
        assert len(best.components) == 1
        assert best.components[0].size == best.size
        assert best.components[0].label is None
        assert best.components[0].chi_square == pytest.approx(best.chi_square)


@pytest.mark.bounds
class TestMinePruneModes:
    @pytest.mark.parametrize("method", ["naive", "supergraph"])
    def test_bounds_equivalent_at_mine_level(self, method):
        g = gnp_random_graph(14, 0.3, seed=31)
        lab = DiscreteLabeling.random(g, (0.5, 0.25, 0.25), seed=32)
        plain = mine(g, lab, method=method, prune="none")
        bounded = mine(g, lab, method=method, prune="bounds")
        assert bounded.best.vertices == plain.best.vertices
        assert bounded.best.chi_square == pytest.approx(plain.best.chi_square)
        assert (
            bounded.report.explored_subgraphs
            <= plain.report.explored_subgraphs
        )

    def test_invalid_prune_rejected(self, small_labeled):
        graph, labeling = small_labeled
        from repro.exceptions import GraphError

        with pytest.raises(GraphError, match="prune"):
            mine(graph, labeling, prune="sometimes")
