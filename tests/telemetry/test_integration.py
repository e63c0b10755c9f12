"""Integration tests: the instrumented pipeline emits the expected telemetry."""

from __future__ import annotations

import pytest

from repro.core.solver import mine
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.telemetry import TELEMETRY, telemetry_session
from repro.telemetry import names as metric
from repro.telemetry.summarize import summarize_traces

pytestmark = pytest.mark.telemetry


def children(tracer, parent=None):
    """Finished spans under ``parent`` (the roots when None)."""
    return [s for s in tracer.spans if s.parent_id == (parent and parent.span_id)]


class TestGlobalGate:
    def test_disabled_by_default(self):
        assert TELEMETRY.enabled is False
        assert TELEMETRY.tracer is None
        assert TELEMETRY.metrics is None

    def test_session_enables_and_restores(self):
        with telemetry_session() as (tracer, metrics):
            assert TELEMETRY.enabled is True
            assert TELEMETRY.tracer is tracer
            assert TELEMETRY.metrics is metrics
        assert TELEMETRY.enabled is False

    def test_sessions_nest(self):
        with telemetry_session() as (outer_tracer, _):
            with telemetry_session() as (inner_tracer, _):
                assert TELEMETRY.tracer is inner_tracer
            assert TELEMETRY.tracer is outer_tracer

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert TELEMETRY.enabled is False


class TestMinePipelineTelemetry:
    def test_discrete_span_tree_and_counters(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, metrics):
            result = mine(graph, labeling)
        assert result.subgraphs

        roots = children(tracer)
        assert [s.name for s in roots] == ["solver.mine"]
        rounds = children(tracer, roots[0])
        assert [s.name for s in rounds] == ["solver.round"]
        stages = [s.name for s in children(tracer, rounds[0])]
        assert stages == ["solver.construct", "solver.reduce", "solver.search"]

        snap = metrics.snapshot()
        assert snap[metric.CONSTRUCT_EDGES_CONTRACTED] > 0
        assert snap[metric.SEARCH_STATES_VISITED] > 0
        assert snap[metric.SEARCH_CHI_SQUARE_EVALUATIONS] > 0
        assert snap[metric.SOLVER_ROUNDS] == 1
        assert snap[metric.CONSTRUCT_SUPER_VERTICES] == 2
        assert snap[metric.REDUCE_VERTICES_BEFORE] == 2

    def test_report_timings_populated_from_spans(self, small_labeled):
        """MiningReport stage timings stay backward compatible."""
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, _):
            result = mine(graph, labeling)
        report = result.report
        assert report.construction_seconds > 0
        assert report.search_seconds > 0
        assert report.total_seconds > 0
        construct_total = sum(
            s.wall_seconds for s in tracer.spans if s.name == "solver.construct"
        )
        assert report.construction_seconds == pytest.approx(construct_total)
        search_total = sum(
            s.wall_seconds for s in tracer.spans if s.name == "solver.search"
        )
        assert report.search_seconds == pytest.approx(search_total)

    def test_timings_populated_without_telemetry(self, small_labeled):
        graph, labeling = small_labeled
        result = mine(graph, labeling)
        assert result.report.construction_seconds > 0
        assert result.report.search_seconds > 0

    def test_continuous_pipeline_merge_metrics(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        labeling = ContinuousLabeling(
            {0: (0.1,), 1: (3.0,), 2: (2.5,), 3: (-0.2,), 4: (0.0,)}
        )
        with telemetry_session() as (_, metrics):
            result = mine(graph, labeling)
        assert result.subgraphs
        snap = metrics.snapshot()
        # Vertices 1 and 2 merge during Algorithm 2.
        assert snap[metric.CONSTRUCT_EDGES_CONTRACTED] >= 1
        assert snap[metric.SUPERGRAPH_MERGES] >= 1
        assert snap[metric.CONSTRUCT_EDGES_SCANNED] == 4

    def test_top_t_rounds_counted(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, metrics):
            mine(graph, labeling, top_t=2)
        round_spans = [s for s in tracer.spans if s.name == "solver.round"]
        assert len(round_spans) >= 2
        assert metrics.snapshot()[metric.SOLVER_ROUNDS] >= 2

    def test_polish_span_and_metrics(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, _):
            mine(graph, labeling, polish=True)
        assert any(s.name == "solver.polish" for s in tracer.spans)


class TestEnumeratorTelemetry:
    def test_sets_emitted_counter(self, triangle):
        from repro.enumerate.connected import count_connected_subgraphs

        with telemetry_session() as (_, metrics):
            count = count_connected_subgraphs(triangle)
        assert count == 7
        assert metrics.snapshot()[metric.ENUMERATE_SETS_EMITTED] == 7

    def test_partial_consumption_still_flushes(self, triangle):
        from repro.enumerate.connected import enumerate_connected_subsets

        with telemetry_session() as (_, metrics):
            gen = enumerate_connected_subsets(triangle)
            next(gen)
            gen.close()
        assert metrics.snapshot()[metric.ENUMERATE_SETS_EMITTED] >= 1


class TestTraceExportAndSummary:
    def test_mine_trace_summarizes(self, small_labeled, tmp_path):
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, metrics):
            mine(graph, labeling)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path, metrics=metrics)

        summary = summarize_traces([path])
        stage_names = {row[0] for row in summary["stages"]}
        assert {"solver.mine", "solver.construct",
                "solver.reduce", "solver.search"} <= stage_names
        metric_names = {row[0] for row in summary["metrics"]}
        assert len(metric_names) >= 6
        assert metric.CONSTRUCT_EDGES_CONTRACTED in metric_names
        assert metric.SEARCH_STATES_VISITED in metric_names

    def test_render_summary_nonempty(self, small_labeled, tmp_path):
        from repro.telemetry.summarize import render_summary

        graph, labeling = small_labeled
        with telemetry_session() as (tracer, metrics):
            mine(graph, labeling)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path, metrics=metrics)
        text = render_summary(path)
        assert "solver.construct" in text
        assert "search.states_visited" in text


class TestSearchSpanAccounting:
    def _search_spans(self, tracer):
        (root,) = children(tracer)
        return [
            stage
            for round_span in children(tracer, root)
            for stage in children(tracer, round_span)
            if stage.name == "solver.search"
        ]

    def test_explored_attr_is_per_round_delta(self, small_labeled):
        # Regression: the span used to record the running total, so round 2
        # re-reported round 1's work.  The per-round attrs must sum to the
        # report's cumulative count.
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, _):
            result = mine(graph, labeling, top_t=2)
        spans = self._search_spans(tracer)
        assert len(spans) >= 2
        per_round = [s.attributes["explored"] for s in spans]
        assert all(e >= 0 for e in per_round)
        assert sum(per_round) == result.report.explored_subgraphs
        # With the old cumulative bug the later spans would each carry the
        # full total, making the sum strictly larger.
        assert per_round[0] > 0

    def test_search_span_records_prune_mode(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (tracer, _):
            mine(graph, labeling, prune="bounds")
        spans = self._search_spans(tracer)
        assert spans and all(
            s.attributes["prune"] == "bounds" for s in spans
        )

    @pytest.mark.bounds
    def test_bound_metrics_emitted(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (_, metrics):
            mine(graph, labeling, prune="bounds")
        snap = metrics.snapshot()
        assert snap[metric.SEARCH_BOUND_EVALUATIONS] > 0
        assert metric.SEARCH_BOUND_CUTS in snap
        assert metric.SEARCH_PRUNED_SIZE_CAP in snap
        assert metric.SEARCH_FRONTIER_EXHAUSTED in snap

    def test_split_prune_metrics_in_none_mode(self, small_labeled):
        graph, labeling = small_labeled
        with telemetry_session() as (_, metrics):
            mine(graph, labeling)
        snap = metrics.snapshot()
        assert metric.SEARCH_BOUND_EVALUATIONS not in snap
        assert snap[metric.SEARCH_PRUNED_SIZE_CAP] >= 0
        assert snap[metric.SEARCH_FRONTIER_EXHAUSTED] > 0
        assert "search.states_pruned" not in snap
