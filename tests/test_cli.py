"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.graph import Graph
from repro.graph.io import write_edge_list


@pytest.fixture
def instance_files(tmp_path):
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    graph_path = tmp_path / "graph.txt"
    write_edge_list(graph, graph_path)
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(
        json.dumps(
            {
                "type": "discrete",
                "probabilities": [0.8, 0.2],
                "symbols": ["common", "rare"],
                "assignment": {"0": 1, "1": 1, "2": 1, "3": 0, "4": 0},
            }
        )
    )
    return str(graph_path), str(labels_path)


class TestInfo:
    def test_info_prints_stats(self, instance_files, capsys):
        graph_path, _ = instance_files
        assert main(["info", graph_path]) == 0
        out = capsys.readouterr().out
        assert "vertices           : 5" in out
        assert "edges              : 5" in out


class TestMine:
    def test_mine_text_output(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path]) == 0
        out = capsys.readouterr().out
        assert "#1: X^2=" in out
        assert "super-graph" in out

    def test_mine_json_output(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--json", "--top", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subgraphs"]
        best = payload["subgraphs"][0]
        assert set(best["vertices"]) == {"0", "1", "2"}
        assert best["chi_square"] > 0
        assert payload["report"]["num_vertices"] == 5

    def test_mine_naive_method(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(
            ["mine", graph_path, labels_path, "--method", "naive", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["subgraphs"][0]["vertices"]) == {"0", "1", "2"}

    def test_mine_prune_bounds_flag(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(
            ["mine", graph_path, labels_path, "--prune", "bounds", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["prune"] == "bounds"
        assert set(payload["subgraphs"][0]["vertices"]) == {"0", "1", "2"}

    def test_mine_prune_default_is_none(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["prune"] == "none"

    def test_mine_prune_rejects_unknown_mode(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        with pytest.raises(SystemExit):
            main(["mine", graph_path, labels_path, "--prune", "psychic"])

    def test_mine_passes_search_flags_through(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main([
            "mine", graph_path, labels_path, "--json",
            "--min-size", "2", "--search-limit", "100000",
            "--edge-order", "input", "--seed", "7",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["size"] >= 2 for s in payload["subgraphs"])

    def test_mine_min_size_filters_regions(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main([
            "mine", graph_path, labels_path, "--json", "--min-size", "3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["size"] >= 3 for s in payload["subgraphs"])

    def test_mine_search_limit_exceeded_fails_cleanly(
        self, instance_files, capsys
    ):
        graph_path, labels_path = instance_files
        assert main([
            "mine", graph_path, labels_path, "--method", "naive",
            "--search-limit", "2",
        ]) == 2
        assert "limit" in capsys.readouterr().err

    def test_mine_json_empty_result_exits_one(self, tmp_path, capsys):
        graph_path = tmp_path / "empty.txt"
        graph_path.write_text("")
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({
            "type": "discrete", "probabilities": [0.5, 0.5],
            "assignment": {},
        }))
        assert main([
            "mine", str(graph_path), str(labels_path), "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        # The payload still carries the (empty) subgraphs key and report.
        assert payload["subgraphs"] == []
        assert payload["report"]["num_vertices"] == 0

    def test_continuous_labels(self, tmp_path, capsys):
        graph = Graph.path(4)
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        labels_path = tmp_path / "cont.json"
        labels_path.write_text(
            json.dumps(
                {
                    "type": "continuous",
                    "scores": {"0": [0.1], "1": [3.0], "2": [2.5], "3": [-0.2]},
                }
            )
        )
        assert main(["mine", str(graph_path), str(labels_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["subgraphs"][0]["vertices"]) == {"1", "2"}

    @pytest.mark.parametrize("doc", [
        {"type": "bogus"},
        {"type": "discrete", "probabilities": [0.5, 0.5]},
        {"type": "discrete", "probabilities": [0.5, 0.5],
         "assignment": {"0": "x"}},
    ], ids=["unknown-type", "missing-assignment", "non-int-assignment"])
    def test_bad_labeling_type_fails_cleanly(
        self, instance_files, tmp_path, capsys, doc
    ):
        graph_path, _ = instance_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["mine", graph_path, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestMineTelemetry:
    def test_json_includes_stage_timings(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        for key in ("construction_seconds", "reduction_seconds",
                    "search_seconds", "total_seconds", "contractions",
                    "explored_subgraphs", "rounds", "supergraph_edges"):
            assert key in report, key
        assert report["total_seconds"] >= report["search_seconds"]
        assert report["explored_subgraphs"] > 0

    def test_trace_and_metrics_json(self, instance_files, tmp_path, capsys):
        graph_path, labels_path = instance_files
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "mine", graph_path, labels_path,
            "--json", "--trace", str(trace_path), "--metrics",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_file"] == str(trace_path)
        assert payload["metrics"]["search.states_visited"] > 0
        assert payload["metrics"]["construct.edges_contracted"] > 0

        from repro.telemetry import read_trace_records

        records = read_trace_records(trace_path)
        names = {kind: {r["name"] for r in records if r["type"] == kind}
                 for kind in ("span", "metric")}
        assert {"solver.mine", "solver.construct",
                "solver.reduce", "solver.search"} <= names["span"]
        assert len(names["metric"]) >= 6

    def test_metrics_table_in_text_mode(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline metrics" in out
        assert "| kind" in out
        assert "search.states_visited" in out

    def test_telemetry_disabled_after_run(self, instance_files, capsys):
        from repro.telemetry import TELEMETRY

        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--metrics"]) == 0
        capsys.readouterr()
        assert TELEMETRY.enabled is False


class TestTraceSummarize:
    def test_summarize_renders_stage_and_metric_tables(
        self, instance_files, tmp_path, capsys
    ):
        graph_path, labels_path = instance_files
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "mine", graph_path, labels_path, "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage wall time" in out
        assert "solver.construct" in out
        assert "Metrics" in out
        # The acceptance bar: at least 6 distinct metric names rendered.
        metric_names = {
            line.split("|")[0].strip()
            for line in out.splitlines()
            if "|" in line and "." in line.split("|")[0]
        }
        assert len(metric_names) >= 6, sorted(metric_names)

    def test_summarize_shows_bound_metrics(
        self, instance_files, tmp_path, capsys
    ):
        graph_path, labels_path = instance_files
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "mine", graph_path, labels_path,
            "--prune", "bounds", "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "search.bound_evaluations" in out
        assert "search.bound_cuts" in out
        assert "search.pruned_size_cap" in out
        assert "search.frontier_exhausted" in out

    def test_summarize_missing_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "summarize", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summarize_empty_trace_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"type": "metric", "kind": "counter"},
        {"type": "metric", "kind": "counter", "name": "c", "value": "x"},
    ])
    def test_summarize_malformed_metric_fails_cleanly(
        self, tmp_path, capsys, record
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "bad.jsonl" in capsys.readouterr().err


class TestServeParser:
    def test_serve_flags_parse_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 2
        assert args.cache_size == 32
        assert args.queue_size == 64
        assert args.default_deadline is None
        assert args.max_request_mb == 8.0

    def test_serve_flags_override(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0", "--workers", "4",
            "--cache-size", "16", "--queue-size", "8",
            "--default-deadline", "2.5", "--max-request-mb", "1",
        ])
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 0, 4)
        assert args.cache_size == 16
        assert args.queue_size == 8
        assert args.default_deadline == 2.5


class TestGenerate:
    def test_generate_er_graph(self, tmp_path, capsys):
        out = tmp_path / "er.txt"
        assert main(
            ["generate", "er", str(out), "-n", "30", "-m", "60", "--seed", "1"]
        ) == 0
        from repro.graph.io import read_edge_list

        graph = read_edge_list(out)
        assert graph.num_vertices == 30
        assert graph.num_edges == 60

    def test_generate_with_labels_roundtrip(self, tmp_path, capsys):
        graph_out = tmp_path / "ba.txt"
        labels_out = tmp_path / "ba-labels.json"
        assert main(
            [
                "generate", "ba", str(graph_out),
                "-n", "40", "-d", "3", "--seed", "2",
                "--labels-out", str(labels_out),
                "--label-kind", "discrete", "--num-labels", "2",
            ]
        ) == 0
        capsys.readouterr()  # drop the generate-side output
        # The generated pair must round-trip through the miner.
        assert main(["mine", str(graph_out), str(labels_out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subgraphs"]

    def test_generate_holme_kim(self, tmp_path):
        out = tmp_path / "hk.txt"
        assert main(
            [
                "generate", "holme-kim", str(out),
                "-n", "50", "-d", "2", "--triads", "0.8", "--seed", "3",
            ]
        ) == 0
        from repro.graph.io import read_edge_list

        graph = read_edge_list(out)
        assert graph.num_vertices == 50

    def test_generate_continuous_labels(self, tmp_path, capsys):
        graph_out = tmp_path / "g.txt"
        labels_out = tmp_path / "z.json"
        assert main(
            [
                "generate", "er", str(graph_out), "-n", "20", "-m", "40",
                "--labels-out", str(labels_out),
                "--label-kind", "continuous", "--dimensions", "2",
            ]
        ) == 0
        doc = json.loads(labels_out.read_text())
        assert doc["type"] == "continuous"
        assert len(doc["scores"]) == 20
        assert len(doc["scores"]["0"]) == 2


class TestDataset:
    def test_northeast_rule_instance_roundtrip(self, tmp_path, capsys):
        graph_out = tmp_path / "ne.json"
        labels_out = tmp_path / "ne-labels.json"
        assert main(
            [
                "dataset", "northeast",
                "--graph-out", str(graph_out),
                "--labels-out", str(labels_out),
                "--rule", "I,H",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["mine", str(graph_out), str(labels_out), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        best = payload["subgraphs"][0]
        # The exported I => H instance reproduces the planted ratio-0 region.
        assert best["size"] >= 90
        assert best["chi_square"] > 300

    def test_wnv_instance_roundtrip(self, tmp_path, capsys):
        graph_out = tmp_path / "wnv.json"
        labels_out = tmp_path / "wnv-labels.json"
        assert main(
            [
                "dataset", "wnv",
                "--graph-out", str(graph_out),
                "--labels-out", str(labels_out),
                "--method", "avg_diff",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "mine", str(graph_out), str(labels_out),
                "--vertex-type", "str", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subgraphs"][0]["vertices"] == ["Dist. of Columbia"]

    def test_wnv_requires_json_graph(self, tmp_path, capsys):
        assert main(
            [
                "dataset", "wnv",
                "--graph-out", str(tmp_path / "wnv.txt"),
                "--labels-out", str(tmp_path / "l.json"),
            ]
        ) == 2
        assert "json" in capsys.readouterr().err


class TestMineCorrection:
    """`--correct fwer`: corrected JSON diffs cleanly against raw runs."""

    def test_json_diffability_raw_vs_corrected(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main(["mine", graph_path, labels_path, "--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main([
            "mine", graph_path, labels_path, "--json",
            "--correct", "fwer", "--alpha", "0.05",
        ]) == 0
        corrected = json.loads(capsys.readouterr().out)
        # Both runs expose p_value_raw mirroring p_value, so a line diff
        # between raw and corrected output only shows the corrected
        # fields and the dropped regions.
        for payload in (base, corrected):
            for sub in payload["subgraphs"]:
                assert sub["p_value_raw"] == sub["p_value"]
        assert "correction" not in base
        assert all(s["corrected_p_value"] is None for s in base["subgraphs"])
        report = corrected["correction"]
        assert report["method"] == "fwer"
        assert report["alpha"] == 0.05
        assert report["delta_star"] > 0.0
        # Survivors are exactly the raw regions passing delta*.
        surviving = [
            s for s in base["subgraphs"]
            if s["p_value"] <= report["delta_star"]
        ]
        assert [s["vertices"] for s in corrected["subgraphs"]] == [
            s["vertices"] for s in surviving
        ]
        for sub in corrected["subgraphs"]:
            assert sub["corrected_p_value"] == pytest.approx(
                min(1.0, report["num_testable"] * sub["p_value"])
            )

    def test_text_output_reports_threshold(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main([
            "mine", graph_path, labels_path, "--correct", "fwer",
        ]) == 0
        out = capsys.readouterr().out
        assert "FWER correction" in out
        assert "delta*" in out
        assert "p_corr=" in out

    def test_rejects_unknown_correction(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        with pytest.raises(SystemExit):
            main(["mine", graph_path, labels_path, "--correct", "fdr"])

    def test_rejects_bad_alpha(self, instance_files, capsys):
        graph_path, labels_path = instance_files
        assert main([
            "mine", graph_path, labels_path,
            "--correct", "fwer", "--alpha", "1.5",
        ]) == 2
        assert "alpha" in capsys.readouterr().err
