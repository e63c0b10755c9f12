"""Command-line interface: mine significant subgraphs from files.

Usage (see ``python -m repro --help``):

* ``python -m repro info GRAPH`` — basic statistics and density regime;
* ``python -m repro mine GRAPH LABELS`` — run the pipeline and print the
  top-t regions (or JSON with ``--json``);
* ``python -m repro generate ...`` — write synthetic graphs/labelings for
  experimentation;
* ``python -m repro serve`` — run the HTTP mining service (worker pool +
  super-graph cache; see docs/service.md);
* ``python -m repro trace summarize TRACE`` — per-stage breakdown of a
  telemetry trace written by ``mine --trace`` (see docs/observability.md).

Graphs are whitespace edge lists (SNAP style, ``--vertex-type`` selects
int or str vertices) or ``repro`` JSON graph documents (``.json``).
Labelings are JSON documents::

    {"type": "discrete", "probabilities": [0.8, 0.2],
     "symbols": ["common", "rare"], "assignment": {"0": 1, "1": 0}}

    {"type": "continuous", "scores": {"0": [1.5, -0.2], "1": [0.0, 0.4]}}

Assignment/score keys are converted with ``--vertex-type``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.exceptions import ReproError
from repro.graph.generators import (
    barabasi_albert_graph,
    gnm_random_graph,
    holme_kim_graph,
)
from repro.graph.graph import Graph
from repro.graph.io import (
    read_edge_list,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)
from repro.graph.properties import average_degree, density_threshold_edges
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import PARAM_CHOICES, PARAM_DEFAULTS, mine
from repro.service.cache import DEFAULT_MAX_BYTES
from repro.service.protocol import labeling_from_doc, result_to_payload
from repro.telemetry import telemetry_session

__all__ = ["build_parser", "main"]

_VERTEX_TYPES = {"int": int, "str": str}


def _load_graph(path: str, vertex_type: type) -> Graph:
    if path.endswith(".json"):
        graph, _ = read_json_graph(path)
        return graph
    return read_edge_list(path, vertex_type=vertex_type)


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, _VERTEX_TYPES[args.vertex_type])
    n, m = graph.num_vertices, graph.num_edges
    print(f"vertices           : {n}")
    print(f"edges              : {m}")
    print(f"average degree     : {average_degree(graph):.2f}")
    if n > 1:
        continuous_threshold = density_threshold_edges(n)
        print(f"dense (continuous) : {m > continuous_threshold} "
              f"(threshold 4 n ln n = {continuous_threshold:.0f})")
        for l in (2, 5):
            threshold = density_threshold_edges(n, num_labels=l)
            print(f"dense (l={l})        : {m > threshold} "
                  f"(threshold {l} n ln n = {threshold:.0f})")
    return 0


def _progress_ticker(stream):
    """A :class:`SearchProgress` callback rendering a one-line ticker.

    Rewrites the same stderr line (``\\r``, no newline) on every snapshot
    so a long search shows live counters without scrolling the output.
    """

    def tick(snapshot) -> None:
        best = (
            "-" if snapshot.best_chi_square is None
            else f"{snapshot.best_chi_square:.3f}"
        )
        stream.write(
            f"\r  {snapshot.states_visited:>10} states"
            f" | {snapshot.bound_cuts:>8} cuts"
            f" | best X^2 {best}"
            f" | {snapshot.elapsed_seconds:6.1f}s "
        )
        stream.flush()

    return tick


def _cmd_mine(args: argparse.Namespace) -> int:
    vertex_type = _VERTEX_TYPES[args.vertex_type]
    graph = _load_graph(args.graph, vertex_type)
    labeling = labeling_from_doc(
        json.loads(Path(args.labels).read_text()), vertex_type
    )
    progress = _progress_ticker(sys.stderr) if args.progress else None

    def run():
        try:
            return mine(
                graph,
                labeling,
                top_t=args.top,
                n_theta=args.n_theta,
                method=args.method,
                edge_order=args.edge_order,
                seed=args.seed,
                search_limit=args.search_limit,
                min_size=args.min_size,
                polish=args.polish,
                prune=args.prune,
                backend=args.backend,
                correction=args.correct,
                alpha=args.alpha,
                progress=progress,
            )
        finally:
            if progress is not None:
                sys.stderr.write("\n")
                sys.stderr.flush()

    metrics = None
    if args.trace or args.metrics:
        with telemetry_session() as (tracer, metrics):
            result = run()
        if args.trace:
            tracer.write_jsonl(args.trace, metrics=metrics)
    else:
        result = run()

    report = result.report
    if args.json:
        # The service's payload, plus the CLI-only keys: the search modes
        # lead the report, metrics and the trace path trail the document.
        payload = result_to_payload(result)
        payload["report"] = {
            "prune": args.prune, "backend": args.backend, **payload["report"]
        }
        if metrics is not None:
            payload["metrics"] = metrics.snapshot()
        if args.trace:
            payload["trace_file"] = args.trace
        print(json.dumps(payload, indent=2))
        return 0 if result.subgraphs else 1
    if not result.subgraphs:
        if result.correction is not None and result.correction.regions_filtered:
            corr = result.correction
            print(f"no regions survive FWER correction at alpha={corr.alpha:g} "
                  f"({corr.regions_filtered} mined regions filtered, "
                  f"delta*={corr.delta_star:.3e})")
        else:
            print("no regions found (empty graph?)")
        return 1
    for rank, sub in enumerate(result.subgraphs, start=1):
        vertices = ", ".join(sorted(map(str, sub.vertices))[:12])
        suffix = "..." if sub.size > 12 else ""
        corrected = (
            "" if sub.corrected_p_value is None
            else f"  p_corr={sub.corrected_p_value:.3e}"
        )
        print(f"#{rank}: X^2={sub.chi_square:.4f}  p={sub.p_value:.3e}"
              f"{corrected}  size={sub.size}  [{vertices}{suffix}]")
    if result.correction is not None:
        corr = result.correction
        print(f"-- FWER correction: alpha={corr.alpha:g}  "
              f"delta*={corr.delta_star:.3e}  m={corr.num_testable}  "
              f"min testable size {corr.testable_min_size}  "
              f"filtered {corr.regions_filtered}")
    print(f"-- super-graph {report.supergraph_vertices} -> reduced "
          f"{report.reduced_vertices}; {report.total_seconds:.3f}s total "
          f"(construct {report.construction_seconds:.3f}s, reduce "
          f"{report.reduction_seconds:.3f}s, search {report.search_seconds:.3f}s)")
    if args.metrics and len(metrics):
        from repro.experiments.tables import format_table
        from repro.telemetry.summarize import metric_rows

        headers, rows = metric_rows(metrics.to_records())
        print()
        print(format_table(headers, rows, title="Pipeline metrics"))
    if args.trace:
        print(f"-- trace written to {args.trace}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.service.server import MiningService

    if args.access_log:
        access = logging.getLogger("repro.service.access")
        access.setLevel(logging.INFO)
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        access.addHandler(handler)
    service = MiningService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        queue_size=args.queue_size,
        default_deadline=args.default_deadline,
        max_request_bytes=int(args.max_request_mb * 1024 * 1024),
        trace_dir=args.trace_dir,
        cache_dir=args.cache_dir,
        cache_bytes=args.cache_bytes,
    )
    host, port = service.address
    tier = f", disk cache {args.cache_dir}" if args.cache_dir else ""
    print(f"repro service on http://{host}:{port} "
          f"({args.workers} workers, cache {args.cache_size}, "
          f"queue {args.queue_size}{tier})")
    # A server-lifetime telemetry session so /metricsz reports request
    # counters/latencies alongside the pool statistics.
    with telemetry_session():
        service.serve_forever()
    return 0


def _cmd_graphs_put(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    vertex_type = _VERTEX_TYPES[args.vertex_type]
    graph = _load_graph(args.graph, vertex_type)
    labels_doc = json.loads(Path(args.labels).read_text())
    edges = [[u, v] for u, v in graph.edges()]
    covered = {endpoint for edge in edges for endpoint in edge}
    isolated = sorted(v for v in graph.vertices() if v not in covered)
    document = {
        "graph": {"edges": edges, "vertices": isolated},
        "labels": labels_doc,
        "vertex_type": args.vertex_type,
    }
    url = f"{args.url.rstrip('/')}/graphs"
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        method="PUT",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as resp:
            summary = json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"error: service rejected the upload ({exc.code}): {detail}",
              file=sys.stderr)
        return 2
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {url}: {exc.reason}", file=sys.stderr)
        return 2
    digest = summary["graph_digest"]
    state = "registered" if summary.get("created") else "already registered"
    print(f"{state}: {digest}")
    print(f"  vertices {summary['vertices']}, edges {summary['edges']}, "
          f"labels {summary['labels_type']}")
    print(f"  mine with: {{\"graph_digest\": \"{digest}\", ...}}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.telemetry.summarize import render_summary

    print(render_summary(args.trace_file))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "er":
        graph = gnm_random_graph(args.n, args.m, seed=args.seed)
    elif args.model == "ba":
        graph = barabasi_albert_graph(args.n, args.d, seed=args.seed)
    else:
        graph = holme_kim_graph(args.n, args.d, args.triads, seed=args.seed)
    write_edge_list(graph, args.out, header=f"generated: {args.model}")
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
          f"to {args.out}")

    if args.labels_out:
        if args.label_kind == "discrete":
            labeling = DiscreteLabeling.random(
                graph, uniform_probabilities(args.num_labels), seed=args.seed
            )
            doc = {
                "type": "discrete",
                "probabilities": list(labeling.probabilities),
                "symbols": list(labeling.symbols),
                "assignment": {
                    str(v): labeling.label_of(v) for v in graph.vertices()
                },
            }
        else:
            labeling = ContinuousLabeling.random(
                graph, args.dimensions, seed=args.seed
            )
            doc = {
                "type": "continuous",
                "scores": {
                    str(v): list(labeling.z_score_of(v))
                    for v in graph.vertices()
                },
            }
        Path(args.labels_out).write_text(json.dumps(doc))
        print(f"wrote {args.label_kind} labeling to {args.labels_out}")
    return 0


def _write_graph(graph: Graph, path: str) -> None:
    if path.endswith(".json"):
        write_json_graph(graph, path)
    else:
        write_edge_list(graph, path)


def _write_discrete_labels(labeling, path: str) -> None:
    doc = {
        "type": "discrete",
        "probabilities": list(labeling.probabilities),
        "symbols": list(labeling.symbols),
        "assignment": {
            str(v): labeling.label_of(v) for v in labeling.vertices()
        },
    }
    Path(path).write_text(json.dumps(doc))


def _cmd_dataset(args: argparse.Namespace) -> int:
    if args.name == "northeast":
        from repro.datasets.northeast import northeast_dataset
        from repro.colocation.rulegraph import build_rule_instance

        ne = northeast_dataset(seed=7 if args.seed is None else args.seed)
        antecedent, consequent = args.rule.split(",")
        rule = ne.rule(antecedent.strip(), consequent.strip())
        graph, labeling = build_rule_instance(ne.dataset, rule)
        _write_graph(graph, args.graph_out)
        _write_discrete_labels(labeling, args.labels_out)
        print(f"wrote the {rule} instance: {graph.num_vertices} sites / "
              f"{graph.num_edges} edges to {args.graph_out}; labels to "
              f"{args.labels_out}")
        return 0
    if args.name == "wnv":
        from repro.datasets.wnv import wnv_dataset
        from repro.outliers.scoring import z_scores_by_method

        wnv = wnv_dataset(seed=11 if args.seed is None else args.seed)
        scores = z_scores_by_method(wnv.units, args.method)
        if not args.graph_out.endswith(".json"):
            raise ReproError(
                "WNV county names contain spaces; use a .json graph output"
            )
        write_json_graph(wnv.graph, args.graph_out)
        doc = {
            "type": "continuous",
            "scores": {str(v): [scores[v]] for v in wnv.graph.vertices()},
        }
        Path(args.labels_out).write_text(json.dumps(doc))
        print(f"wrote the WNV instance ({args.method}): "
              f"{wnv.graph.num_vertices} counties to {args.graph_out}; "
              f"z-scores to {args.labels_out}")
        return 0
    raise ReproError(f"unknown dataset {args.name!r}")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mine statistically significant connected subgraphs "
        "(SIGMOD 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="graph statistics and density regime")
    info.add_argument("graph", help="edge list or .json graph document")
    info.add_argument("--vertex-type", choices=_VERTEX_TYPES, default="int")
    info.set_defaults(func=_cmd_info)

    mine_cmd = sub.add_parser("mine", help="run the mining pipeline")
    mine_cmd.add_argument("graph", help="edge list or .json graph document")
    mine_cmd.add_argument("labels", help="labeling JSON document")
    mine_cmd.add_argument("--vertex-type", choices=_VERTEX_TYPES, default="int")
    # Defaults and choices are mine()'s own (one contract for library,
    # CLI and service).
    mine_cmd.add_argument(
        "--top", type=int, default=PARAM_DEFAULTS["top_t"], help="top-t regions"
    )
    mine_cmd.add_argument(
        "--n-theta", type=int, default=PARAM_DEFAULTS["n_theta"],
        help="reduction threshold",
    )
    mine_cmd.add_argument(
        "--method", choices=PARAM_CHOICES["method"],
        default=PARAM_DEFAULTS["method"],
    )
    mine_cmd.add_argument(
        "--edge-order", choices=PARAM_CHOICES["edge_order"],
        default=PARAM_DEFAULTS["edge_order"],
        help="edge processing order for continuous construction (Alg 2)",
    )
    mine_cmd.add_argument(
        "--seed", type=int, default=PARAM_DEFAULTS["seed"],
        help="RNG seed for --edge-order shuffled",
    )
    mine_cmd.add_argument(
        "--search-limit", type=int, default=PARAM_DEFAULTS["search_limit"],
        metavar="N",
        help="cap on connected sets explored per search (None = exhaustive)",
    )
    mine_cmd.add_argument(
        "--min-size", type=int, default=PARAM_DEFAULTS["min_size"],
        metavar="K", help="minimum vertices per reported region",
    )
    mine_cmd.add_argument(
        "--polish", action="store_true", help="LMCS post-pass"
    )
    mine_cmd.add_argument(
        "--prune", choices=PARAM_CHOICES["prune"],
        default=PARAM_DEFAULTS["prune"],
        help="branch-and-bound pruning of the exhaustive search "
        "(admissible bounds; identical optima, fewer states)",
    )
    mine_cmd.add_argument(
        "--backend", choices=PARAM_CHOICES["backend"],
        default=PARAM_DEFAULTS["backend"],
        help="search backend: the reference python DFS, the vectorized "
        "numpy batch kernel (much faster), or per-instance auto-selection "
        "(default: the kernel except on small bounds-pruned instances "
        "where batching overhead wins; always falls back to python above "
        "64 vertices).  All pick the same regions and report the same "
        "chi-square and p-values",
    )
    mine_cmd.add_argument(
        "--correct", choices=PARAM_CHOICES["correction"],
        default=PARAM_DEFAULTS["correction"],
        help="multiple-testing correction: 'fwer' applies the Tarone "
        "testability bound (discrete labelings only) — only regions with "
        "p <= delta* are reported, each with a corrected p-value "
        "min(1, m*p); see docs/correction.md",
    )
    mine_cmd.add_argument(
        "--alpha", type=float, default=PARAM_DEFAULTS["alpha"], metavar="A",
        help="target family-wise error rate for --correct fwer",
    )
    mine_cmd.add_argument("--json", action="store_true", help="JSON output")
    mine_cmd.add_argument(
        "--trace", metavar="FILE",
        help="write a JSONL telemetry trace (spans + metrics) to FILE",
    )
    mine_cmd.add_argument(
        "--metrics", action="store_true",
        help="collect and report pipeline metrics (counters/histograms)",
    )
    mine_cmd.add_argument(
        "--progress", action="store_true",
        help="live search-progress ticker on stderr (states visited, bound "
        "cuts, best statistic, elapsed)",
    )
    mine_cmd.set_defaults(func=_cmd_mine)

    gen = sub.add_parser("generate", help="write synthetic graphs/labelings")
    gen.add_argument("model", choices=("er", "ba", "holme-kim"))
    gen.add_argument("out", help="output edge-list path")
    gen.add_argument("-n", type=int, required=True, help="vertices")
    gen.add_argument("-m", type=int, default=0, help="edges (er)")
    gen.add_argument("-d", type=int, default=2, help="attachment degree (ba)")
    gen.add_argument(
        "--triads", type=float, default=0.5, help="triad probability (holme-kim)"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--labels-out", help="also write a random labeling here")
    gen.add_argument(
        "--label-kind", choices=("discrete", "continuous"), default="discrete"
    )
    gen.add_argument("--num-labels", type=int, default=3)
    gen.add_argument("--dimensions", type=int, default=1)
    gen.set_defaults(func=_cmd_generate)

    dataset = sub.add_parser(
        "dataset",
        help="export a synthetic evaluation dataset as graph + labels files",
    )
    dataset.add_argument("name", choices=("northeast", "wnv"))
    dataset.add_argument("--graph-out", required=True)
    dataset.add_argument("--labels-out", required=True)
    dataset.add_argument(
        "--rule", default="I,H", help="northeast: antecedent,consequent"
    )
    dataset.add_argument(
        "--method", choices=("weighted_z", "avg_diff"), default="weighted_z",
        help="wnv: outlier scoring method",
    )
    dataset.add_argument("--seed", type=int, default=None)
    dataset.set_defaults(func=_cmd_dataset)

    serve = sub.add_parser(
        "serve", help="run the HTTP mining service (see docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=2, help="mining worker processes"
    )
    serve.add_argument(
        "--cache-size", type=int, default=32,
        help="super-graph prefix cache entries per worker",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="max jobs in flight before submissions get HTTP 503",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline applied to requests that do not set one",
    )
    serve.add_argument(
        "--max-request-mb", type=float, default=8.0,
        help="reject request bodies larger than this (HTTP 413)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="directory for per-job JSONL trace artifacts "
        "(default: a fresh temporary directory)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent cache directory: prefix artifacts survive worker "
        "respawns, and replicas pointing at the same directory share them; "
        "also holds the PUT /graphs registry (default: memory-only cache, "
        "throwaway registry)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_MAX_BYTES, metavar="BYTES",
        help="byte budget for the on-disk prefix cache before LRU eviction "
        "(default: 512 MiB; only meaningful with --cache-dir)",
    )
    serve.add_argument(
        "--access-log", action="store_true",
        help="log one JSON line per request (trace_id, method, path, "
        "status, duration) to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    graphs = sub.add_parser(
        "graphs", help="manage registered instances on a running service"
    )
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    graphs_put = graphs_sub.add_parser(
        "put", help="upload a graph+labeling to PUT /graphs and print the "
        "content digest for mine-by-digest requests"
    )
    graphs_put.add_argument("graph", help="edge list or JSON graph document")
    graphs_put.add_argument("labels", help="JSON labeling document")
    graphs_put.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="base URL of the running service",
    )
    graphs_put.add_argument(
        "--vertex-type", choices=("int", "str"), default="int"
    )
    graphs_put.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="HTTP timeout for the upload",
    )
    graphs_put.set_defaults(func=_cmd_graphs_put)

    trace = sub.add_parser(
        "trace", help="inspect JSONL telemetry traces written by mine --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="render a per-stage breakdown table from one or "
        "more traces (multiple files are merged; per-process rollup)"
    )
    summarize.add_argument(
        "trace_file", nargs="+",
        help="JSONL trace file(s) — e.g. one per job, merged without "
        "double-counting",
    )
    summarize.set_defaults(func=_cmd_trace_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe early (e.g. `repro trace summarize
        # ... | head`); suppress the traceback and exit quietly.  stdout
        # is re-pointed at devnull so the interpreter's shutdown flush
        # does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Missing/unreadable input files surface as a clean CLI error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
