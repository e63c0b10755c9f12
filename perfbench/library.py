"""The three library workloads: one ``mine(..., backend="auto")`` per op.

Each workload makes one pipeline layer do most of the work:

- ``fig2-orkut-continuous`` — Algorithm 2 construction (Figure 2's dense
  Orkut-like graph with Section 5.3 degree z-scores);
- ``topt5-orkut-discrete`` — Algorithm 1 construction, rebuilt every one of
  five TSSS rounds;
- ``topt3-planted-fwer`` — exhaustive search, plus polish and the Tarone
  FWER correction (one planted region survives, two rounds are filtered
  and re-searched unpruned).

``backend="auto"`` is passed explicitly because that is what CLI and
service users get; ``mine()``'s own default is ``"python"``.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import DiscreteLabeling, mine
from repro.core import solver
from repro.datasets.snaplike import degree_zscore_labeling, snap_like_graph
from repro.graph.generators import barabasi_albert_graph

from checks import check_equal, check_posthoc, check_regions
from common import median, percentile
from spans import LayerProbe, SpanRecorder, duration, self_seconds

PROBS = (0.4, 0.3, 0.2, 0.1)
"""Four-label null model shared by the discrete workloads."""

SETUPS = 3
"""Set-ups per run; ``setup_s`` is their median."""

CORRECTION = [
    "TestabilityEnvelope", "hypothesis_count_envelope", "tarone_threshold",
    "conservative_statistic_floor", "corrected_p_value",
]


@dataclass
class LibraryWorkload:
    name: str
    make_instances: Callable[[random.Random], list[tuple[Any, Any]]]
    params: dict[str, Any]
    probe_targets: list[str]
    posthoc: bool = False


def _fig2_instances(rng: random.Random) -> list[tuple[Any, Any]]:
    graph = snap_like_graph("com-Orkut", scale=1200, seed=rng.getrandbits(32))
    return [(graph, degree_zscore_labeling(graph))]


def _topt5_instances(rng: random.Random) -> list[tuple[Any, Any]]:
    graph = snap_like_graph("com-Orkut", scale=400, seed=rng.getrandbits(32))
    labeling = DiscreteLabeling.random(graph, PROBS, seed=rng.getrandbits(32))
    return [(graph, labeling)]


PLANTED_INSTANCES = 5
PLANTED_SIZE = 70


def _planted_instance(rng: random.Random) -> tuple[Any, Any]:
    """A sparse BA graph with one connected rare-label region planted.

    The region is the first ``PLANTED_SIZE`` vertices of a BFS (neighbour
    order shuffled) from a random start, all relabelled with the rarest
    label — a chi-square near 630 against the Tarone floor of about 566
    at N=400, so it survives the correction.
    """
    graph = barabasi_albert_graph(400, 2, seed=rng.getrandbits(32))
    assignment = DiscreteLabeling.random(
        graph, PROBS, seed=rng.getrandbits(32)
    ).as_dict()
    start = rng.choice(sorted(graph.vertices()))
    seen, queue, region = {start}, deque([start]), []
    while queue and len(region) < PLANTED_SIZE:
        u = queue.popleft()
        region.append(u)
        neighbours = sorted(graph.neighbors(u))
        rng.shuffle(neighbours)
        for w in neighbours:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    for v in region:
        assignment[v] = len(PROBS) - 1
    return graph, DiscreteLabeling(PROBS, assignment)


def _planted_instances(rng: random.Random) -> list[tuple[Any, Any]]:
    # Several instances per run: the reduced super-graph's shape, and with
    # it the search's state count, varies between instances, and a median
    # over a mix is steadier from seed to seed than any single instance.
    return [_planted_instance(rng) for _ in range(PLANTED_INSTANCES)]


WORKLOADS = {
    w.name: w for w in (
        LibraryWorkload(
            "fig2-orkut-continuous", _fig2_instances,
            dict(top_t=1, n_theta=20, backend="auto"),
            ["build_continuous_supergraph", "reduce_supergraph",
             "exhaustive_best_mask"],
        ),
        LibraryWorkload(
            "topt5-orkut-discrete", _topt5_instances,
            dict(top_t=5, n_theta=20, prune="bounds", backend="auto"),
            ["build_discrete_supergraph", "reduce_supergraph",
             "exhaustive_best_mask"],
        ),
        LibraryWorkload(
            "topt3-planted-fwer", _planted_instances,
            dict(top_t=3, n_theta=20, prune="none", correction="fwer",
                 polish=True, backend="auto"),
            ["build_discrete_supergraph", "reduce_supergraph",
             "exhaustive_best_mask", "lmcs_local_search", *CORRECTION],
            posthoc=True,
        ),
    )
}

LAYERS = ("construct", "reduce", "search", "polish", "correction")


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def _setup(workload: LibraryWorkload, seed: int) -> tuple[float, list, Any]:
    """Generate the inputs and run one warm-up op; returns its wall time."""
    started = time.perf_counter()
    instances = workload.make_instances(random.Random(f"{workload.name}/{seed}"))
    graph, labeling = instances[0]
    warm = mine(graph, labeling, **workload.params)
    return time.perf_counter() - started, instances, warm


def _references(workload: LibraryWorkload, instances: list, warm: Any) -> tuple[list, list[str]]:
    """Reference results per instance, checked on their own terms."""
    references = [warm] + [
        mine(graph, labeling, **workload.params)
        for graph, labeling in instances[1:]
    ]
    problems = []
    for k, ((graph, labeling), ref) in enumerate(zip(instances, references)):
        problems += [f"reference {k}: {p}" for p in check_regions(ref, graph, labeling)]
        if not ref.subgraphs:
            problems.append(f"reference {k}: no regions mined")
        if workload.posthoc:
            raw = mine(graph, labeling, **dict(workload.params, correction="none"))
            problems += [f"reference {k}: {p}" for p in check_posthoc(ref, raw)]
            if not ref.subgraphs or ref.correction.regions_filtered == 0:
                problems.append(
                    f"reference {k}: the FWER workload needs one surviving "
                    "and at least one filtered region"
                )
    return references, problems


def _op_layers(spans: list[dict[str, Any]], result: Any) -> dict[str, float]:
    """Per-op layer seconds and counts from one traced op's spans."""
    root = next(s for s in spans if s["name"] == "mine")
    children = [s for s in spans if s["parent"] == root["id"]]
    out: dict[str, float] = {"mine.s": duration(root)}
    for layer in LAYERS:
        mine_spans = [s for s in children if s["name"] == layer]
        out[f"{layer}.s"] = sum(duration(s) for s in mine_spans)
        out[f"{layer}.calls"] = len(mine_spans)
    out["solver.self_s"] = self_seconds(root, spans)

    def total(layer: str, attr: str) -> float:
        return sum(s["attrs"][attr] for s in children if s["name"] == layer)

    out["construct.super_vertices"] = total("construct", "super_vertices")
    out["reduce.contractions"] = total("reduce", "contractions")
    out["search.states"] = total("search", "states")
    out["search.bound_cuts"] = total("search", "bound_cuts")
    out["search.testability_cuts"] = total("search", "testability_cuts")
    calls = out["search.calls"]
    out["search.useful_frac"] = len(result.subgraphs) / calls if calls else 0.0
    if result.correction is not None:
        out["correction.num_testable"] = float(result.correction.num_testable)
        out["correction.regions_filtered"] = result.correction.regions_filtered
    return out


def run(
    name: str, seed: int, seconds: float, trace: bool, ops: int | None,
    recorder: SpanRecorder,
) -> dict[str, Any]:
    """Run one library workload; returns metrics plus op accounting."""
    workload = WORKLOADS[name]
    # Imports are not set-up: load the lazily imported search kernel now.
    import repro.enumerate.kernel  # noqa: F401

    setups = []
    for _ in range(SETUPS):
        instances = warm = None
        gc.collect()
        seconds_taken, instances, warm = _setup(workload, seed)
        setups.append(seconds_taken)
    references, problems = _references(workload, instances, warm)
    if problems:
        raise RuntimeError("reference results are wrong: " + "; ".join(problems))
    probe = LayerProbe(solver, workload.probe_targets, recorder) if trace else None

    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < ops) if ops is not None else (
        index == 0 or time.perf_counter() < deadline
    ):
        k = index % len(instances)
        graph, labeling = instances[k]
        # Traced runs alternate traced and untraced ops, so the tracing
        # overhead is measured within the run.
        traced = probe is not None and index % 2 == 0
        gc.collect()
        if traced:
            recorder.op = index
            with probe.installed():
                with recorder.span("mine", instance=k, traced=True) as root:
                    result = mine(graph, labeling, **workload.params)
            took = duration(root)
        else:
            started = time.perf_counter()
            result = mine(graph, labeling, **workload.params)
            ended = time.perf_counter()
            took = ended - started
            recorder.add("mine", index, started, ended, instance=k, traced=False)
        problems = check_equal(result, references[k]) + check_regions(
            result, graph, labeling
        )
        record = OpRecord(took, traced, problems)
        if traced:
            record.layers = _op_layers(recorder.of_op(index), result)
        records.append(record)
        index += 1
    if probe is not None:
        probe.check_called()

    failed = sum(1 for r in records if r.problems)
    latencies = [r.seconds for r in records if not r.traced]
    metrics = {
        "setup_s": median(setups),
        "latency_p50_s": median(latencies) if latencies else 0.0,
        "latency_p90_s": percentile(latencies, 90) if latencies else 0.0,
        "throughput_ops_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": (len(records) - failed) / len(records),
    }
    return {
        "attempted": len(records),
        "failed": failed,
        "problems": [p for r in records for p in r.problems][:20],
        "metrics": metrics,
        "layers": _layer_metrics(records) if trace else {},
    }


def _layer_metrics(records: list[OpRecord]) -> dict[str, float]:
    """Medians over traced ops, layer shares, and the tracing overhead."""
    traced = [r for r in records if r.traced]
    untraced = [r.seconds for r in records if not r.traced]
    keys = {key for r in traced for key in r.layers} - {"mine.s"}
    out = {
        key: median([r.layers.get(key, 0.0) for r in traced]) for key in keys
    }
    wall = sum(r.layers["mine.s"] for r in traced)
    for layer in LAYERS:
        out[f"share.{layer}"] = sum(r.layers[f"{layer}.s"] for r in traced) / wall
    out["share.solver_self"] = sum(r.layers["solver.self_s"] for r in traced) / wall
    if untraced:
        out["trace.overhead_frac"] = (
            median([r.seconds for r in traced]) / median(untraced) - 1.0
        )
    return out
