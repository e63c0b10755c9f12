"""Benchmark entry point: one workload, one seed, one timed window.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig2-orkut-continuous --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with outside-in layer timing and prints the per-layer metrics.
The last line of stdout is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the host environment
before and after the run.  Spans are written to
``.perfbench/spans/<workload>-seed<seed>-trace<0|1>.jsonl``.  The exit code
is 0 only when every op's output passed its correctness checks.

``--ops N`` replaces the timed window with exactly N ops (used by
``selftest.py``, whose counts must repeat exactly).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import (
    SRC, WORK, emit_result, ensure_clean_process, environment_snapshot,
)

WORKLOADS = (
    "fig2-orkut-continuous",
    "topt5-orkut-discrete",
    "topt3-planted-fwer",
    "service-mixed",
)

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}

PER_LAYER = {
    "construct.s": "s",
    "construct.calls": "count",
    "construct.super_vertices": "count",
    "reduce.s": "s",
    "reduce.contractions": "count",
    "search.s": "s",
    "search.calls": "count",
    "search.states": "count",
    "search.bound_cuts": "count",
    "search.testability_cuts": "count",
    "search.useful_frac": "frac",
    "polish.s": "s",
    "polish.calls": "count",
    "correction.s": "s",
    "correction.num_testable": "count",
    "correction.regions_filtered": "count",
    "solver.self_s": "s",
    "protocol.validate_s": "s",
    "protocol.build_instance_s": "s",
    "protocol.payload_s": "s",
    "digest.s": "s",
    "service.warm.pipeline_s": "s",
    "service.cold.pipeline_s": "s",
    "service.warm.overhead_s": "s",
    "service.cold.overhead_s": "s",
    "latency_p90_s": "s",
    "warm_latency_p50_s": "s",
    "cold_latency_p50_s": "s",
    "cache.memory_hits": "count",
    "cache.memory_misses": "count",
    "cache.disk_writes": "count",
    "cache.disk_hits": "count",
    "cache.hit_frac": "frac",
    "registry.put_s": "s",
    "setup.spawn_s": "s",
    "share.construct": "frac",
    "share.reduce": "frac",
    "share.search": "frac",
    "share.polish": "frac",
    "share.correction": "frac",
    "share.solver_self": "frac",
    "share.service_overhead": "frac",
    "trace.overhead_frac": "frac",
}
"""Per-layer metrics; a layer a workload never reaches reports 0."""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    ensure_clean_process([__file__, *argv])
    # Processes started from a non-interactive shell's background job
    # inherit an ignored SIGINT, and so would ``repro serve``, which stops
    # its worker pool on SIGINT.  SIGTERM unwinds through the ``finally``
    # blocks that stop the service.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from spans import SpanRecorder

    recorder = SpanRecorder()
    before = environment_snapshot()
    if args.workload == "service-mixed":
        import servicemix

        outcome = servicemix.run(
            args.seed, args.seconds, bool(args.trace), args.ops, recorder
        )
    else:
        import library

        outcome = library.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.ops, recorder,
        )
    after = environment_snapshot()
    recorder.write_jsonl(
        WORK / "spans" / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    )
    if outcome["problems"]:
        print("\n".join(outcome["problems"]), file=sys.stderr)
    catalogue = PER_LAYER if args.trace else END_TO_END
    # A traced run also reports the latency breakdowns that vary too much
    # between runs to be gated (p90, and the service's warm/cold medians).
    source = {**outcome["metrics"], **outcome["layers"]} if args.trace else outcome["metrics"]
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
    print(json.dumps({"environment": {"before": before, "after": after}}))
    correct = outcome["failed"] == 0
    emit_result(
        correct=correct, attempted=outcome["attempted"],
        failed=outcome["failed"], metrics=metrics,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
