"""Self-test of the benchmark: exact counts, seed sensitivity, loud probes.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that

1. two traced runs of each workload with one seed and a fixed op count
   (``--ops``) give identical deterministic counts — super-vertices,
   contractions, states of ``prune="none"`` searches, the testable
   hypothesis count, and the service's cache hit/miss/write counts (which
   ``--ops`` runs make repeatable by sending requests one at a time: with
   two connections, which worker serves a request depends on timing);
2. a second seed changes every workload's input digests and still passes
   every correctness check;
3. a layer probe fails loudly when its target name is missing or was
   never called, and restores the originals after a traced op;
4. ``run.py`` exits non-zero without a result line when the checkout holds
   only ``BENCHMARK.json`` and the benchmark's own files;
5. ``BENCHMARK.json`` declares exactly the metrics ``run.py`` prints.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types

from common import ROOT, WORK, clean_env, ensure_clean_process

SEED_A, SEED_B = 11, 12
OPS = {
    "fig2-orkut-continuous": 2,
    "topt5-orkut-discrete": 2,
    "topt3-planted-fwer": 4,
    "service-mixed": 24,
}
DETERMINISTIC = {
    "fig2-orkut-continuous": [
        "construct.calls", "construct.super_vertices", "reduce.contractions",
        "search.calls", "search.states",
    ],
    "topt5-orkut-discrete": [
        "construct.calls", "construct.super_vertices", "reduce.contractions",
        "search.calls",
    ],
    "topt3-planted-fwer": [
        "construct.calls", "construct.super_vertices", "reduce.contractions",
        "search.calls", "search.states", "polish.calls",
        "correction.num_testable", "correction.regions_filtered",
    ],
    "service-mixed": [
        "cache.memory_hits", "cache.memory_misses", "cache.disk_writes",
        "cache.disk_hits",
    ],
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}", flush=True)


def bench(workload: str, seed: int, trace: int, cwd=ROOT) -> tuple[int, dict | None]:
    """Run ``run.py`` once; returns its exit code and parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--ops", str(OPS[workload])],
        cwd=cwd, env=clean_env(), capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, result


def values(result: dict, names: list[str]) -> dict[str, float]:
    return {name: result["metrics"][name]["value"] for name in names}


def input_digests(workload: str, seed: int) -> list[str]:
    """Content digests of the inputs a workload generates from ``seed``."""
    from repro.service.digest import graph_digest, labeling_digest

    if workload == "service-mixed":
        import servicemix
        from repro.service.protocol import build_instance, validate_request

        docs = [servicemix.warm_doc(seed, k) for k in range(servicemix.WARM_INSTANCES)]
        docs.append(json.loads(servicemix.cold_body(seed, 0)))
        instances = [build_instance(validate_request(doc)) for doc in docs]
    else:
        import library

        instances = library.WORKLOADS[workload].make_instances(
            random.Random(f"{workload}/{seed}")
        )
    return [graph_digest(g) + labeling_digest(l) for g, l in instances]


def check_counts_and_seeds() -> None:
    import servicemix

    for workload, names in DETERMINISTIC.items():
        print(f"-- {workload}", flush=True)
        first = bench(workload, SEED_A, 1)
        second = bench(workload, SEED_A, 1)
        for label, (code, result) in (("first", first), ("second", second)):
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload}: {label} traced run failed (exit {code})")
        if first[1] is None or second[1] is None:
            continue
        a, b = values(first[1], names), values(second[1], names)
        expect(a == b, f"{workload}: counts differ between runs: {a} != {b}")
        if workload == "service-mixed":
            sequence = servicemix.request_sequence(SEED_A, OPS[workload])
            cold = sum(1 for kind, _ in sequence if kind == "cold")
            expect(a["cache.disk_writes"] == cold,
                   f"service: {a['cache.disk_writes']} disk writes for {cold} cold requests")
            expect(a["cache.memory_hits"] == len(sequence) - cold,
                   f"service: {a['cache.memory_hits']} memory hits for "
                   f"{len(sequence) - cold} warm requests")
        else:
            # Contractions and filtered regions may legitimately be 0.
            expect(all(a[name] > 0 for name in names
                       if name.endswith((".calls", ".super_vertices", ".states"))),
                   f"{workload}: a layer did no work: {a}")

        digests_a = input_digests(workload, SEED_A)
        digests_b = input_digests(workload, SEED_B)
        expect(not set(digests_a) & set(digests_b),
               f"{workload}: seeds {SEED_A} and {SEED_B} share an input")
        code, result = bench(workload, SEED_B, 0)
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0,
               f"{workload}: seed {SEED_B} failed its correctness checks")


def check_probes() -> None:
    from repro.core import solver
    from spans import LayerProbe, ProbeError, SpanRecorder

    recorder = SpanRecorder()
    fake = types.SimpleNamespace(__name__="fake_solver")
    try:
        LayerProbe(fake, ["exhaustive_best_mask"], recorder)
        expect(False, "probe accepted a missing target name")
    except ProbeError:
        pass
    probe = LayerProbe(solver, ["reduce_supergraph", "lmcs_local_search"], recorder)
    original = solver.reduce_supergraph
    with probe.installed():
        expect(solver.reduce_supergraph is not original, "probe did not install")
    expect(solver.reduce_supergraph is original, "probe did not restore the original")
    try:
        probe.check_called()
        expect(False, "probe accepted targets that were never called")
    except ProbeError:
        pass


def check_catalogue() -> None:
    """``BENCHMARK.json`` and ``run.py`` name the same metrics and units."""
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == catalogue, f"BENCHMARK.json {key} differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topt3-planted-fwer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py printed a result without the program's sources")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    ensure_clean_process([__file__])
    check_catalogue()
    check_probes()
    check_bare_directory()
    check_counts_and_seeds()
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
