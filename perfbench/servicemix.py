"""The ``service-mixed`` workload: a ``repro serve`` process tree under load.

The service runs in its own processes (``repro serve`` with its default
two workers, a disk cache and a trace directory under ``.perfbench/``), so
the client's threads never hold the server's interpreter lock.  Two
closed-loop connections — sync ``POST /mine`` callers each wait for their
reply — replay a seeded request sequence of three warm requests to one
cold one:

- **warm**: ``{"graph_digest": ...}`` mines of four instances registered in
  set-up with ``PUT /graphs`` — registry and memory-cache reads;
- **cold**: inline bodies of never-seen instances, serialized in set-up —
  each pays parse, validate, digest, construct, reduce and a disk-cache
  write.

After the timed window every response is checked against
``result_to_payload(mine(...))`` computed in-process, and that replay also
times the protocol and digest functions on the workload's own documents.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro import DiscreteLabeling, mine
from repro.graph.generators import barabasi_albert_graph
from repro.service.digest import prefix_digest
from repro.service.protocol import (
    build_instance,
    result_to_payload,
    validate_request,
)

from checks import canonical_payload
from common import ROOT, clean_env, fresh_dir, median, percentile
from spans import SpanRecorder

NAME = "service-mixed"
PROBS = (0.4, 0.3, 0.2, 0.1)
WORKERS = 2
CONNECTIONS = 2
WARM_INSTANCES = 4
WARM_VERTICES = 300
COLD_VERTICES = 150
PARAMS = {"top_t": 1, "n_theta": 12, "prune": "bounds"}
SETUPS = 3
COLD_PER_SECOND = 20
"""Cold bodies serialized in set-up per measured second (more than the
service completes); later ones are generated on demand."""
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
HEADERS = {"Content-Type": "application/json"}


def _instance_doc(graph: Any, labeling: DiscreteLabeling) -> dict[str, Any]:
    return {
        "graph": {"edges": [[u, v] for u, v in graph.edges()]},
        "labels": {
            "type": "discrete",
            "probabilities": list(labeling.probabilities),
            "assignment": {
                str(v): labeling.label_of(v) for v in graph.vertices()
            },
        },
    }


def _random_doc(rng: random.Random, vertices: int) -> dict[str, Any]:
    graph = barabasi_albert_graph(vertices, 2, seed=rng.getrandbits(32))
    labeling = DiscreteLabeling.random(graph, PROBS, seed=rng.getrandbits(32))
    return _instance_doc(graph, labeling)


def warm_doc(seed: int, key: int) -> dict[str, Any]:
    return _random_doc(random.Random(f"{NAME}/{seed}/warm/{key}"), WARM_VERTICES)


def cold_body(seed: int, key: int) -> bytes:
    doc = _random_doc(random.Random(f"{NAME}/{seed}/cold/{key}"), COLD_VERTICES)
    doc["params"] = PARAMS
    return json.dumps(doc).encode()


def request_sequence(seed: int, length: int) -> list[tuple[str, int]]:
    """``length`` requests: in each block of four, one cold at a seeded slot.

    Cold requests number their instances 0, 1, 2, ... in order, so no
    instance is ever sent twice.
    """
    rng = random.Random(f"{NAME}/{seed}/sequence")
    sequence: list[tuple[str, int]] = []
    cold = 0
    while len(sequence) < length:
        slot = rng.randrange(4)
        for position in range(4):
            if position == slot:
                sequence.append(("cold", cold))
                cold += 1
            else:
                sequence.append(("warm", rng.randrange(WARM_INSTANCES)))
    return sequence[:length]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except OSError:
        return False
    return True


def _descendants(root: int) -> list[int]:
    """Every live process below ``root`` in the process tree."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Service:
    """One ``repro serve`` process tree, started and stopped by the harness."""

    def __init__(self, tag: str) -> None:
        base = fresh_dir(f"service/{tag}")
        env = clean_env()
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self._log = open(base / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS),
             "--cache-dir", str(base / "cache"),
             "--trace-dir", str(base / "traces")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.worker_pids: list[int] = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"service did not announce its port: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._await_healthy(started + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - started

    def _await_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, body = self.call("GET", "/healthz")
            except OSError:
                status, body = None, b""
            if status == 200:
                pool = json.loads(body)["pool"]
                pids = [w["pid"] for w in pool["worker_detail"] if w["alive"]]
                if len(pids) == WORKERS:
                    self.worker_pids = pids
                    return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("service did not become healthy")
            time.sleep(0.02)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request(method, path, body=body, headers=HEADERS)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, Any]:
        status, body = self.call("GET", "/metricsz")
        if status != 200:
            raise RuntimeError(f"/metricsz answered {status}")
        return json.loads(body)["metrics"]

    def peak_rss_mb(self) -> float:
        return max(_peak_rss_mb(pid) for pid in [self.proc.pid, *self.worker_pids])

    def stop(self) -> None:
        """Interrupt the server; wait for it and every process it started.

        ``repro serve`` shuts its pool down on SIGINT.  Should it not exit,
        it is killed, and so is anything it left behind.
        """
        tree = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        deadline = time.monotonic() + 10
        for pid in tree:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)


@dataclass
class Response:
    index: int
    kind: str
    key: int
    status: int | None
    start: float
    end: float
    body: bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _setup(
    seed: int, tag: str, connections: int
) -> tuple[Service, list[str], list[float], float]:
    """Start, register the warm instances, warm up; returns the timings."""
    started = time.perf_counter()
    service = Service(tag)
    try:
        digests, puts = [], []
        for key in range(WARM_INSTANCES):
            body = json.dumps(warm_doc(seed, key)).encode()
            t0 = time.perf_counter()
            status, reply = service.call("PUT", "/graphs", body)
            puts.append(time.perf_counter() - t0)
            if status not in (200, 201):
                raise RuntimeError(f"PUT /graphs answered {status}: {reply[:200]!r}")
            digests.append(json.loads(reply)["graph_digest"])
        # Warm-up: every registered instance once, over ``connections``
        # connections, so the workers have imported the search kernel and
        # the warm prefixes are on disk before anything is timed.
        warmups = [
            json.dumps({"graph_digest": d, "params": PARAMS}).encode()
            for d in digests
        ]
        statuses: list[int] = []

        def warm_up(share: list[bytes]) -> None:
            statuses.extend(service.call("POST", "/mine", b)[0] for b in share)

        threads = [
            threading.Thread(target=warm_up, args=(warmups[i::connections],))
            for i in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if statuses != [200] * len(warmups):
            raise RuntimeError(f"warm-up requests answered {statuses}")
    except BaseException:
        service.stop()
        raise
    return service, digests, puts, time.perf_counter() - started


def body_of(bodies: dict[str, Any], kind: str, key: int) -> bytes:
    """The serialized request body of one sequence entry."""
    if kind == "warm":
        return bodies["warm"][key]
    cold = bodies["cold"]
    return cold[key] if key < len(cold) else cold_body(bodies["seed"], key)


def _closed_loop(
    service: Service, bodies: dict[str, Any], sequence: list[tuple[str, int]],
    seconds: float, ops: int | None, connections: int,
) -> list[Response]:
    lock = threading.Lock()
    cursor = [0]
    responses: list[Response] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = http.client.HTTPConnection(service.host, service.port, timeout=REQUEST_TIMEOUT)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(sequence) or (
                        ops is None and index > 0 and time.perf_counter() >= deadline
                    ) or (ops is not None and index >= ops):
                        return
                    cursor[0] += 1
                kind, key = sequence[index]
                body = body_of(bodies, kind, key)
                start = time.perf_counter()
                try:
                    conn.request("POST", "/mine", body=body, headers=HEADERS)
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    status, data = None, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(
                        service.host, service.port, timeout=REQUEST_TIMEOUT
                    )
                end = time.perf_counter()
                with lock:
                    responses.append(Response(index, kind, key, status, start, end, data))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(responses, key=lambda r: r.index)


def _replay(
    recorder: SpanRecorder, index: int, body: bytes
) -> tuple[dict[str, Any], Any, Any]:
    """Run the request's protocol path in-process, timing each function."""
    doc = json.loads(body)
    t0 = time.perf_counter()
    request = validate_request(doc)
    t1 = time.perf_counter()
    recorder.add("protocol.validate", index, t0, t1)
    params = request["params"]
    if request["graph_digest"] is not None:
        return params, None, None
    graph, labeling = build_instance(request)
    t2 = time.perf_counter()
    recorder.add("protocol.build_instance", index, t1, t2)
    prefix_digest(graph, labeling, n_theta=params["n_theta"],
                  edge_order=params["edge_order"], seed=params["seed"])
    recorder.add("digest", index, t2, time.perf_counter())
    return params, graph, labeling


def run(
    seed: int, seconds: float, trace: bool, ops: int | None,
    recorder: SpanRecorder,
) -> dict[str, Any]:
    """Run the service workload; returns metrics plus op accounting."""
    # A fixed op count (``--ops``) sends one request at a time: with two
    # connections, which worker serves a request -- and so whether it hits
    # that worker's memory cache -- depends on timing.
    connections = CONNECTIONS if ops is None else 1
    setups, spawns, puts = [], [], []
    service = None
    try:
        for attempt in range(SETUPS):
            if service is not None:
                service.stop()
                service = None
            started = time.perf_counter()
            warm_docs = [warm_doc(seed, key) for key in range(WARM_INSTANCES)]
            count = COLD_PER_SECOND * int(seconds) + 8 if ops is None else ops
            cold = [cold_body(seed, key) for key in range(count)]
            generated = time.perf_counter() - started
            service, digests, put_times, served = _setup(
                seed, f"setup{attempt}", connections
            )
            setups.append(generated + served)
            spawns.append(service.spawn_s)
            puts.extend(put_times)
        bodies = {
            "seed": seed,
            "warm": [
                json.dumps({"graph_digest": d, "params": PARAMS}).encode()
                for d in digests
            ],
            "cold": cold,
        }
        length = ops if ops is not None else int(seconds * 400) + 100
        sequence = request_sequence(seed, length)
        before = service.metrics()
        window_start = time.perf_counter()
        responses = _closed_loop(
            service, bodies, sequence, seconds, ops, connections
        )
        window = max(r.end for r in responses) - window_start
        after = service.metrics()
        peak_rss = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()

    # Verification and the protocol replay run after the service is gone,
    # so neither competes with it for the two cores.
    warm_results = []
    for doc in warm_docs:
        request = validate_request(dict(doc, params=PARAMS))
        graph, labeling = build_instance(request)
        warm_results.append(mine(graph, labeling, **request["params"]))
    problems: list[str] = []
    ok: list[dict[str, Any]] = []
    for response in responses:
        recorder.add(
            "request", response.index, response.start, response.end,
            kind=response.kind, key=response.key, status=response.status,
        )
        if response.status != 200:
            problems.append(
                f"request {response.index} ({response.kind}): status "
                f"{response.status}: {response.body[:200]!r}"
            )
            continue
        params, graph, labeling = _replay(
            recorder, response.index, body_of(bodies, response.kind, response.key)
        )
        if response.kind == "warm":
            result = warm_results[response.key]
        else:
            result = mine(graph, labeling, **params)
        t0 = time.perf_counter()
        expected = result_to_payload(result)
        recorder.add("protocol.payload", response.index, t0, time.perf_counter())
        payload = json.loads(response.body).get("result")
        if payload is None or canonical_payload(payload) != canonical_payload(expected):
            problems.append(
                f"request {response.index} ({response.kind}): payload differs "
                "from result_to_payload(mine(...))"
            )
            continue
        report = payload["report"]
        ok.append({
            "kind": response.kind,
            "latency": response.seconds,
            "pipeline": report["total_seconds"],
            "construct": report["construction_seconds"],
            "reduce": report["reduction_seconds"],
            "search": report["search_seconds"],
            "states": report["explored_subgraphs"],
            "super_vertices": report["supergraph_vertices"],
            "contractions": report["contractions"],
            "rounds": report["rounds"],
        })

    def latencies(kind: str | None) -> list[float]:
        return [r["latency"] for r in ok if kind in (None, r["kind"])] or [0.0]

    metrics = {
        "setup_s": median(setups),
        "latency_p50_s": median(latencies(None)),
        "latency_p90_s": percentile(latencies(None), 90),
        "throughput_ops_s": len(ok) / window,
        "warm_latency_p50_s": median(latencies("warm")),
        "cold_latency_p50_s": median(latencies("cold")),
        "peak_rss_mb": peak_rss,
        "ok_ops_frac": len(ok) / len(responses),
    }
    return {
        "attempted": len(responses),
        "failed": len(responses) - len(ok),
        "problems": problems[:20],
        "metrics": metrics,
        "layers": _layer_metrics(ok, before, after, spawns, puts, recorder)
        if trace and ok else {},
    }


def _layer_metrics(
    ok: list[dict[str, Any]], before: dict[str, Any], after: dict[str, Any],
    spawns: list[float], puts: list[float], recorder: SpanRecorder,
) -> dict[str, float]:
    """Per-layer medians, ``/metricsz`` cache deltas and latency shares."""
    def delta(name: str) -> float:
        return float(after.get(name, 0) - before.get(name, 0))

    out: dict[str, float] = {}
    for kind in ("warm", "cold"):
        rows = [r for r in ok if r["kind"] == kind] or [
            {"pipeline": 0.0, "latency": 0.0}
        ]
        out[f"service.{kind}.pipeline_s"] = median([r["pipeline"] for r in rows])
        out[f"service.{kind}.overhead_s"] = median(
            [r["latency"] - r["pipeline"] for r in rows]
        )
    for name, key in (
        ("construct.s", "construct"), ("reduce.s", "reduce"),
        ("search.s", "search"), ("search.states", "states"),
        ("construct.super_vertices", "super_vertices"),
        ("reduce.contractions", "contractions"), ("search.calls", "rounds"),
    ):
        out[name] = median([r[key] for r in ok])
    for span_name, metric_name in (
        ("protocol.validate", "protocol.validate_s"),
        ("protocol.payload", "protocol.payload_s"),
        ("protocol.build_instance", "protocol.build_instance_s"),
        ("digest", "digest.s"),
    ):
        values = [s["end"] - s["start"] for s in recorder.spans if s["name"] == span_name]
        out[metric_name] = median(values) if values else 0.0
    hits, misses = delta("service.cache.hits"), delta("service.cache.misses")
    out["cache.memory_hits"] = hits
    out["cache.memory_misses"] = misses
    out["cache.disk_writes"] = delta("service.diskcache.writes")
    out["cache.disk_hits"] = delta("service.diskcache.hits")
    out["cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["registry.put_s"] = median(puts)
    out["setup.spawn_s"] = median(spawns)
    latency = sum(r["latency"] for r in ok)
    out["share.construct"] = sum(r["construct"] for r in ok) / latency
    out["share.reduce"] = sum(r["reduce"] for r in ok) / latency
    out["share.search"] = sum(r["search"] for r in ok) / latency
    out["share.service_overhead"] = sum(
        r["latency"] - r["pipeline"] for r in ok
    ) / latency
    # Client spans are assembled from timestamps after the window, so
    # tracing adds nothing to the requests it describes.
    out["trace.overhead_frac"] = 0.0
    return out
