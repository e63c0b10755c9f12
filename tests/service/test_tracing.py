"""End-to-end tests for job tracing and live progress over the pool.

Real sockets + real spawn workers — marked ``service``.  These verify
the tentpole property: one trace id travels from the HTTP request into
the worker process and back out through ``GET /jobs/<id>/trace``, while
``GET /jobs/<id>/progress`` shows the search advancing live.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.service.server import MiningService

pytestmark = pytest.mark.service

EDGES = [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [4, 5], [3, 5]]
ASSIGNMENT = {"0": 1, "1": 1, "2": 1, "3": 0, "4": 0, "5": 0}

# Big enough that the search spans many progress polls, small enough to
# finish in seconds: a 22-vertex dense-ish instance, naive method so the
# whole graph is searched without super-graph reduction shortcuts.
SLOW_EDGES = [
    [u, v] for u in range(22) for v in range(u + 1, 22) if (u + v) % 3
]
SLOW_ASSIGNMENT = {str(v): v % 2 for v in range(22)}


def quick_request(**overrides):
    doc = {
        "graph": {"edges": EDGES},
        "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
                   "assignment": ASSIGNMENT},
        "params": {"top_t": 1, "n_theta": 10},
    }
    doc.update(overrides)
    return doc


def slow_request(backend):
    return {
        "graph": {"edges": SLOW_EDGES},
        "labels": {"type": "discrete", "probabilities": [0.5, 0.5],
                   "assignment": SLOW_ASSIGNMENT},
        "params": {"method": "naive", "backend": backend},
        "async": True,
    }


def http(method, url, doc=None, headers=None, timeout=60):
    data = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
            content_type = response.headers.get("Content-Type", "")
            if content_type.startswith("application/json"):
                return response.status, json.loads(body)
            return response.status, body.decode()
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(interval)
    pytest.fail("condition not reached within the timeout")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    with MiningService(
        port=0, workers=2, cache_size=8, trace_dir=str(trace_dir)
    ) as svc:
        host, port = svc.address
        yield f"http://{host}:{port}"


class TestTraceIdPropagation:
    def test_request_trace_id_reaches_job_trace(self, service):
        trace_id = "feedface00112233"
        status, body = http(
            "POST", f"{service}/mine", quick_request(),
            headers={"X-Trace-Id": trace_id},
        )
        assert status == 200
        assert body["trace_id"] == trace_id
        job_id = body["job_id"]
        status, trace = wait_for(
            lambda: (lambda r: r if r[0] == 200 else None)(
                http("GET", f"{service}/jobs/{job_id}/trace")
            )
        )
        assert trace["trace_id"] == trace_id
        meta = trace["records"][0]
        assert meta["type"] == "meta"
        assert meta["trace_id"] == trace_id
        spans = [r for r in trace["records"] if r.get("type") == "span"]
        roots = [s for s in spans if s.get("parent") is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "service.job"
        assert roots[0]["attrs"]["trace_id"] == trace_id
        names = {s["name"] for s in spans}
        assert {"service.job", "solver.mine", "solver.search"} <= names
        # Every span was recorded in the worker, not the server process.
        pids = {s["pid"] for s in spans}
        assert pids and os.getpid() not in pids
        # The artifact on disk matches what the endpoint returned.
        assert trace["trace_path"] and os.path.exists(trace["trace_path"])

    def test_malformed_inbound_trace_id_is_replaced(self, service):
        status, body = http(
            "POST", f"{service}/mine", quick_request(),
            headers={"X-Trace-Id": "not a valid trace id!"},
        )
        assert status == 200
        assert body["trace_id"] != "not a valid trace id!"

    def test_trace_false_disables_the_artifact(self, service):
        status, body = http(
            "POST", f"{service}/mine", quick_request(trace=False)
        )
        assert status == 200
        status, error = http("GET", f"{service}/jobs/{body['job_id']}/trace")
        assert status == 404
        assert "trace" in error["error"]

    def test_unknown_job_views_are_404(self, service):
        assert http("GET", f"{service}/jobs/nope/trace")[0] == 404
        assert http("GET", f"{service}/jobs/nope/progress")[0] == 404
        assert http("GET", f"{service}/jobs/nope/bogus")[0] == 404


class TestLiveProgress:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_states_visited_advances_monotonically(self, service, backend):
        status, body = http("POST", f"{service}/mine", slow_request(backend))
        assert status == 202
        job_id = body["job_id"]
        url = f"{service}/jobs/{job_id}/progress"
        samples = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, progress = http("GET", url)
            assert status == 200
            if progress["status"] in ("done", "timeout", "error"):
                break
            if progress["progress"] is not None:
                samples.append(progress["progress"]["states_visited"])
            time.sleep(0.05)
        status, final = http("GET", f"{service}/jobs/{job_id}")
        assert final["status"] == "done"
        assert len(samples) >= 2, "expected live snapshots while running"
        assert samples == sorted(samples)
        assert samples[-1] > samples[0]

    def test_progress_payload_shape(self, service):
        status, body = http("POST", f"{service}/mine", slow_request("python"))
        assert status == 202
        job_id = body["job_id"]
        progress = wait_for(
            lambda: http("GET", f"{service}/jobs/{job_id}/progress")[1]
            .get("progress")
        )
        assert set(progress) == {
            "states_visited", "bound_cuts", "best_chi_square",
            "kernel_batches", "elapsed_seconds",
        }
        wait_for(
            lambda: http("GET", f"{service}/jobs/{job_id}")[1]["status"]
            == "done"
        )


class TestWorkerMetricsAggregation:
    def test_prometheus_format_and_pool_series(self, service):
        http("POST", f"{service}/mine", quick_request())
        status, text = http("GET", f"{service}/metricsz?format=prometheus")
        assert status == 200
        assert isinstance(text, str)
        assert "# TYPE repro_service_cache_hits counter" in text
        assert "repro_service_workers_alive 2" in text
        assert 'repro_service_jobs{status="done"}' in text

    def test_bad_format_is_rejected(self, service):
        status, body = http("GET", f"{service}/metricsz?format=yaml")
        assert status == 400

    def test_worker_search_metrics_merge_into_parent_registry(self):
        from repro.telemetry import telemetry_session

        with telemetry_session() as (_, metrics):
            with MiningService(port=0, workers=1, cache_size=4) as svc:
                host, port = svc.address
                status, body = http(
                    "POST", f"http://{host}:{port}/mine", quick_request()
                )
                assert status == 200
                wait_for(
                    lambda: "search.states_visited" in metrics.names()
                )
                snapshot = metrics.snapshot()
                assert snapshot["search.states_visited"] > 0
                assert snapshot["telemetry.registry_merges"] >= 1
                assert snapshot["telemetry.spans_merged"] > 0
                assert snapshot["service.traces_persisted"] >= 1
                # Cache counters are pool counters: no worker session
                # records them, so the merge cannot double count them.
                assert not any(
                    name.startswith(("service.cache.", "service.diskcache."))
                    for name in metrics.names()
                )
                text = svc.prometheus_metrics()
                assert "repro_search_states_visited" in text


class TestHealthzWorkerDetail:
    def test_per_worker_liveness_fields(self, service):
        status, body = http("GET", f"{service}/healthz")
        assert status == 200
        detail = body["pool"]["worker_detail"]
        assert len(detail) == 2
        for worker in detail:
            assert worker["alive"] is True
            assert worker["state"] in ("busy", "idle")
            assert isinstance(worker["pid"], int)
            assert worker["seconds_since_heartbeat"] is not None


class TestCrashResilience:
    def test_trace_ids_survive_worker_crash_and_respawn(self):
        with MiningService(port=0, workers=1, cache_size=4) as svc:
            host, port = svc.address
            base = f"http://{host}:{port}"
            status, body = http(
                "POST", f"{base}/mine", slow_request("python"),
                headers={"X-Trace-Id": "deadbeef00000001"},
            )
            assert status == 202
            victim_id = body["job_id"]
            wait_for(
                lambda: http("GET", f"{base}/jobs/{victim_id}")[1]["status"]
                == "running"
            )
            pid = svc.manager.stats()["worker_detail"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            wait_for(
                lambda: http("GET", f"{base}/jobs/{victim_id}")[1]["status"]
                == "error"
            )
            # The failed job keeps its trace id; no artifact exists.
            status, victim = http("GET", f"{base}/jobs/{victim_id}")
            assert victim["trace_id"] == "deadbeef00000001"
            assert victim["trace_available"] is False
            # The respawned worker still traces new jobs end to end.
            status, body = http(
                "POST", f"{base}/mine", quick_request(),
                headers={"X-Trace-Id": "deadbeef00000002"},
            )
            assert status == 200
            job_id = body["job_id"]
            status, trace = wait_for(
                lambda: (lambda r: r if r[0] == 200 else None)(
                    http("GET", f"{base}/jobs/{job_id}/trace")
                )
            )
            assert trace["trace_id"] == "deadbeef00000002"
            assert any(
                r.get("name") == "service.job" for r in trace["records"]
            )
