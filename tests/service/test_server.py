"""End-to-end HTTP tests for the mining service.

Real sockets, real worker processes — marked ``service``.
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlsplit

import pytest

from repro.cli import main
from repro.core.solver import mine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.protocol import result_to_payload
from repro.service import server as server_module
from repro.service.server import MiningService
from repro.telemetry.exposition import prometheus_name
from conftest import service_cache_dir_from_env

pytestmark = pytest.mark.service

EDGES = [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [4, 5], [3, 5]]
ASSIGNMENT = {"0": 1, "1": 1, "2": 1, "3": 0, "4": 0, "5": 0}
REQUEST = {
    "graph": {"edges": EDGES},
    "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
               "symbols": ["common", "rare"], "assignment": ASSIGNMENT},
    "params": {"top_t": 2, "n_theta": 10},
}


def http(method, url, doc=None, timeout=60):
    """One JSON request; returns (status, decoded body)."""
    data = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def service():
    with MiningService(
        port=0, workers=2, cache_size=8,
        cache_dir=service_cache_dir_from_env(),
    ) as svc:
        host, port = svc.address
        yield f"http://{host}:{port}"
        # context manager stops the server and reaps the workers


class TestMineEndpoint:
    def test_concurrent_requests_match_direct_mine(self, service):
        graph = Graph.from_edges([(u, v) for u, v in EDGES])
        labeling = DiscreteLabeling(
            (0.8, 0.2), {int(k): v for k, v in ASSIGNMENT.items()},
            symbols=["common", "rare"],
        )
        direct = result_to_payload(mine(graph, labeling, top_t=2, n_theta=10))

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(
                lambda _: http("POST", service + "/mine", REQUEST), range(8)
            ))
        for status, body in responses:
            assert status == 200
            assert body["status"] == "done"
            assert body["result"]["subgraphs"] == direct["subgraphs"]

        status, body = http("GET", service + "/metricsz")
        assert status == 200
        # 8 identical jobs over 2 workers: at least one repeat per pigeonhole.
        assert body["metrics"]["service.cache.hits"] >= 1
        assert body["metrics"]["service.cache.misses"] >= 1

    def test_trace_id_present(self, service):
        status, body = http("POST", service + "/mine", REQUEST)
        assert status == 200
        assert len(body["trace_id"]) == 16

    def test_deadline_timeout_is_504_and_pool_survives(self, service):
        slow = {
            "graph": {"edges": [
                [u, v] for u in range(40) for v in range(u + 1, 40)
                if (u + v) % 7 != 0
            ]},
            "labels": {"type": "discrete", "probabilities": [0.5, 0.5],
                       "assignment": {str(v): v % 2 for v in range(40)}},
            "params": {"method": "naive"},
            "deadline_seconds": 0.5,
        }
        status, body = http("POST", service + "/mine", slow)
        assert status == 504
        assert body["status"] == "timeout"
        assert "error" in body
        status, body = http("POST", service + "/mine", REQUEST)
        assert status == 200
        assert body["status"] == "done"


class TestValidation:
    def test_non_json_body_is_400(self, service, capsys):
        bodies = (
            b"this is not json",
            b'{"graph": "\xff"}',  # not UTF-8
            b"[" * 200_000,  # nested past the recursion limit
        )
        for method, route in (("POST", "/mine"), ("PUT", "/graphs")):
            for body in bodies:
                request = urllib.request.Request(
                    service + route, data=body, method=method
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 400, (route, body[:20])
                assert "error" in json.loads(excinfo.value.read())
        assert capsys.readouterr().err == ""

    def test_schema_violations_are_400(self, service):
        for doc in (
            {"labels": REQUEST["labels"]},                      # no graph
            {"graph": {"edges": []}, "labels": {"type": "nope"}},
            dict(REQUEST, params={"top_t": 0}),
            dict(REQUEST, params={"prune": "psychic"}),
            dict(REQUEST, unknown_field=1),
            dict(REQUEST, deadline_seconds=-1),
        ):
            status, body = http("POST", service + "/mine", doc)
            assert status == 400, doc
            assert "error" in body

    def test_unknown_routes_are_404(self, service):
        assert http("GET", service + "/nope")[0] == 404
        assert http("POST", service + "/nope", {})[0] == 404
        assert http("GET", service + "/jobs/unknown")[0] == 404

    def test_oversized_body_is_413(self):
        with MiningService(
            port=0, workers=1, max_request_bytes=200
        ) as small:
            host, port = small.address
            status, body = http(
                "POST", f"http://{host}:{port}/mine", REQUEST
            )
            assert status == 413

    @pytest.mark.parametrize("method, path", [("POST", "/mine"),
                                              ("PUT", "/graphs")])
    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(
        self, service, capsys, method, path, length
    ):
        host, port = urlsplit(service).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                assert chunk, "connection closed without a response"
                response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            size = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(body) < size:
                body += sock.recv(4096)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method, path", [("POST", "/mine"),
                                              ("PUT", "/graphs")])
    def test_short_body_then_close_is_quiet(
        self, service, capsys, method, path
    ):
        # The client announces 100 bytes, sends 5 and hangs up: the
        # server must drop the request without a reply (writing one to
        # the closed socket fails) and print nothing.
        host, port = urlsplit(service).netloc.split(":")
        for _ in range(5):
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(
                    f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                    "Content-Length: 100\r\n\r\n{\"gra".encode()
                )
        time.sleep(0.5)
        assert http("GET", service + "/healthz")[0] == 200
        assert capsys.readouterr().err == ""

    def test_stalled_body_closes_the_connection(self, service, monkeypatch):
        # A client that stops sending mid-body must not hold a handler
        # thread: after the read timeout the server hangs up.
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.2,
                            raising=False)
        host, port = urlsplit(service).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                f"POST /mine HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Length: 100\r\n\r\n{\"gra".encode()
            )
            assert sock.recv(4096) == b""
        assert http("GET", service + "/healthz")[0] == 200

    def test_stalled_head_closes_the_connection(
        self, service, capsys, monkeypatch
    ):
        # A client that never finishes its request head must not hold a
        # handler thread either: the same read timeout covers the head.
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.2,
                            raising=False)
        host, port = urlsplit(service).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /mine HTTP/1.1\r\nHost: {host}\r\n".encode())
            assert sock.recv(4096) == b""
        assert http("GET", service + "/healthz")[0] == 200
        assert capsys.readouterr().err == ""


class TestAsyncJobs:
    def test_async_flow(self, service):
        status, body = http(
            "POST", service + "/mine", dict(REQUEST, **{"async": True})
        )
        assert status == 202
        job_id = body["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, body = http("GET", f"{service}/jobs/{job_id}")
            assert status == 200
            if body["status"] in ("done", "timeout", "error"):
                break
            time.sleep(0.05)
        assert body["status"] == "done"
        assert body["result"]["subgraphs"]


class TestGraphRegistryEndpoints:
    DOCUMENT = {
        "graph": {"edges": EDGES},
        "labels": REQUEST["labels"],
        "vertex_type": "int",
    }

    def test_put_then_mine_by_digest_matches_inline(self, service):
        status, body = http("PUT", service + "/graphs", self.DOCUMENT)
        assert status in (200, 201)
        digest = body["graph_digest"]
        assert len(digest) == 64
        assert body["vertices"] == 6

        status, info = http("GET", f"{service}/graphs/{digest}")
        assert status == 200
        assert info["edges"] == len(EDGES)

        by_digest = {"graph_digest": digest, "params": REQUEST["params"]}
        status, digest_body = http("POST", service + "/mine", by_digest)
        assert status == 200
        status, inline_body = http("POST", service + "/mine", REQUEST)
        assert status == 200
        assert (digest_body["result"]["subgraphs"]
                == inline_body["result"]["subgraphs"])

    def test_repeat_upload_is_idempotent(self, service):
        status1, first = http("PUT", service + "/graphs", self.DOCUMENT)
        status2, second = http("PUT", service + "/graphs", self.DOCUMENT)
        assert status2 == 200
        assert second["created"] is False
        assert second["graph_digest"] == first["graph_digest"]

    def test_unknown_digest_fails_fast_with_404(self, service):
        status, body = http(
            "POST", service + "/mine",
            {"graph_digest": "0" * 64, "params": {"top_t": 1}},
        )
        assert status == 404
        assert "PUT /graphs" in body["error"]
        assert http("GET", service + "/graphs/" + "0" * 64)[0] == 404

    def test_invalid_record_is_404_at_submission(self, tmp_path):
        """Regression: submission only checked that the record file
        existed, so a record missing a key passed it, and the worker's
        resolve then failed the request with a 500."""
        with MiningService(port=0, workers=1, cache_dir=str(tmp_path)) as svc:
            host, port = svc.address
            base = f"http://{host}:{port}"
            digest = http("PUT", base + "/graphs", self.DOCUMENT)[1]["graph_digest"]
            path = tmp_path / "graphs" / f"{digest}.json"
            record = json.loads(path.read_text())
            del record["labeling_key"]
            path.write_text(json.dumps(record))
            status, body = http(
                "POST", base + "/mine",
                {"graph_digest": digest, "params": REQUEST["params"]},
            )
            assert status == 404
            assert "PUT /graphs" in body["error"]
            assert http("GET", f"{base}/graphs/{digest}")[0] == 404

    def test_invalid_upload_is_400(self, service):
        for doc in (
            {},
            {"graph": {"edges": EDGES}},                   # labels missing
            dict(self.DOCUMENT, params={"top_t": 1}),      # mine-only key
        ):
            status, body = http("PUT", service + "/graphs", doc)
            assert status == 400, doc
            assert "error" in body

    def test_unknown_put_route_is_404(self, service):
        assert http("PUT", service + "/nope", {})[0] == 404


class TestHealth:
    def test_healthz_reports_pool(self, service):
        status, body = http("GET", service + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["pool"]["workers_alive"] == 2

    def test_metricsz_has_pool_counters(self, service):
        status, body = http("GET", service + "/metricsz")
        assert status == 200
        for key in ("service.cache.hits", "service.cache.misses",
                    "service.cache.evictions", "service.workers_respawned",
                    "service.jobs_in_flight", "service.workers_alive",
                    "service.diskcache.hits", "service.diskcache.misses",
                    "service.diskcache.writes"):
            assert key in body["metrics"], key
        assert not any(k.startswith("service.batch.") for k in body["metrics"])

    def test_json_and_prometheus_agree_on_cache_counters(self, service):
        """Both /metricsz formats read the pool's one counter dict."""
        assert http("POST", service + "/mine", REQUEST)[0] == 200
        for _ in range(20):  # retry while another test's job lands
            before = http("GET", service + "/metricsz")[1]["metrics"]
            with urllib.request.urlopen(
                service + "/metricsz?format=prometheus", timeout=60
            ) as response:
                text = response.read().decode()
            after = http("GET", service + "/metricsz")[1]["metrics"]
            names = sorted(
                name for name in after
                if name.startswith(("service.cache.", "service.diskcache."))
            )
            if all(before[name] == after[name] for name in names):
                break
        assert len(names) == 8
        assert after["service.cache.hits"] + after["service.cache.misses"] > 0
        series = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if line and not line.startswith("#")
        )
        for name in names:
            assert float(series[prometheus_name(name)]) == after[name], name

    def test_disk_tier_counters_move_when_cache_dir_is_set(self, tmp_path):
        with MiningService(
            port=0, workers=1, cache_size=8, cache_dir=str(tmp_path)
        ) as svc:
            host, port = svc.address
            base = f"http://{host}:{port}"
            status, body = http("POST", base + "/mine", REQUEST)
            assert status == 200
            status, body = http("GET", base + "/metricsz")
            assert body["metrics"]["service.diskcache.writes"] >= 1
            assert body["metrics"]["service.diskcache.misses"] >= 1


def _canonical(payload):
    """The deterministic part of a payload: everything but the timings."""
    doc = json.loads(json.dumps(payload))
    doc["report"] = {
        key: value for key, value in doc["report"].items()
        if not key.endswith("_seconds")
    }
    return doc


class TestEntryPathsAgree:
    """One instance, four entry paths, byte-equal canonical payloads:
    the library, ``repro mine --json``, inline ``POST /mine`` and
    ``PUT /graphs`` + ``POST /mine`` by digest.  Int vertex names only."""

    @pytest.mark.parametrize("kind, params", [
        ("discrete", {"top_t": 3}),
        ("discrete", {"top_t": 3, "prune": "bounds"}),
        ("discrete", {"top_t": 3, "prune": "bounds", "correction": "fwer"}),
        ("continuous", {"top_t": 3}),
        ("continuous", {"top_t": 3, "prune": "bounds"}),
        # Binding: the unconstrained winner has 21 vertices.
        ("discrete", {"top_t": 3, "min_size": 25}),
    ])
    def test_payloads_match(self, service, tmp_path, capsys, kind, params):
        graph = barabasi_albert_graph(40, 2, seed=5)
        edges = [[u, v] for u, v in graph.edge_list()]
        rng = random.Random(5)
        if kind == "discrete":
            # The rare label on 0..11 (connected: BA vertices attach to
            # earlier ones) plants a region that survives FWER correction.
            values = {v: 2 if v < 12 else rng.randrange(3)
                      for v in graph.vertices()}
            labeling = DiscreteLabeling((0.5, 0.3, 0.2), values)
            labels = {"type": "discrete", "probabilities": [0.5, 0.3, 0.2],
                      "assignment": {str(v): x for v, x in values.items()}}
        else:
            values = {v: [rng.gauss(0, 1), rng.gauss(0, 1)]
                      for v in graph.vertices()}
            labeling = ContinuousLabeling(values)
            labels = {"type": "continuous",
                      "scores": {str(v): x for v, x in values.items()}}
        library = _canonical(result_to_payload(
            mine(Graph.from_edges(edges), labeling, **params)
        ))

        graph_file, labels_file = tmp_path / "g.txt", tmp_path / "l.json"
        graph_file.write_text("".join(f"{u} {v}\n" for u, v in edges))
        labels_file.write_text(json.dumps(labels))
        main([
            "mine", str(graph_file), str(labels_file), "--json",
            "--top", str(params["top_t"]),
            "--prune", params.get("prune", "none"),
            "--correct", params.get("correction", "none"),
            "--min-size", str(params.get("min_size", 1)),
        ])
        cli = json.loads(capsys.readouterr().out)
        for key in ("prune", "backend"):  # CLI-only report keys
            del cli["report"][key]

        document = {"graph": {"edges": edges}, "labels": labels}
        _, inline = http("POST", service + "/mine", dict(document, params=params))
        _, registered = http("PUT", service + "/graphs", document)
        _, by_digest = http("POST", service + "/mine", {
            "graph_digest": registered["graph_digest"], "params": params,
        })

        assert library["subgraphs"]
        assert _canonical(cli) == library
        assert _canonical(inline["result"]) == library
        assert _canonical(by_digest["result"]) == library
