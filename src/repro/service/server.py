"""HTTP front end of the mining service (stdlib ``ThreadingHTTPServer``).

Endpoints::

    POST /mine                 run a mining request (async=true -> 202 + job id)
    PUT  /graphs               register a graph+labeling under its content digest
    GET  /graphs/<digest>      metadata of a registered instance
    GET  /jobs/<id>            poll an async job
    GET  /jobs/<id>/progress   live search progress of a running job
    GET  /jobs/<id>/trace      the job's span/metric records (after finish)
    GET  /healthz              liveness + pool statistics (per-worker detail)
    GET  /metricsz             snapshot of the service metrics registry
    GET  /metricsz?format=prometheus   same, as Prometheus text exposition

``POST /mine`` accepts ``{"graph_digest": ...}`` in place of the inline
``graph``/``labels`` pair once the instance is registered — repeat clients
send a 64-byte key instead of re-uploading megabyte bodies.  An unknown
digest fails fast with 404 at submission (never inside a worker).

The handler threads only parse/validate and enqueue — all mining happens in
the :class:`~repro.service.jobs.JobManager` worker processes, so a slow
request never blocks the accept loop.  Responses are JSON throughout, carry
an ``X-Trace-Id`` header (also in the body as ``trace_id``), and map the
failure modes onto conventional codes: 400 invalid request, 404 unknown
route/job, 413 oversized body, 503 queue backpressure, 504 deadline
exceeded (with the structured timeout payload).

Clients may supply their own ``X-Trace-Id`` request header (1-64 word
characters/dashes); it is echoed back and, for ``POST /mine``, propagated
into the worker process so the job's whole span tree roots under the id
the client chose.  Every completed request is logged as one JSON line on
the ``repro.service.access`` logger (silent unless a handler is attached;
``repro serve --access-log`` attaches one).

Construct one with :class:`MiningService` and run it with ``serve_forever``
(or ``start()``/``shutdown()`` from tests); the CLI wraps this in
``repro serve``.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    BackpressureError,
    RequestValidationError,
    TelemetryError,
)
from repro.service.jobs import DEFAULT_QUEUE_SIZE, JobManager
from repro.service.cache import DEFAULT_MAX_BYTES
from repro.service.protocol import validate_request
from repro.service.registry import GraphRegistry
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry.context import new_trace_id
from repro.telemetry.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.span import read_trace_records

__all__ = ["DEFAULT_MAX_REQUEST_BYTES", "MiningService"]

_access_log = logging.getLogger("repro.service.access")

_TRACE_ID_RE = re.compile(r"^[\w-]{1,64}$")

DEFAULT_MAX_REQUEST_BYTES = 8 * 1024 * 1024
"""Reject request bodies above 8 MiB — far beyond any reasonable instance,
small enough to stop accidental multi-gigabyte uploads."""

READ_TIMEOUT_SECONDS = 30.0
"""Longest wait on any one read from a client socket — a request head, a
request body, or the next request on an idle keep-alive connection.  A
client that stalls past it is disconnected, freeing its thread."""

_SYNC_POLL_SECONDS = 30.0


class _BodyError(Exception):
    """A request body that cannot be read; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ClientGone(Exception):
    """The client hung up mid-body: no reply is possible."""


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning :class:`MiningService` is ``server.service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    @property
    def timeout(self) -> float:
        """The socket timeout ``StreamRequestHandler.setup`` applies to the
        connection: :data:`READ_TIMEOUT_SECONDS`.  A read past it raises
        ``TimeoutError``, on which ``handle_one_request`` closes the
        connection."""
        return READ_TIMEOUT_SECONDS

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default stderr access log (the service has metrics)."""

    def handle_one_request(self) -> None:
        """Serve one request; a client that goes away just ends the
        connection instead of reaching socketserver's traceback printer."""
        try:
            super().handle_one_request()
        except (_ClientGone, ConnectionError):
            self.close_connection = True

    @property
    def service(self) -> "MiningService":
        """The owning service instance."""
        return self.server.service  # type: ignore[attr-defined]

    def _request_trace_id(self) -> str:
        """The client's ``X-Trace-Id`` when well-formed, else a fresh id."""
        supplied = self.headers.get("X-Trace-Id", "")
        if supplied and _TRACE_ID_RE.match(supplied):
            return supplied
        return new_trace_id()

    def _send_json(
        self, status: int, payload: dict[str, Any], trace_id: str
    ) -> None:
        payload.setdefault("trace_id", trace_id)
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json", trace_id)

    def _send_body(
        self, status: int, body: bytes, content_type: str, trace_id: str
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        """The request body decoded as JSON (an empty body reads as null).

        Raises :class:`_BodyError`: 400 for a ``Content-Length`` that is
        not a non-negative integer or a body that is not JSON (not UTF-8,
        malformed, or nested past the recursion limit), 413 for one
        over the size limit.  The connection is closed after such an error,
        since any unread body would otherwise be parsed as the next request.
        Raises :class:`_ClientGone` for a body that ends early; a body
        that stalls past :data:`READ_TIMEOUT_SECONDS` raises
        ``TimeoutError`` from the socket read.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        limit = self.service.max_request_bytes
        if length < 0:
            self.close_connection = True
            raise _BodyError(400, f"invalid Content-Length {header!r}")
        if length > limit:
            self.close_connection = True
            raise _BodyError(413, f"request body exceeds {limit} bytes")
        raw = self.rfile.read(length)
        if len(raw) < length:
            self.close_connection = True
            raise _ClientGone()
        try:
            return json.loads(raw or b"null")
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError (a
            # body that is not UTF-8); RecursionError a body nested deeper
            # than the interpreter's recursion limit.
            self.close_connection = True
            raise _BodyError(400, f"request body is not JSON: {exc}") from None

    def _observe(self, started: float, trace_id: str) -> None:
        elapsed = time.monotonic() - started
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.count(_metric.SERVICE_REQUESTS_TOTAL)
            _TELEMETRY.metrics.observe(_metric.SERVICE_REQUEST_SECONDS, elapsed)
        if _access_log.isEnabledFor(logging.INFO):
            _access_log.info(json.dumps({
                "trace_id": trace_id,
                "method": self.command,
                "path": self.path,
                "status": getattr(self, "_status", 0),
                "duration_ms": round(elapsed * 1000.0, 3),
            }, sort_keys=True))

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route GET requests (jobs, healthz, metricsz)."""
        started = time.monotonic()
        trace_id = self._request_trace_id()
        parts = urlsplit(self.path)
        try:
            if parts.path == "/healthz":
                stats = self.service.manager.stats()
                status = 200 if stats["workers_alive"] > 0 else 503
                self._send_json(
                    status, {"status": "ok" if status == 200 else "degraded",
                             "pool": stats}, trace_id,
                )
            elif parts.path == "/metricsz":
                fmt = parse_qs(parts.query).get("format", ["json"])[0]
                if fmt == "prometheus":
                    self._send_body(
                        200,
                        self.service.prometheus_metrics().encode("utf-8"),
                        PROMETHEUS_CONTENT_TYPE,
                        trace_id,
                    )
                elif fmt == "json":
                    self._send_json(
                        200, {"metrics": self.service.metrics_snapshot()},
                        trace_id,
                    )
                else:
                    self._send_json(
                        400,
                        {"error": "format must be 'json' or 'prometheus', "
                                  f"got {fmt!r}"},
                        trace_id,
                    )
            elif parts.path.startswith("/jobs/"):
                self._get_job(parts.path[len("/jobs/"):], trace_id)
            elif parts.path.startswith("/graphs/"):
                digest = parts.path[len("/graphs/"):]
                info = self.service.registry.info(digest)
                if info is None:
                    self._send_json(
                        404, {"error": f"unknown graph digest {digest!r}"},
                        trace_id,
                    )
                else:
                    self._send_json(200, info, trace_id)
            else:
                self._send_json(404, {"error": "unknown route"}, trace_id)
        finally:
            self._observe(started, trace_id)

    def _get_job(self, tail: str, trace_id: str) -> None:
        """Dispatch ``/jobs/<id>``, ``/jobs/<id>/progress``, ``.../trace``."""
        job_id, _, view = tail.partition("/")
        job = self.service.manager.get(job_id)
        if job is None or view not in ("", "progress", "trace"):
            self._send_json(404, {"error": "unknown job id or view"}, trace_id)
        elif view == "progress":
            self._send_json(200, job.progress_payload(), trace_id)
        elif view == "trace":
            records = None
            if job.trace_path is not None:
                try:
                    records = read_trace_records(job.trace_path)
                except TelemetryError:
                    pass  # the artifact was removed or damaged: a 404
            if records is None:
                self._send_json(
                    404,
                    {"error": "no trace is available for this job (it is "
                              "still running, predates the trace store, or "
                              "was submitted with trace=false)",
                     "job_id": job.id, "status": job.status},
                    trace_id,
                )
            else:
                self._send_json(
                    200,
                    {"job_id": job.id, "status": job.status,
                     "trace_path": job.trace_path,
                     "records": records},
                    job.trace_id or trace_id,
                )
        else:
            self._send_json(200, job.to_payload(), trace_id)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        """Route PUT requests (/graphs)."""
        started = time.monotonic()
        trace_id = self._request_trace_id()
        try:
            if self.path != "/graphs":
                self._send_json(404, {"error": "unknown route"}, trace_id)
                return
            try:
                document = self._read_json_body()
            except _BodyError as exc:
                self._send_json(exc.status, {"error": str(exc)}, trace_id)
                return
            try:
                summary = self.service.registry.put_document(document)
            except RequestValidationError as exc:
                self._send_json(400, {"error": str(exc)}, trace_id)
                return
            if _TELEMETRY.enabled and summary["created"]:
                _TELEMETRY.metrics.count(_metric.SERVICE_GRAPHS_REGISTERED)
            self._send_json(200 if not summary["created"] else 201,
                            summary, trace_id)
        finally:
            self._observe(started, trace_id)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route POST requests (/mine)."""
        started = time.monotonic()
        trace_id = self._request_trace_id()
        try:
            if self.path != "/mine":
                self._send_json(404, {"error": "unknown route"}, trace_id)
                return
            try:
                request = validate_request(self._read_json_body())
            except _BodyError as exc:
                self._send_json(exc.status, {"error": str(exc)}, trace_id)
                return
            except RequestValidationError as exc:
                self._send_json(400, {"error": str(exc)}, trace_id)
                return
            digest = request.get("graph_digest")
            if digest is not None and self.service.registry.info(digest) is None:
                # Fail at submission, not inside a worker minutes later:
                # info() applies the same validity rule as resolve().
                self._send_json(
                    404,
                    {"error": f"unknown graph digest {digest!r} — upload "
                              "the instance with PUT /graphs first"},
                    trace_id,
                )
                return
            try:
                job = self.service.manager.submit(
                    request,
                    deadline_seconds=request["deadline_seconds"],
                    trace_id=trace_id,
                )
            except BackpressureError as exc:
                self._send_json(
                    503, {"error": str(exc), "retry_after_seconds": 1},
                    trace_id,
                )
                return
            if request["async"]:
                self._send_json(
                    202, {"job_id": job.id, "status": job.status}, trace_id
                )
                return
            while not job.wait(_SYNC_POLL_SECONDS):
                pass  # sync callers block until the job is terminal
            payload = job.to_payload()
            if job.status == "done":
                self._send_json(200, payload, trace_id)
            elif job.status == "timeout":
                self._send_json(504, payload, trace_id)
            else:
                self._send_json(500, payload, trace_id)
        finally:
            self._observe(started, trace_id)


class MiningService:
    """The assembled service: HTTP server + job manager + worker pool.

    Typical embedded use (tests, notebooks)::

        service = MiningService(port=0, workers=2)
        service.start()            # background thread
        ... requests against service.address ...
        service.stop()

    ``serve_forever()`` runs in the foreground for the CLI.  Always stop
    the service (or use it as a context manager) so the worker processes
    are reaped.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        cache_size: int = 32,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_deadline: float | None = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        trace_dir: str | None = None,
        cache_dir: str | None = None,
        cache_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        # The registry always exists (PUT /graphs works on every service);
        # without --cache-dir it lives in a throwaway directory that stop()
        # removes, so the registrations do not survive the service.
        self._own_registry_dir: str | None = None
        if cache_dir is not None:
            registry_dir = str(Path(cache_dir) / "graphs")
        else:
            registry_dir = tempfile.mkdtemp(prefix="repro-graph-registry-")
            self._own_registry_dir = registry_dir
        self.registry = GraphRegistry(registry_dir)
        self.manager = JobManager(
            workers=workers,
            cache_size=cache_size,
            queue_size=queue_size,
            default_deadline=default_deadline,
            trace_dir=trace_dir,
            cache_dir=cache_dir,
            cache_bytes=cache_bytes,
            registry_dir=registry_dir,
        )
        self.max_request_bytes = max_request_bytes
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when 0 was asked."""
        return self._httpd.server_address[:2]

    def metrics_snapshot(self) -> dict[str, Any]:
        """Service metrics for ``GET /metricsz``.

        When a telemetry session is active in this process its registry
        snapshot comes first; the pool counters (cache tiers aggregated
        across worker processes, respawns) and pool gauges are always
        present and win over registry entries of the same name, exactly
        as in :meth:`prometheus_metrics`.
        """
        stats = self.manager.stats()
        snapshot = _TELEMETRY.metrics.snapshot() if _TELEMETRY.enabled else {}
        snapshot.update(stats["counters"])
        snapshot.update({
            "service.graphs_registered_total": len(self.registry),
            "service.jobs_in_flight": stats["jobs_in_flight"],
            "service.jobs_by_status": stats["jobs_by_status"],
            "service.workers_alive": stats["workers_alive"],
        })
        return snapshot

    def prometheus_metrics(self) -> str:
        """``GET /metricsz?format=prometheus`` — the text exposition format.

        Exports every registry record (which, thanks to the collector's
        cross-process merge, aggregates the workers' ``search.*`` and
        ``solver.*`` metrics) plus the pool statistics; pool-level series
        win over registry entries of the same name so aggregated values
        are never exported twice.
        """
        stats = self.manager.stats()
        records = _TELEMETRY.metrics.to_records() if _TELEMETRY.enabled else None
        return render_prometheus(
            records,
            counters=stats["counters"],
            gauges={
                "service.jobs_in_flight": stats["jobs_in_flight"],
                "service.workers_alive": stats["workers_alive"],
                "service.graphs_registered_total": len(self.registry),
            },
            labeled={
                "service.jobs": ("status", stats["jobs_by_status"]),
            },
        )

    def start(self) -> None:
        """Serve on a daemon thread (returns immediately)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut down the HTTP server and drain the worker pool.

        Removes the temporary directories the service created itself (the
        graph registry without ``cache_dir``, the trace store without
        ``trace_dir``); directories passed in are left as they are.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.manager.close()
        if self._own_registry_dir is not None:
            shutil.rmtree(self._own_registry_dir, ignore_errors=True)
            self._own_registry_dir = None

    def __enter__(self) -> "MiningService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
