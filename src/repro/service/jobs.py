"""Job queue and multiprocessing worker pool for the mining service.

Mining is CPU-bound, so the service runs jobs in worker *processes* (a
``spawn`` multiprocessing context — the only start method that is safe
under the threaded HTTP server and portable across platforms).  The
manager side owns:

* a **bounded FIFO backlog** — submissions beyond ``queue_size`` raise
  :class:`~repro.exceptions.BackpressureError` immediately instead of
  building an unbounded queue (the server maps this to HTTP 503).  Each
  idle worker takes the backlog head, one job at a time;
* **per-job deadlines** — an absolute wall-clock instant stamped at
  submission (so time spent queued counts).  Workers poll it through the
  ``check_abort`` hook of :func:`repro.core.solver.mine`, turning an
  overrun into a structured ``timeout`` result while the worker survives
  to take the next job;
* **crash detection and respawn** — every job handed to a worker is
  tracked from *dispatch*, not from the worker's ``started`` announcement:
  if a worker dies mid-job the announced job fails with the dead pid, and
  a job that was dispatched but never announced is requeued (first death)
  or failed (repeated deaths) — a crash can never strand a job in
  ``queued`` with its queue slot leaked.  Dead workers are replaced
  (counted as ``service.workers_respawned``).

Each worker reports over its own one-way pipe, so no two processes share
a result channel: killing one worker (which the pool does by design on a
crash) can never corrupt the channel of another.  The collector waits on
every worker's pipe and process sentinel at once, so a death is noticed
as soon as it happens.

Each worker process owns a private :class:`~repro.service.cache.
SuperGraphCache`; with a shared ``--cache-dir`` its memory LRU sits over
the shared on-disk tier, so respawned workers and sibling replicas start
warm.  Workers ship their cache-counter deltas back with every result;
the manager sums them into one counter dict that ``stats()`` and both
``GET /metricsz`` formats read.  Requests that reference a registered
graph (``graph_digest``) are resolved against the shared
:class:`~repro.service.registry.GraphRegistry` inside the worker, which
seeds the digest memo with the registry's stored digests — a resolved
job never re-hashes its instance.

The pool is also the service's distributed-telemetry backbone.  Unless a
request opts out (``"trace": false``), the worker runs each job under its
own telemetry session with a ``service.job`` root span carrying the
request's ``trace_id``; the finished session is captured with
:func:`~repro.telemetry.context.capture_session` and ships back with the
terminal message, where the manager persists it as a per-job JSONL trace
artifact (``GET /jobs/<id>/trace`` reads it back from disk) and folds the
worker's metrics into the parent registry.  While the search runs,
workers stream :class:`~repro.telemetry.progress.SearchProgress`
heartbeats over the same pipe (``GET /jobs/<id>/progress``); every
message doubles as a liveness heartbeat for the per-worker detail in
``GET /healthz``.

Job memory is bounded: a finished job drops its request document, keeps
no trace records in memory, and only the newest
:data:`MAX_FINISHED_JOBS` finished jobs are kept at all — an older id is
unknown again, and its trace artifact is deleted.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import shutil
import tempfile
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any

from repro.core.solver import mine
from repro.exceptions import (
    BackpressureError,
    ReproError,
    SearchAbortedError,
    ServiceError,
)
from repro.service.cache import (
    COUNTERS as CACHE_COUNTERS,
    DEFAULT_MAX_BYTES,
    SuperGraphCache,
)
from repro.service.protocol import build_instance, result_to_payload
from repro.service.registry import GraphRegistry
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry import telemetry_session
from repro.telemetry.context import (
    capture_session,
    new_trace_id,
    payload_records,
)
from repro.telemetry.progress import SearchProgress
from repro.telemetry.span import write_trace_records

__all__ = ["DEFAULT_QUEUE_SIZE", "Job", "JobManager", "MAX_FINISHED_JOBS"]

DEFAULT_QUEUE_SIZE = 64
"""Default bound on queued-but-unstarted jobs before submissions are
rejected with backpressure."""

MAX_FINISHED_JOBS = 512
"""Finished jobs the manager keeps for lookup; finishing one more evicts
the oldest-finished job, whose id then reads as unknown.  Bounds the
job table of a long-running service (queued and running jobs are never
evicted: ``queue_size`` bounds those)."""

_POLL_SECONDS = 0.2

_MAX_DISPATCH_ATTEMPTS = 2
"""A job re-dispatched after this many worker deaths fails instead of
being requeued again (it is probably what is killing the workers)."""


@dataclass(slots=True)
class Job:
    """One mining job tracked by the manager.

    ``status`` walks ``queued -> running -> done | timeout | error``; the
    terminal payload lands in ``result`` (for ``done``) or ``error`` (a
    message, for ``timeout``/``error``).  ``wait()`` blocks until the job
    reaches a terminal status.  ``request`` is dropped (set to None) once
    it does; the job's trace lives only in its artifact at ``trace_path``.
    """

    id: str
    request: dict[str, Any] | None = field(repr=False)
    deadline: float | None = None
    status: str = "queued"
    result: dict[str, Any] | None = field(default=None, repr=False)
    error: str | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    worker_pid: int | None = None
    trace_id: str = ""
    dispatch_attempts: int = 0
    progress: dict[str, Any] | None = field(default=None, repr=False)
    trace_path: str | None = None
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; True iff it reached a terminal state."""
        return self._done.wait(timeout)

    def to_payload(self) -> dict[str, Any]:
        """JSON-able public view of the job (what ``GET /jobs/<id>`` returns)."""
        payload: dict[str, Any] = {
            "job_id": self.id,
            "status": self.status,
            "trace_id": self.trace_id,
            "trace_available": self.trace_path is not None,
        }
        if self.deadline is not None:
            payload["deadline_seconds_left"] = max(
                0.0, self.deadline - time.time()
            )
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def progress_payload(self) -> dict[str, Any]:
        """What ``GET /jobs/<id>/progress`` returns for this job."""
        return {
            "job_id": self.id,
            "status": self.status,
            "trace_id": self.trace_id,
            "progress": self.progress,
        }


def _execute_request(
    request: dict[str, Any],
    cache: SuperGraphCache | None,
    deadline: float | None,
    progress: Any = None,
    registry: GraphRegistry | None = None,
) -> dict[str, Any]:
    """Run one validated mining request; returns its result payload.

    The body of a worker's job, kept separate from the worker loop so
    tests can run it in-process.  Raises :class:`SearchAbortedError` on
    deadline overrun and :class:`~repro.exceptions.ServiceError` for
    unresolvable ``graph_digest`` references.
    """
    if request.get("graph_digest"):
        if registry is None:
            raise ServiceError(
                "this pool has no graph registry — submit the instance "
                "inline instead of by graph_digest"
            )
        graph, labeling = registry.resolve(request["graph_digest"])
    else:
        graph, labeling = build_instance(request)
    check_abort = None
    if deadline is not None:
        check_abort = lambda: time.time() >= deadline  # noqa: E731
        if check_abort():
            raise SearchAbortedError("the job deadline expired while queued")
    result = mine(
        graph, labeling, **request["params"],
        check_abort=check_abort, prefix_cache=cache, progress=progress,
    )
    return result_to_payload(result)


class _ProgressPublisher:
    """Forwards a worker's progress snapshots onto its result pipe.

    The solver's internal aggregator already throttles to ~10 snapshots a
    second, so every received snapshot is sent as one small message.  The
    collector reads every pipe continuously, so a send waits only while
    the collector is behind — and the pipe is ordered, so no heartbeat
    can overtake its job's terminal message.
    """

    __slots__ = ("_results",)

    def __init__(self, results: Connection) -> None:
        self._results = results

    def __call__(self, snapshot: SearchProgress) -> None:
        self._results.send({"kind": "progress", "body": snapshot.to_payload()})


def _worker_main(
    tasks: "mp.queues.Queue",
    results: Connection,
    cache_size: int,
    cache_dir: str | None = None,
    cache_bytes: int | None = DEFAULT_MAX_BYTES,
    registry_dir: str | None = None,
) -> None:
    """Worker process loop: announce, execute, report, repeat.

    Runs in the child process — keep it importable at module level so the
    ``spawn`` start method can pickle it.  ``tasks`` is this worker's
    *private* queue, fed one job at a time, and ``results`` the write end
    of its own pipe.  The prefix cache lives for the worker's lifetime —
    in-memory only by default, tiered over the shared on-disk store when
    ``cache_dir`` is set.

    Messages are dicts ``{"kind", "body", ...}``; the terminal kinds
    (``done``/``timeout``/``error``) additionally carry the cache counter
    ``delta`` (keyed by pool metric name) and, for traced jobs, the
    captured ``telemetry`` payload.
    """
    cache = SuperGraphCache(
        cache_size, cache_dir=cache_dir, max_bytes=cache_bytes
    )
    registry = None if registry_dir is None else GraphRegistry(registry_dir)
    pid = mp.current_process().pid
    publisher = _ProgressPublisher(results)
    last = dict(cache.counters)
    while True:
        item = tasks.get()
        if item is None:
            break
        job_id = item["job_id"]
        request = item["request"]
        deadline = item["deadline"]
        trace_id = item["trace_id"]
        results.send({"kind": "started", "body": pid})
        telemetry_payload = None
        try:
            if request.get("trace", True):
                with telemetry_session() as (tracer, metrics):
                    try:
                        with tracer.span(
                            "service.job",
                            trace_id=trace_id, job_id=job_id, pid=pid,
                        ):
                            payload = _execute_request(
                                request, cache, deadline,
                                progress=publisher, registry=registry,
                            )
                    finally:
                        # Capture on every exit path: aborted/failed jobs
                        # still ship their partial spans and metrics.
                        telemetry_payload = capture_session(
                            tracer, metrics, trace_id=trace_id
                        )
            else:
                payload = _execute_request(
                    request, cache, deadline,
                    progress=publisher, registry=registry,
                )
            kind = "done"
            body: Any = payload
        except SearchAbortedError as exc:
            kind, body = "timeout", str(exc)
        except ReproError as exc:
            kind, body = "error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - workers must survive
            kind, body = "error", f"{type(exc).__name__}: {exc}"
        delta = {name: cache.counters[name] - last[name] for name in last}
        last = dict(cache.counters)
        results.send({
            "kind": kind,
            "body": body,
            "delta": delta,
            "telemetry": telemetry_payload,
        })


@dataclass(slots=True, eq=False)
class _Worker:
    """One pool process and everything the manager tracks about it.

    ``results`` is the read end of the worker's own one-way pipe (the
    worker holds the only write end, so end-of-file means it is gone).
    ``job`` is the one job the worker holds, from dispatch until its
    terminal message or the worker's death.
    """

    process: mp.process.BaseProcess
    tasks: "mp.queues.Queue"
    results: Connection
    job: Job | None = None
    last_heartbeat: float = field(default_factory=time.time)

    def close_channels(self) -> None:
        """Release both channels; never waits on a dead reader."""
        self.tasks.cancel_join_thread()
        self.tasks.close()
        self.results.close()


class JobManager:
    """Bounded job backlog feeding a self-healing worker pool.

    ``submit`` enqueues a validated request and returns a :class:`Job`
    handle immediately; each idle worker takes the backlog head, and a
    background collector thread applies worker messages to the handles
    and respawns crashed workers.  ``close`` drains the pool and fails
    every job that has not reached a terminal state — a waiter can never
    hang across shutdown.  All public methods are thread-safe (the HTTP
    server calls them from many handler threads).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache_size: int = 32,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_deadline: float | None = None,
        trace_dir: str | Path | None = None,
        cache_dir: str | Path | None = None,
        cache_bytes: int | None = DEFAULT_MAX_BYTES,
        registry_dir: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ServiceError(f"queue_size must be >= 1, got {queue_size}")
        self.default_deadline = default_deadline
        self._cache_size = cache_size
        self._queue_size = queue_size
        self._trace_dir = None if trace_dir is None else Path(trace_dir)
        self._own_trace_dir = False
        self._cache_dir = None if cache_dir is None else str(cache_dir)
        self._cache_bytes = cache_bytes
        self._registry_dir = None if registry_dir is None else str(registry_dir)
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()  # finished job ids, oldest first
        self._pending = 0  # queued + running, bounded by queue_size
        self._backlog: deque[Job] = deque()
        self._closed = False
        # The pool's counters, by metric name: the sum of every worker's
        # cache deltas, plus respawns.
        self._counters = dict.fromkeys(
            (*CACHE_COUNTERS, _metric.SERVICE_WORKERS_RESPAWNED), 0
        )
        self._workers = [self._spawn_worker() for _ in range(workers)]
        self._collector = threading.Thread(
            target=self._collect, name="repro-service-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle -----------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        tasks: mp.queues.Queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                tasks, writer, self._cache_size,
                self._cache_dir, self._cache_bytes, self._registry_dir,
            ),
            # Daemonic: a parent that exits without calling close() has
            # multiprocessing terminate its workers instead of joining them.
            daemon=True,
        )
        process.start()
        writer.close()  # the child now holds the only write end
        return _Worker(process, tasks, reader)

    def trace_dir(self) -> Path:
        """The directory job trace artifacts are written to (lazily created)."""
        with self._lock:
            if self._trace_dir is None:
                self._trace_dir = Path(
                    tempfile.mkdtemp(prefix="repro-job-traces-")
                )
                self._own_trace_dir = True
            self._trace_dir.mkdir(parents=True, exist_ok=True)
            return self._trace_dir

    def close(self, timeout: float = 5.0) -> None:
        """Stop the collector, terminate every worker, fail open jobs.

        Every job that has not reached a terminal state — backlogged,
        dispatched, or running — is failed with a "service shutting down"
        error and its ``_done`` event set, so no ``Job.wait()`` caller can
        block past shutdown.  A trace directory the manager created itself
        is removed with its artifacts; one passed as ``trace_dir`` stays.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._backlog.clear()
            for job in list(self._jobs.values()):
                if job.status in ("queued", "running"):
                    self._finish(job, "error", "service shutting down")
            workers = list(self._workers)
        for worker in workers:
            worker.tasks.put(None)
        deadline = time.time() + timeout
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.time()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        self._collector.join(timeout=2.0)
        for worker in workers:
            worker.close_channels()
        with self._lock:
            if self._own_trace_dir:
                shutil.rmtree(self._trace_dir, ignore_errors=True)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission / lookup -------------------------------------------
    def submit(
        self,
        request: dict[str, Any],
        *,
        deadline_seconds: float | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Enqueue a validated request; returns the job handle.

        ``trace_id`` propagates the HTTP request's trace id into the
        worker (one is generated when absent), so the job's span tree
        roots under the id the client saw.  Raises
        :class:`~repro.exceptions.BackpressureError` when ``queue_size``
        jobs are already queued or running.
        """
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline
        now = time.time()
        deadline = None if deadline_seconds is None else now + deadline_seconds
        job = Job(
            id=uuid.uuid4().hex[:12],
            request=request,
            deadline=deadline,
            submitted_at=now,
            trace_id=trace_id or new_trace_id(),
        )
        with self._lock:
            if self._closed:
                raise ServiceError("the job manager is closed")
            if self._pending >= self._queue_size:
                self._count(_metric.SERVICE_QUEUE_REJECTIONS)
                raise BackpressureError(
                    f"job queue is full ({self._queue_size} jobs in flight)"
                )
            self._pending += 1
            self._jobs[job.id] = job
            self._backlog.append(job)
            self._dispatch_locked()
        self._count(_metric.SERVICE_JOBS_SUBMITTED)
        return job

    def get(self, job_id: str) -> Job | None:
        """The job with this id, or None (also once it has been evicted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        """Pool statistics for ``GET /healthz`` / ``GET /metricsz``."""
        now = time.time()
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            worker_detail = [
                {
                    "pid": worker.process.pid,
                    "alive": worker.process.is_alive(),
                    "state": "idle" if worker.job is None else "busy",
                    "job_id": None if worker.job is None else worker.job.id,
                    "seconds_since_heartbeat": round(
                        max(0.0, now - worker.last_heartbeat), 3
                    ),
                }
                for worker in self._workers
            ]
            return {
                "workers": len(self._workers),
                "workers_alive": sum(d["alive"] for d in worker_detail),
                "workers_respawned":
                    self._counters[_metric.SERVICE_WORKERS_RESPAWNED],
                "worker_detail": worker_detail,
                "jobs_in_flight": self._pending,
                "backlog": len(self._backlog),
                "queue_size": self._queue_size,
                "jobs_by_status": dict(sorted(by_status.items())),
                "counters": dict(self._counters),
            }

    # -- dispatch ------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Hand the backlog head to each idle worker (caller holds the lock)."""
        if self._closed:
            return
        for worker in self._workers:
            if not self._backlog:
                return
            if worker.job is not None or not worker.process.is_alive():
                continue
            job = worker.job = self._backlog.popleft()
            job.dispatch_attempts += 1
            worker.tasks.put({
                "job_id": job.id,
                "request": job.request,
                "deadline": job.deadline,
                "trace_id": job.trace_id,
            })

    # -- collector -----------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        # MetricsRegistry is internally locked; no manager lock needed.
        if value and _TELEMETRY.enabled:
            _TELEMETRY.metrics.count(name, value)

    def _collect(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                handles: dict[Any, _Worker] = {}
                for worker in self._workers:
                    handles[worker.results] = worker
                    handles[worker.process.sentinel] = worker
            ready = wait(list(handles), timeout=_POLL_SECONDS)
            for worker in dict.fromkeys(handles[handle] for handle in ready):
                self._serve(worker)

    def _serve(self, worker: _Worker) -> None:
        """Apply every message waiting on ``worker``'s pipe; reap it if dead.

        A dying worker's last messages are drained before the reap, so a
        job it finished is never failed, and a pipe at end-of-file means
        the worker can report nothing more.
        """
        try:
            while worker.results.poll():
                self._apply(worker, worker.results.recv())
        except (EOFError, OSError):
            pass
        else:
            if worker.process.is_alive():
                return
        self._reap(worker)

    def _apply(self, worker: _Worker, message: dict[str, Any]) -> None:
        # A worker only sends while it holds the job it was handed.
        kind = message["kind"]
        job = worker.job
        telemetry = message.get("telemetry")
        if telemetry is not None:
            self._absorb_telemetry(job, telemetry)
        with self._lock:
            worker.last_heartbeat = time.time()
            if kind == "started":
                if job.status == "queued":
                    job.status = "running"
                job.worker_pid = message["body"]
            elif kind == "progress":
                if job.status == "running":
                    job.progress = message["body"]
            else:
                for name, value in message["delta"].items():
                    self._counters[name] += value
                worker.job = None
                self._finish(job, kind, message["body"])
                self._dispatch_locked()
        if kind == "progress":
            self._count(_metric.SERVICE_PROGRESS_UPDATES)

    def _absorb_telemetry(self, job: Job, payload: dict[str, Any]) -> None:
        """Persist a job's captured telemetry and fold it into the parent.

        The job's trace records are written as its artifact, whether or
        not telemetry is enabled in the *parent* process — the worker
        already paid for them, and ``GET /jobs/<id>/trace`` should work
        either way; they are not kept in memory.  The registry merge is
        gated on the parent's telemetry state.
        """
        records = payload_records(payload, job_id=job.id)
        try:
            path = self.trace_dir() / f"{job.id}.jsonl"
            job.trace_path = str(write_trace_records(path, records))
            self._count(_metric.SERVICE_TRACES_PERSISTED)
        except ReproError:  # pragma: no cover - disk full etc.
            job.trace_path = None
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.merge_records(payload["metrics"])
            self._count(_metric.TELEMETRY_REGISTRY_MERGES)
            self._count(
                _metric.TELEMETRY_SPANS_MERGED, len(payload.get("spans", ()))
            )

    def _finish(self, job: Job, kind: str, body: Any) -> None:
        # Caller holds the lock.
        if job.status in ("done", "timeout", "error"):
            return
        job.status = kind
        job.finished_at = time.time()
        if kind == "done":
            job.result = body
        else:
            job.error = body
        job.request = None
        self._pending -= 1
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            evicted = self._jobs.pop(self._finished.popleft())
            if evicted.trace_path is not None:
                with contextlib.suppress(OSError):
                    Path(evicted.trace_path).unlink()
        job._done.set()
        if _TELEMETRY.enabled:
            metric = {
                "done": _metric.SERVICE_JOBS_COMPLETED,
                "timeout": _metric.SERVICE_JOBS_TIMEOUT,
                "error": _metric.SERVICE_JOBS_FAILED,
            }[kind]
            _TELEMETRY.metrics.count(metric)

    def _reap(self, worker: _Worker) -> None:
        """Settle a dead worker's job and start its replacement.

        An announced job fails with the dead pid.  A job dispatched but
        never announced goes back to the backlog head once; a second death
        fails it (it is probably what is killing the workers).
        """
        with self._lock:
            if self._closed:
                return
            process = worker.process
            if process.is_alive():  # its pipe broke: finish it off
                process.kill()
            process.join(1.0)
            worker.close_channels()
            self._workers.remove(worker)
            job = worker.job
            if job is not None and job.status == "running":
                self._finish(
                    job, "error",
                    f"worker process {process.pid} died "
                    f"(exit code {process.exitcode})",
                )
            elif job is not None and job.status == "queued":
                if job.dispatch_attempts >= _MAX_DISPATCH_ATTEMPTS:
                    self._finish(
                        job, "error",
                        f"worker process {process.pid} died before the job "
                        f"started ({job.dispatch_attempts} dispatch "
                        "attempts)",
                    )
                else:
                    self._backlog.appendleft(job)
            self._counters[_metric.SERVICE_WORKERS_RESPAWNED] += 1
            self._workers.append(self._spawn_worker())
            self._dispatch_locked()
