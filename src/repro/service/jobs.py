"""Job queue and multiprocessing worker pool for the mining service.

Mining is CPU-bound, so the service runs jobs in worker *processes* (a
``spawn`` multiprocessing context — the only start method that is safe
under the threaded HTTP server and portable across platforms).  The
manager side owns:

* a **bounded backlog with digest-grouped dispatch** — submissions beyond
  ``queue_size`` raise :class:`~repro.exceptions.BackpressureError`
  immediately instead of building an unbounded queue (the server maps
  this to HTTP 503).  Queued jobs that share a pipeline-prefix group key
  (same graph/labeling content and prefix parameters) are dispatched to
  the same worker back-to-back, so one construct + reduce warms the
  prefix cache for every search suffix behind it (``service.batch.*``
  metrics; the batch position is stamped onto each job's trace);
* **per-job deadlines** — an absolute wall-clock instant stamped at
  submission (so time spent queued counts).  Workers poll it through the
  ``check_abort`` hook of :func:`repro.core.solver.mine`, turning an
  overrun into a structured ``timeout`` result while the worker survives
  to take the next job;
* **crash detection and respawn** — every job handed to a worker is
  tracked from *dispatch*, not from the worker's ``started`` announcement:
  if a worker dies mid-job the announced job fails with the dead pid, and
  jobs that were dispatched but never announced are either requeued (first
  death) or failed (repeated deaths) — a crash can never strand a job in
  ``queued`` with its queue slot leaked.  Dead workers are replaced
  (counted as ``service.workers_respawned``).

Each worker process owns a private :class:`~repro.service.cache.
SuperGraphCache`; with a shared ``--cache-dir`` it is composed over a
:class:`~repro.service.diskcache.DiskPrefixCache` into a two-tier cache,
so respawned workers and sibling replicas start warm.  Workers ship their
cache-counter deltas back with every result; the manager folds them into
the shared metrics registry so ``GET /metricsz`` aggregates over the whole
pool.  Requests that reference a registered graph (``graph_digest``) are
resolved against the shared :class:`~repro.service.registry.GraphRegistry`
inside the worker, which primes the prefix cache with the registry's
precomputed digests — a resolved job never re-hashes its instance.

The pool is also the service's distributed-telemetry backbone.  Unless a
request opts out (``"trace": false``), the worker runs each job under its
own telemetry session with a ``service.job`` root span carrying the
request's ``trace_id``; the finished session is captured with
:func:`~repro.telemetry.context.capture_session` and ships back with the
terminal message, where the manager persists it as a per-job JSONL trace
artifact (``GET /jobs/<id>/trace``) and folds the worker's metrics into
the parent registry — skipping ``service.cache.*``/``service.diskcache.*``,
whose delta path above is authoritative.  While the search runs, workers
stream :class:`~repro.telemetry.progress.SearchProgress` heartbeats over
the same results queue (``GET /jobs/<id>/progress``); every message
doubles as a liveness heartbeat for the per-worker detail in
``GET /healthz``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import queue
import tempfile
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.solver import mine
from repro.exceptions import (
    BackpressureError,
    DigestError,
    ReproError,
    SearchAbortedError,
    ServiceError,
)
from repro.service.cache import SuperGraphCache
from repro.service.digest import prefix_digest_from_parts
from repro.service.diskcache import DiskPrefixCache, TieredPrefixCache
from repro.service.protocol import build_instance, result_to_payload
from repro.service.registry import GraphRegistry
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry import telemetry_session
from repro.telemetry.context import (
    capture_session,
    merge_payload_metrics,
    new_trace_id,
    payload_records,
    write_job_trace,
)
from repro.telemetry.progress import SearchProgress

__all__ = ["DEFAULT_QUEUE_SIZE", "Job", "JobManager"]

DEFAULT_QUEUE_SIZE = 64
"""Default bound on queued-but-unstarted jobs before submissions are
rejected with backpressure."""

_POLL_SECONDS = 0.2

MAX_BATCH_SIZE = 8
"""Cap on jobs dispatched to one worker per batch — enough to amortise a
construct + reduce many times over, small enough that one hot prefix group
cannot monopolise a worker while others idle."""

GROUP_AFFINITY_MAX_WAIT_SECONDS = 2.0
"""Backlog-head age beyond which a worker's warm-group preference is
ignored.  Without this bound, a continuously arriving hot prefix group
plus a small pool (e.g. ``workers=1``) could starve older jobs of other
groups indefinitely while their deadlines expire in the queue; with it,
FIFO order reasserts itself as soon as the head job has waited this long."""

_MAX_DISPATCH_ATTEMPTS = 2
"""A job re-dispatched after this many worker deaths fails instead of
being requeued again (it is probably what is killing the workers)."""

# Cache-counter keys whose per-job deltas workers ship to the manager
# (monotone counters only — gauges like "entries" do not difference).
_DELTA_KEYS = (
    "hits", "misses", "evictions",
    "disk_hits", "disk_misses", "disk_evictions", "disk_writes",
    "disk_corrupt",
)


@dataclass(slots=True)
class Job:
    """One mining job tracked by the manager.

    ``status`` walks ``queued -> running -> done | timeout | error``; the
    terminal payload lands in ``result`` (for ``done``) or ``error`` (a
    message, for ``timeout``/``error``).  ``wait()`` blocks until the job
    reaches a terminal status.  ``group`` is the prefix-digest scheduling
    group (None when the job's prefix is uncacheable or irrelevant).
    """

    id: str
    request: dict[str, Any] = field(repr=False)
    deadline: float | None = None
    status: str = "queued"
    result: dict[str, Any] | None = field(default=None, repr=False)
    error: str | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    worker_pid: int | None = None
    trace_id: str = ""
    group: str | None = field(default=None, repr=False)
    dispatch_attempts: int = 0
    progress: dict[str, Any] | None = field(default=None, repr=False)
    trace_records: list[dict[str, Any]] | None = field(default=None, repr=False)
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
            "trace_available": self.trace_records is not None,
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


def _group_key(request: dict[str, Any]) -> str | None:
    """The prefix-digest scheduling group of a validated request.

    Jobs with equal group keys provably share a prefix-cache key, so
    dispatching them to one worker back-to-back turns all but the first
    into warm-memory hits.  This is a cheap *grouping* key computed on the
    manager's submission path, not the cache key itself: inline instances
    hash their canonical JSON (no graph materialisation), registry
    references reuse the upload digest, and
    :func:`~repro.service.digest.prefix_digest_from_parts` adds the prefix
    parameters by the cache key's own rule.  Returns None when the prefix
    is uncacheable (non-reproducible shuffle, naive method) — such jobs
    never group.
    """
    params = request["params"]
    if params["method"] != "supergraph":
        return None
    digest = request.get("graph_digest")
    if digest is not None:
        base = f"digest:{digest}"
        # The labeling kind is not known without loading the registry
        # document; keep edge_order/seed in the key (worst case discrete
        # jobs split into per-order groups that still share cache entries).
        discrete = False
    else:
        doc = json.dumps(
            {
                "graph": request["graph"],
                "labels": request["labels"],
                "vertex_type": request["vertex_type"],
            },
            sort_keys=True, separators=(",", ":"),
        )
        base = "inline:" + hashlib.sha256(doc.encode("utf-8")).hexdigest()
        discrete = request["labels"].get("type") == "discrete"
    try:
        return prefix_digest_from_parts(
            base, "-", discrete=discrete, n_theta=params["n_theta"],
            edge_order=params["edge_order"], seed=params["seed"],
        )
    except DigestError:
        return None


def _execute_request(
    request: dict[str, Any],
    cache: Any,
    deadline: float | None,
    progress: Any = None,
    registry: GraphRegistry | None = None,
) -> dict[str, Any]:
    """Run one validated mining request; returns its result payload.

    Shared by the worker processes and the CLI's in-process fallback
    (``repro serve --workers 0`` is not offered, but tests exercise this
    directly).  Raises :class:`SearchAbortedError` on deadline overrun and
    :class:`~repro.exceptions.ServiceError` for unresolvable
    ``graph_digest`` references.
    """
    params = request["params"]
    if request.get("graph_digest"):
        if registry is None:
            raise ServiceError(
                "this pool has no graph registry — submit the instance "
                "inline instead of by graph_digest"
            )
        resolved = registry.resolve(request["graph_digest"])
        graph, labeling = resolved.graph, resolved.labeling
        # Only discrete keys follow from the stored content digests: a
        # continuous key covers the order Algorithm 2 scans the solver's
        # working copy in, which the solver digests itself.
        if resolved.discrete and cache is not None and hasattr(cache, "prime"):
            try:
                key = prefix_digest_from_parts(
                    resolved.graph_key,
                    resolved.labeling_key,
                    discrete=resolved.discrete,
                    n_theta=params["n_theta"],
                    edge_order=params["edge_order"],
                    seed=params["seed"],
                )
            except ReproError:
                key = None
            cache.prime(
                graph, labeling,
                n_theta=params["n_theta"],
                edge_order=params["edge_order"],
                seed=params["seed"],
                key=key,
            )
    else:
        graph, labeling = build_instance(request)
    check_abort = None
    if deadline is not None:
        check_abort = lambda: time.time() >= deadline  # noqa: E731
        if check_abort():
            raise SearchAbortedError("the job deadline expired while queued")
    result = mine(
        graph, labeling, **params,
        check_abort=check_abort, prefix_cache=cache, progress=progress,
    )
    return result_to_payload(result)


class _ProgressPublisher:
    """Forwards a worker's progress snapshots onto the results queue.

    The solver's internal aggregator already throttles to ~10 snapshots a
    second, so every received snapshot is forwarded as one small message;
    a full pipe never blocks a search (``put_nowait`` + drop on overflow —
    progress is best-effort, results are not).
    """

    __slots__ = ("_results", "_job_id", "_pid")

    def __init__(self, results: "mp.queues.Queue", job_id: str, pid: int) -> None:
        self._results = results
        self._job_id = job_id
        self._pid = pid

    def __call__(self, snapshot: SearchProgress) -> None:
        try:
            self._results.put_nowait({
                "kind": "progress",
                "job_id": self._job_id,
                "pid": self._pid,
                "body": snapshot.to_payload(),
            })
        except queue.Full:  # pragma: no cover - heartbeats are best-effort
            pass


def _worker_main(
    tasks: "mp.queues.Queue",
    results: "mp.queues.Queue",
    cache_size: int,
    cache_dir: str | None = None,
    cache_bytes: int | None = None,
    registry_dir: str | None = None,
) -> None:
    """Worker process loop: announce, execute, report, repeat.

    Runs in the child process — keep it importable at module level so the
    ``spawn`` start method can pickle it.  ``tasks`` is this worker's
    *private* queue: the manager decides placement (digest-grouped
    batching), workers just drain in order.  The prefix cache lives for
    the worker's lifetime — in-memory only by default, tiered over the
    shared on-disk store when ``cache_dir`` is set — and its counter
    deltas ride back on every result message so the parent can aggregate
    pool-wide cache metrics.

    Messages are dicts ``{"kind", "job_id", "pid", "body", ...}``; the
    terminal kinds (``done``/``timeout``/``error``) additionally carry the
    cache ``delta`` and, for traced jobs, the captured ``telemetry``
    payload.  Queue FIFO ordering guarantees the terminal message arrives
    after every progress heartbeat of its job.
    """
    memory = SuperGraphCache(max_entries=cache_size)
    if cache_dir is not None:
        cache: Any = TieredPrefixCache(
            memory, DiskPrefixCache(cache_dir, max_bytes=cache_bytes)
        )
    else:
        cache = memory
    registry = None if registry_dir is None else GraphRegistry(registry_dir)
    pid = mp.current_process().pid
    last = cache.counters()
    while True:
        item = tasks.get()
        if item is None:
            break
        job_id = item["job_id"]
        request = item["request"]
        deadline = item["deadline"]
        trace_id = item["trace_id"]
        batch = item.get("batch")
        results.put({"kind": "started", "job_id": job_id, "pid": pid})
        publisher = _ProgressPublisher(results, job_id, pid)
        telemetry_payload = None
        try:
            if request.get("trace", True):
                with telemetry_session() as (tracer, metrics):
                    try:
                        span_attrs = dict(
                            trace_id=trace_id, job_id=job_id, pid=pid,
                        )
                        if batch is not None:
                            span_attrs.update(
                                batch_group=batch["group"],
                                batch_index=batch["index"],
                                batch_size=batch["size"],
                            )
                        with tracer.span("service.job", **span_attrs):
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
        current = cache.counters()
        delta = {
            key: current[key] - last.get(key, 0)
            for key in _DELTA_KEYS
            if key in current
        }
        last = current
        results.put({
            "kind": kind,
            "job_id": job_id,
            "pid": pid,
            "body": body,
            "delta": delta,
            "telemetry": telemetry_payload,
        })


class JobManager:
    """Bounded job backlog feeding a self-healing worker pool.

    ``submit`` enqueues a validated request and returns a :class:`Job`
    handle immediately; the manager dispatches backlog jobs onto
    per-worker queues (grouping same-prefix jobs onto one worker), a
    background collector thread applies worker results to the handles and
    respawns crashed workers.  ``close`` drains the pool and fails every
    job that has not reached a terminal state — a waiter can never hang
    across shutdown.  All public methods are thread-safe (the HTTP server
    calls them from many handler threads).
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
        cache_bytes: int | None = None,
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
        self._cache_dir = None if cache_dir is None else str(cache_dir)
        self._cache_bytes = cache_bytes
        self._registry_dir = None if registry_dir is None else str(registry_dir)
        self._ctx = mp.get_context("spawn")
        self._results: mp.queues.Queue = self._ctx.Queue()
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._pending = 0  # queued + running, bounded by queue_size
        self._backlog: deque[Job] = deque()
        self._workers: list[mp.process.BaseProcess] = []
        self._queues: dict[int, mp.queues.Queue] = {}  # pid -> task queue
        self._dispatched: dict[int, deque[str]] = {}  # pid -> job ids, FIFO
        self._last_group: dict[int, str | None] = {}
        self._running_on: dict[int, str] = {}  # pid -> announced job id
        self._worker_info: dict[int, dict[str, Any]] = {}
        self._closed = False
        self.workers_respawned = 0
        self.cache_counters = {"hits": 0, "misses": 0, "evictions": 0}
        self.diskcache_counters = {
            "hits": 0, "misses": 0, "evictions": 0, "writes": 0, "corrupt": 0,
        }
        self.batch_counters = {"dispatches": 0, "grouped_jobs": 0}
        for _ in range(workers):
            self._workers.append(self._spawn_worker())
        self._collector = threading.Thread(
            target=self._collect, name="repro-service-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle -----------------------------------------------------
    def _spawn_worker(self) -> mp.process.BaseProcess:
        tasks: mp.queues.Queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                tasks, self._results, self._cache_size,
                self._cache_dir, self._cache_bytes, self._registry_dir,
            ),
            # Daemonic: a parent that exits without calling close() has
            # multiprocessing terminate its workers instead of joining them.
            daemon=True,
        )
        process.start()
        self._queues[process.pid] = tasks
        self._dispatched[process.pid] = deque()
        self._last_group[process.pid] = None
        self._worker_info[process.pid] = {
            "spawned_at": time.time(),
            "last_heartbeat": time.time(),
        }
        return process

    def trace_dir(self) -> Path:
        """The directory job trace artifacts are written to (lazily created)."""
        with self._lock:
            if self._trace_dir is None:
                self._trace_dir = Path(
                    tempfile.mkdtemp(prefix="repro-job-traces-")
                )
            self._trace_dir.mkdir(parents=True, exist_ok=True)
            return self._trace_dir

    def close(self, timeout: float = 5.0) -> None:
        """Stop the collector, terminate every worker, fail open jobs.

        Every job that has not reached a terminal state — backlogged,
        dispatched, or running — is failed with a "service shutting down"
        error and its ``_done`` event set, so no ``Job.wait()`` caller can
        block past shutdown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._backlog.clear()
            for job in self._jobs.values():
                if job.status in ("queued", "running"):
                    self._finish(job, "error", "service shutting down")
            task_queues = list(self._queues.values())
        for tasks in task_queues:
            try:
                tasks.put_nowait(None)
            except queue.Full:  # pragma: no cover - tiny sentinel race
                pass
        deadline = time.time() + timeout
        for process in self._workers:
            process.join(max(0.0, deadline - time.time()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._collector.join(timeout=2.0)

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
            group=_group_key(request),
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
        """The job with this id, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        """Pool statistics for ``GET /healthz`` / ``GET /metricsz``."""
        now = time.time()
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            worker_detail = []
            for process in self._workers:
                pid = process.pid
                info = self._worker_info.get(pid, {})
                job_id = self._running_on.get(pid)
                heartbeat = info.get("last_heartbeat")
                busy = job_id is not None or bool(self._dispatched.get(pid))
                worker_detail.append({
                    "pid": pid,
                    "alive": process.is_alive(),
                    "state": "busy" if busy else "idle",
                    "job_id": job_id,
                    "seconds_since_heartbeat": (
                        None if heartbeat is None
                        else round(max(0.0, now - heartbeat), 3)
                    ),
                })
            return {
                "workers": len(self._workers),
                "workers_alive": sum(
                    1 for p in self._workers if p.is_alive()
                ),
                "workers_respawned": self.workers_respawned,
                "worker_detail": worker_detail,
                "jobs_in_flight": self._pending,
                "backlog": len(self._backlog),
                "queue_size": self._queue_size,
                "jobs_by_status": dict(sorted(by_status.items())),
                "cache": dict(self.cache_counters),
                "diskcache": dict(self.diskcache_counters),
                "batch": dict(self.batch_counters),
            }

    # -- dispatch ------------------------------------------------------
    def _take_batch_locked(self, preferred: str | None) -> list[Job]:
        """Pull the next batch off the backlog (caller holds the lock).

        Prefers jobs matching the worker's last-dispatched group (its
        prefix cache is warm for them), else batches the head job with
        every same-group job behind it.  Affinity is bounded by an aging
        rule: once the backlog head has waited longer than
        :data:`GROUP_AFFINITY_MAX_WAIT_SECONDS`, the head's group is served
        regardless of preference, so a continuously hot group can never
        starve older jobs.  Ungrouped jobs (``group=None``) dispatch alone.
        Bounded by :data:`MAX_BATCH_SIZE`.
        """
        if not self._backlog:
            return []
        head = self._backlog[0]
        head_is_stale = (
            head.group != preferred
            and time.time() - head.submitted_at
            > GROUP_AFFINITY_MAX_WAIT_SECONDS
        )
        group: str | None = None
        if (
            preferred is not None
            and not head_is_stale
            and any(job.group == preferred for job in self._backlog)
        ):
            group = preferred
        else:
            group = head.group
            if group is None:
                job = self._backlog.popleft()
                return [job]
        batch: list[Job] = []
        kept: deque[Job] = deque()
        while self._backlog:
            job = self._backlog.popleft()
            if job.group == group and len(batch) < MAX_BATCH_SIZE:
                batch.append(job)
            else:
                kept.append(job)
        self._backlog.extend(kept)
        return batch

    def _dispatch_locked(self) -> None:
        """Hand backlog jobs to idle workers (caller holds the lock)."""
        if self._closed:
            return
        for process in self._workers:
            if not self._backlog:
                return
            pid = process.pid
            if not process.is_alive():
                continue
            if self._dispatched.get(pid):
                continue  # worker has unfinished dispatched work
            batch = self._take_batch_locked(self._last_group.get(pid))
            if not batch:
                return
            group = batch[0].group
            self._last_group[pid] = group
            size = len(batch)
            owned = self._dispatched.setdefault(pid, deque())
            for index, job in enumerate(batch):
                job.dispatch_attempts += 1
                owned.append(job.id)
                task = {
                    "job_id": job.id,
                    "request": job.request,
                    "deadline": job.deadline,
                    "trace_id": job.trace_id,
                    "batch": None if group is None else {
                        "group": group, "index": index, "size": size,
                    },
                }
                self._queues[pid].put(task)
            self.batch_counters["dispatches"] += 1
            self.batch_counters["grouped_jobs"] += max(0, size - 1)
            self._count(_metric.SERVICE_BATCH_DISPATCHES)
            self._count(_metric.SERVICE_BATCH_GROUPED_JOBS, size - 1)
            if _TELEMETRY.enabled:
                _TELEMETRY.metrics.observe(_metric.SERVICE_BATCH_SIZE, size)

    # -- collector -----------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        # MetricsRegistry is internally locked; no manager lock needed.
        if value and _TELEMETRY.enabled:
            _TELEMETRY.metrics.count(name, value)

    def _heartbeat(self, pid: int) -> None:
        # Caller holds the lock.
        info = self._worker_info.get(pid)
        if info is not None:
            info["last_heartbeat"] = time.time()

    def _collect(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._closed:
                    return
                self._reap_dead_workers()
                continue
            kind = message["kind"]
            job_id = message["job_id"]
            pid = message["pid"]
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None:  # pragma: no cover - cancelled out of band
                continue
            if kind == "started":
                with self._lock:
                    if job.status == "queued":
                        job.status = "running"
                    job.worker_pid = pid
                    self._running_on[pid] = job_id
                    self._heartbeat(pid)
                continue
            if kind == "progress":
                with self._lock:
                    if job.status == "running":
                        job.progress = message["body"]
                    self._heartbeat(pid)
                self._count(_metric.SERVICE_PROGRESS_UPDATES)
                continue
            delta = message.get("delta")
            if delta:
                self._fold_cache_delta(delta)
            telemetry = message.get("telemetry")
            if telemetry is not None:
                self._absorb_telemetry(job, telemetry)
            with self._lock:
                self._running_on.pop(pid, None)
                owned = self._dispatched.get(pid)
                if owned is not None:
                    try:
                        owned.remove(job_id)
                    except ValueError:  # pragma: no cover - requeued job
                        pass
                self._heartbeat(pid)
                self._finish(job, kind, message["body"])
                self._dispatch_locked()

    def _absorb_telemetry(self, job: Job, payload: dict[str, Any]) -> None:
        """Persist a job's captured telemetry and fold it into the parent.

        The trace artifact and in-memory records are built whether or not
        telemetry is enabled in the *parent* process — the worker already
        paid for them, and ``GET /jobs/<id>/trace`` should work either
        way.  The registry merge is gated on the parent's telemetry state,
        and skips ``service.cache.*``/``service.diskcache.*`` (the
        delta-fold path above already accounts for those).
        """
        try:
            job.trace_records = payload_records(payload, job_id=job.id)
            path = self.trace_dir() / f"{job.id}.jsonl"
            job.trace_path = str(write_job_trace(path, payload, job_id=job.id))
            self._count(_metric.SERVICE_TRACES_PERSISTED)
        except ReproError:  # pragma: no cover - disk full etc.
            job.trace_path = None
        if _TELEMETRY.enabled:
            merge_payload_metrics(_TELEMETRY.metrics, payload)
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
        self._pending -= 1
        job._done.set()
        if _TELEMETRY.enabled:
            metric = {
                "done": _metric.SERVICE_JOBS_COMPLETED,
                "timeout": _metric.SERVICE_JOBS_TIMEOUT,
                "error": _metric.SERVICE_JOBS_FAILED,
            }[kind]
            _TELEMETRY.metrics.count(metric)

    def _fold_cache_delta(self, delta: dict[str, int]) -> None:
        with self._lock:
            for key in ("hits", "misses", "evictions"):
                self.cache_counters[key] += delta.get(key, 0)
            self.diskcache_counters["hits"] += delta.get("disk_hits", 0)
            self.diskcache_counters["misses"] += delta.get("disk_misses", 0)
            self.diskcache_counters["evictions"] += delta.get(
                "disk_evictions", 0
            )
            self.diskcache_counters["writes"] += delta.get("disk_writes", 0)
            self.diskcache_counters["corrupt"] += delta.get("disk_corrupt", 0)
        # The workers' process-local telemetry never reaches this process,
        # so mirror the deltas into the parent registry here.
        self._count(_metric.SERVICE_CACHE_HITS, delta.get("hits", 0))
        self._count(_metric.SERVICE_CACHE_MISSES, delta.get("misses", 0))
        self._count(_metric.SERVICE_CACHE_EVICTIONS, delta.get("evictions", 0))
        self._count(_metric.SERVICE_DISKCACHE_HITS, delta.get("disk_hits", 0))
        self._count(
            _metric.SERVICE_DISKCACHE_MISSES, delta.get("disk_misses", 0)
        )
        self._count(
            _metric.SERVICE_DISKCACHE_EVICTIONS, delta.get("disk_evictions", 0)
        )
        self._count(
            _metric.SERVICE_DISKCACHE_WRITES, delta.get("disk_writes", 0)
        )
        self._count(
            _metric.SERVICE_DISKCACHE_CORRUPT, delta.get("disk_corrupt", 0)
        )

    def _reap_dead_workers(self) -> None:
        with self._lock:
            if self._closed:
                return
            dead = [p for p in self._workers if not p.is_alive()]
            if not dead:
                return
            for process in dead:
                pid = process.pid
                self._workers.remove(process)
                self._worker_info.pop(pid, None)
                self._last_group.pop(pid, None)
                tasks = self._queues.pop(pid, None)
                if tasks is not None:
                    # Drop the dead worker's private queue; its feeder
                    # thread would otherwise linger.
                    tasks.cancel_join_thread()
                    tasks.close()
                announced = self._running_on.pop(pid, None)
                if announced is not None:
                    job = self._jobs.get(announced)
                    if job is not None:
                        self._finish(
                            job,
                            "error",
                            f"worker process {pid} died "
                            f"(exit code {process.exitcode})",
                        )
                # Jobs dispatched to the dead worker but never announced
                # (sitting in its private queue, or dequeued in the
                # crash window before "started") would otherwise leak in
                # ``queued`` forever: requeue them once, fail repeat
                # offenders.
                requeue: list[Job] = []
                for job_id in self._dispatched.pop(pid, ()):  # FIFO order
                    job = self._jobs.get(job_id)
                    if job is None or job.status != "queued":
                        continue
                    if job.dispatch_attempts >= _MAX_DISPATCH_ATTEMPTS:
                        self._finish(
                            job,
                            "error",
                            f"worker process {pid} died before the job "
                            f"started ({job.dispatch_attempts} dispatch "
                            "attempts)",
                        )
                    else:
                        requeue.append(job)
                for job in reversed(requeue):
                    self._backlog.appendleft(job)
            respawned = len(dead)
            self.workers_respawned += respawned
            for _ in range(respawned):
                self._workers.append(self._spawn_worker())
            self._dispatch_locked()
        self._count(_metric.SERVICE_WORKERS_RESPAWNED, respawned)
