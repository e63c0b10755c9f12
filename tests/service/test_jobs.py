"""Tests for the job queue and the self-healing worker pool.

These spin up real ``spawn`` worker processes, so they carry the
``service`` marker (run them alone with ``pytest -m service``).
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.exceptions import BackpressureError, ServiceError
from repro.service.cache import DEFAULT_MAX_BYTES
from repro.service.jobs import JobManager, _worker_main
from repro.service.server import MiningService
from repro.service.protocol import validate_request
from repro.telemetry import read_trace_records
from conftest import service_cache_dir_from_env

pytestmark = pytest.mark.service

QUICK_REQUEST = validate_request({
    "graph": {"edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]]},
    "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
               "assignment": {"0": 1, "1": 1, "2": 1, "3": 0, "4": 0}},
})

# Exhaustive search on a 40-vertex near-complete graph: effectively
# unbounded wall time, but cooperatively cancellable every 256 states.
SLOW_REQUEST = validate_request({
    "graph": {"edges": [
        [u, v] for u in range(40) for v in range(u + 1, 40)
        if (u + v) % 7 != 0
    ]},
    "labels": {"type": "discrete", "probabilities": [0.5, 0.5],
               "assignment": {str(v): v % 2 for v in range(40)}},
    "params": {"method": "naive"},
})


def wait_for(predicate, timeout=20.0, interval=0.05):
    """Poll ``predicate`` until true; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within the timeout")


@pytest.fixture(scope="module")
def manager():
    with JobManager(
        workers=2, cache_size=8, cache_dir=service_cache_dir_from_env()
    ) as mgr:
        yield mgr


class TestLifecycle:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ServiceError):
            JobManager(workers=0)
        with pytest.raises(ServiceError):
            JobManager(workers=1, queue_size=0)

    def test_submit_and_complete(self, manager):
        job = manager.submit(QUICK_REQUEST)
        assert job.wait(60)
        assert job.status == "done"
        assert job.result is not None
        best = job.result["subgraphs"][0]
        assert set(best["vertices"]) == {"0", "1", "2"}
        payload = job.to_payload()
        assert payload["job_id"] == job.id
        assert payload["status"] == "done"

    def test_unknown_job_lookup(self, manager):
        assert manager.get("not-a-job") is None

    def test_corrected_job_end_to_end(self, manager):
        """A `correction: fwer` request runs in a worker and ships the
        corrected payload back (satisfying CLI/service parity)."""
        request = validate_request({
            "graph": {"edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]]},
            "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
                       "assignment": {"0": 1, "1": 1, "2": 1,
                                      "3": 0, "4": 0}},
            "params": {"correction": "fwer", "alpha": 0.05,
                       "prune": "bounds"},
        })
        job = manager.submit(request)
        assert job.wait(60)
        assert job.status == "done"
        payload = job.result
        corr = payload["correction"]
        assert corr["method"] == "fwer"
        assert corr["delta_star"] > 0.0
        for sub in payload["subgraphs"]:
            assert sub["p_value_raw"] == sub["p_value"]
            assert sub["p_value"] <= corr["delta_star"]
            assert sub["corrected_p_value"] is not None

    @pytest.mark.parametrize("trace", [True, False])
    def test_cache_deltas_are_folded_pool_wide(self, manager, trace):
        """Workers ship cache deltas whether or not the job is traced."""
        def lookups():
            counters = manager.stats()["counters"]
            return (counters["service.cache.hits"]
                    + counters["service.cache.misses"])

        hits_before = manager.stats()["counters"]["service.cache.hits"]
        before = lookups()
        request = dict(QUICK_REQUEST, trace=trace)
        jobs = [manager.submit(request) for _ in range(4)]
        for job in jobs:
            assert job.wait(60)
            assert job.status == "done"
            assert (job.trace_path is not None) == trace
            if trace:  # the artifact holds the job's records
                meta = read_trace_records(job.trace_path)[0]
                assert meta["type"] == "meta" and meta["job_id"] == job.id
        assert lookups() >= before + 4
        # 4 identical jobs over 2 workers: pigeonhole guarantees a repeat
        # on some worker, hence at least one cache hit.
        assert manager.stats()["counters"]["service.cache.hits"] > hits_before

    def test_each_worker_has_its_own_result_pipe(self, manager):
        """No two workers share a result channel, so killing one can
        never corrupt what another reports."""
        pipes = [worker.results for worker in manager._workers]
        assert len(pipes) == 2
        assert len({pipe.fileno() for pipe in pipes}) == len(pipes)
        assert all(pipe.readable and not pipe.writable for pipe in pipes)


class TestDeadlines:
    def test_timeout_is_structured_and_pool_survives(self, manager):
        slow = manager.submit(SLOW_REQUEST, deadline_seconds=0.5)
        assert slow.wait(30)
        assert slow.status == "timeout"
        assert slow.error is not None
        assert slow.result is None
        payload = slow.to_payload()
        assert payload["status"] == "timeout"
        assert payload["deadline_seconds_left"] == 0.0
        # The worker cancelled cooperatively — it must serve the next job.
        follow_up = manager.submit(QUICK_REQUEST)
        assert follow_up.wait(60)
        assert follow_up.status == "done"

    def test_deadline_already_expired_when_dequeued(self, manager):
        job = manager.submit(QUICK_REQUEST, deadline_seconds=1e-9)
        assert job.wait(30)
        assert job.status == "timeout"


class TestBackpressure:
    def test_full_queue_rejects_submissions(self):
        with JobManager(workers=1, queue_size=1) as mgr:
            blocker = mgr.submit(SLOW_REQUEST, deadline_seconds=5.0)
            with pytest.raises(BackpressureError):
                mgr.submit(QUICK_REQUEST)
            assert blocker.wait(30)
            # The slot freed up once the blocker timed out.
            job = mgr.submit(QUICK_REQUEST)
            assert job.wait(60)
            assert job.status == "done"


class TestCrashRecovery:
    def test_sigkilled_worker_is_detected_and_respawned(self):
        with JobManager(workers=1, cache_size=8) as mgr:
            victim = mgr.submit(SLOW_REQUEST)
            wait_for(lambda: victim.status == "running")
            assert victim.worker_pid is not None
            os.kill(victim.worker_pid, signal.SIGKILL)
            assert victim.wait(30)
            assert victim.status == "error"
            assert "died" in victim.error
            wait_for(lambda: mgr.stats()["workers_alive"] == 1)
            assert mgr.stats()["workers_respawned"] == 1
            # The replacement worker serves the next job.
            job = mgr.submit(QUICK_REQUEST)
            assert job.wait(60)
            assert job.status == "done"

    def test_dispatched_but_unstarted_job_survives_worker_death(self):
        """Regression: a job dispatched to a worker that dies before
        announcing it used to leak in ``queued`` forever with its queue
        slot held; it must be requeued once and finish on the replacement."""
        with JobManager(workers=1, cache_size=8) as mgr:
            pid = mgr.stats()["worker_detail"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                job = mgr.submit(QUICK_REQUEST)
                # Dispatched to the stopped worker, which can never
                # announce it.
                assert mgr.stats()["worker_detail"][0]["job_id"] == job.id
                assert job.status == "queued"
            finally:
                os.kill(pid, signal.SIGKILL)
            assert job.wait(60)
            assert job.status == "done"
            assert job.dispatch_attempts == 2
            assert mgr.stats()["workers_respawned"] == 1
            assert mgr.stats()["jobs_in_flight"] == 0

    def test_kill_under_load_leaves_no_job_behind(self):
        """More workers than cores, a burst of jobs, one worker killed at
        an arbitrary point: every job still reaches a terminal state, the
        only failure is a job the dead worker had announced, and every
        queue slot is released."""
        with JobManager(workers=3, cache_size=8) as mgr:
            jobs = [mgr.submit(QUICK_REQUEST) for _ in range(12)]
            os.kill(mgr.stats()["worker_detail"][0]["pid"], signal.SIGKILL)
            for job in jobs:
                assert job.wait(60)
            failed = [job for job in jobs if job.status != "done"]
            assert len(failed) <= 1
            assert all("died" in job.error for job in failed)
            results = {json.dumps(job.result["subgraphs"])
                       for job in jobs if job.status == "done"}
            assert len(results) == 1
            wait_for(lambda: mgr.stats()["workers_alive"] == 3)
            assert mgr.stats()["workers_respawned"] == 1
            assert mgr.stats()["jobs_in_flight"] == 0


class TestShutdown:
    def test_close_fails_queued_and_running_jobs(self):
        """Regression: ``close()`` used to leave backlogged jobs in
        ``queued`` forever, hanging any ``Job.wait()`` caller."""
        mgr = JobManager(workers=1, cache_size=8)
        try:
            running = mgr.submit(SLOW_REQUEST)
            wait_for(lambda: running.status == "running")
            queued = [mgr.submit(QUICK_REQUEST) for _ in range(3)]
        finally:
            mgr.close(timeout=1.0)
        for job in (running, *queued):
            assert job.wait(0.1)  # already terminal, never hangs
            assert job.status == "error"
            assert "shutting down" in job.error
        with pytest.raises(ServiceError):
            mgr.submit(QUICK_REQUEST)


    def test_exit_without_close_terminates_workers(self):
        """A parent that never calls ``close()`` still exits promptly and
        takes its daemonic workers down with it."""
        script = textwrap.dedent("""
            import json, sys
            from repro.service.jobs import JobManager
            manager = JobManager(workers=2, cache_size=4)
            job = manager.submit(json.loads(sys.argv[1]))
            assert job.wait(60) and job.status == "done", job.status
            print(" ".join(str(w.process.pid) for w in manager._workers),
                  flush=True)
        """)
        src = str(Path(__import__("repro").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(QUICK_REQUEST)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids: list[int] = []

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
            assert child.wait(timeout=10) == 0
            wait_for(lambda: not any(alive(pid) for pid in pids), timeout=5.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
            for pid in pids:  # never leak orphans when the test fails
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestDiskBudgetDefault:
    """Without ``--cache-bytes`` the disk tier keeps the documented budget."""

    def test_serve_parses_default_budget(self):
        args = build_parser().parse_args(["serve", "--cache-dir", "X"])
        assert args.cache_bytes == DEFAULT_MAX_BYTES

    def test_default_manager_and_workers_carry_budget(self):
        for owner in (MiningService, _worker_main):
            default = inspect.signature(owner).parameters["cache_bytes"].default
            assert default == DEFAULT_MAX_BYTES, owner.__name__
        with JobManager(workers=1) as mgr:
            assert mgr._cache_bytes == DEFAULT_MAX_BYTES
