"""Tests for the job queue and the self-healing worker pool.

These spin up real ``spawn`` worker processes, so they carry the
``service`` marker (run them alone with ``pytest -m service``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.exceptions import BackpressureError, ServiceError
from repro.service.jobs import JobManager, _group_key
from repro.service.protocol import validate_request
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


def _slow_grouped_request():
    """A cacheable request whose prefix construction takes ~1-2 seconds.

    Unlike SLOW_REQUEST (naive method, group key None), this one groups:
    the 5000-edge continuous instance keeps Algorithm 1/2 construction busy
    long enough to SIGKILL the worker mid-job deterministically.
    """
    from repro.graph.generators import gnm_random_graph

    graph = gnm_random_graph(500, 5000, seed=11)
    return validate_request({
        "graph": {"edges": [[u, v] for u, v in graph.edges()]},
        "labels": {"type": "continuous",
                   "scores": {str(v): [float(v % 7) - 3.0]
                              for v in graph.vertices()}},
    })


SLOW_GROUPED_REQUEST = _slow_grouped_request()


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

    def test_cache_deltas_are_folded_pool_wide(self, manager):
        before = manager.cache_counters["hits"] + manager.cache_counters["misses"]
        jobs = [manager.submit(QUICK_REQUEST) for _ in range(4)]
        for job in jobs:
            assert job.wait(60)
            assert job.status == "done"
        wait_for(lambda: (
            manager.cache_counters["hits"] + manager.cache_counters["misses"]
        ) >= before + 4)
        # 4 identical jobs over 2 workers: pigeonhole guarantees a repeat
        # on some worker, hence at least one cache hit.
        assert manager.cache_counters["hits"] >= 1


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
        """Regression: a job sitting in a dead worker's private queue
        (dispatched, never announced) used to leak in ``queued`` forever
        with its queue slot held; it must be requeued and finish."""
        with JobManager(workers=1, cache_size=8) as mgr:
            warmup = mgr.submit(QUICK_REQUEST)
            # Both slow jobs land in the backlog while the warmup runs,
            # then dispatch to the single worker as one two-job batch.
            first = mgr.submit(SLOW_GROUPED_REQUEST)
            second = mgr.submit(SLOW_GROUPED_REQUEST, deadline_seconds=3.0)
            assert first.group is not None
            assert first.group == second.group
            assert warmup.wait(60)
            wait_for(lambda: first.status == "running")
            # ``second`` is now dispatched (owned by the worker) but has
            # never been announced.
            os.kill(first.worker_pid, signal.SIGKILL)
            assert first.wait(30)
            assert first.status == "error"
            assert "died" in first.error
            # The leaked job is requeued onto the respawned worker and
            # reaches a terminal state: done if the replacement finishes it
            # inside the deadline, timeout otherwise — never a stuck
            # ``queued`` and never an error from the dead worker.
            assert second.wait(30)
            assert second.status in ("done", "timeout")
            assert mgr.stats()["workers_respawned"] >= 1
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
            print(" ".join(str(p.pid) for p in manager._workers), flush=True)
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


class TestBatching:
    def test_group_keys(self):
        assert _group_key(QUICK_REQUEST) is not None
        assert _group_key(QUICK_REQUEST) == _group_key(dict(QUICK_REQUEST))
        assert _group_key(SLOW_REQUEST) is None  # naive method never groups
        shuffled = validate_request({
            "graph": {"edges": [[0, 1]]},
            "labels": {"type": "continuous",
                       "scores": {"0": [1.0], "1": [2.0]}},
            "params": {"edge_order": "shuffled"},
        })
        assert _group_key(shuffled) is None  # not reproducible, no seed
        other_n = dict(QUICK_REQUEST,
                       params=dict(QUICK_REQUEST["params"], n_theta=7))
        assert _group_key(other_n) != _group_key(QUICK_REQUEST)

    def test_group_affinity_ages_out_for_a_starving_head(self):
        """Regression: a worker's warm-group preference used to pull its
        last-dispatched group from anywhere in the backlog with no bound,
        so with ``workers=1`` a continuously arriving hot group starved
        older jobs of other groups until their deadlines expired.  Once
        the backlog head has waited past the aging bound, its group wins."""
        from collections import deque

        from repro.service.jobs import GROUP_AFFINITY_MAX_WAIT_SECONDS, Job

        manager = JobManager.__new__(JobManager)  # no pool: pure queue test
        now = time.time()

        def load_backlog(head_age):
            cold = Job(id="cold", request={}, submitted_at=now - head_age,
                       group="cold")
            hot = [
                Job(id=f"hot{i}", request={}, submitted_at=now, group="hot")
                for i in range(3)
            ]
            manager._backlog = deque([cold, *hot])

        # Fresh head: affinity holds and the worker's hot group batches.
        load_backlog(head_age=0.0)
        batch = manager._take_batch_locked("hot")
        assert [job.group for job in batch] == ["hot"] * 3
        # Starving head: affinity is ignored and the head dispatches.
        load_backlog(head_age=GROUP_AFFINITY_MAX_WAIT_SECONDS + 1.0)
        batch = manager._take_batch_locked("hot")
        assert [job.id for job in batch] == ["cold"]
        assert [job.group for job in manager._backlog] == ["hot"] * 3

    def test_grouped_jobs_batch_to_one_worker_with_identical_results(self):
        with JobManager(workers=1, cache_size=8) as mgr:
            jobs = [mgr.submit(QUICK_REQUEST) for _ in range(4)]
            for job in jobs:
                assert job.wait(60)
                assert job.status == "done"
            results = [job.result["subgraphs"] for job in jobs]
            assert all(r == results[0] for r in results)
            stats = mgr.stats()["batch"]
            # Job 1 dispatched alone (empty pool), jobs 2-4 as one batch.
            assert stats["grouped_jobs"] >= 2
            assert stats["dispatches"] >= 2
            # Batched jobs carry their position on the service.job span.
            attrs = [
                record.get("attrs", {})
                for job in jobs if job.trace_records
                for record in job.trace_records
                if record.get("name") == "service.job"
            ]
            sizes = [a["batch_size"] for a in attrs if "batch_size" in a]
            assert max(sizes) >= 2
