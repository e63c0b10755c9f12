"""Performance smoke tests: the near-linear claims at moderate scale.

These are coarse wall-clock ceilings (generous enough for slow CI) that
catch accidental quadratic regressions in the hot paths — the kind of bug
that made the original super-graph merge O(n^2) before small-into-large
absorption.
"""

from __future__ import annotations

import time

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import mine
from repro.telemetry import telemetry_session


def elapsed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class TestScalability:
    def test_discrete_pipeline_100k_vertices(self):
        """The paper's expected-linear regime at 100k vertices in seconds."""
        graph, gen_seconds = elapsed(
            barabasi_albert_graph, 100_000, 8, seed=1
        )
        labeling = DiscreteLabeling.random(
            graph, uniform_probabilities(3), seed=2
        )
        result, mine_seconds = elapsed(mine, graph, labeling, n_theta=15)
        assert result.subgraphs
        assert mine_seconds < 150.0, f"pipeline took {mine_seconds:.1f}s"

    def test_continuous_pipeline_30k_vertices(self):
        graph = barabasi_albert_graph(30_000, 6, seed=3)
        labeling = ContinuousLabeling.random(graph, 1, seed=4)
        result, seconds = elapsed(mine, graph, labeling, n_theta=15)
        assert result.subgraphs
        assert seconds < 120.0, f"pipeline took {seconds:.1f}s"

    def test_merge_sequence_is_near_linear(self):
        """A worst-case chain of 20k merges must complete quickly —
        regression guard for the small-into-large absorption."""
        from repro.core.supergraph import SuperGraph
        from repro.stats.zscore import RegionScore

        n = 20_000
        sg = SuperGraph()
        ids = [
            sg.add_super_vertex([i], RegionScore.from_vertex((1.0,))).id
            for i in range(n)
        ]
        for a, b in zip(ids, ids[1:]):
            sg.add_super_edge(a, b)
        start = time.perf_counter()
        current = ids[0]
        for next_id in ids[1:]:
            current = sg.merge(current, next_id).id
        seconds = time.perf_counter() - start
        assert sg.num_super_vertices == 1
        assert sg.super_vertex(current).size == n
        assert seconds < 30.0, f"merge chain took {seconds:.1f}s"

    def test_enumeration_throughput(self):
        """The bitmask enumerator must clear ~10^6 sets in a few seconds."""
        from repro.enumerate.connected import count_connected_subgraphs
        from repro.graph.generators import gnm_random_graph

        graph = gnm_random_graph(22, 60, seed=5)
        start = time.perf_counter()
        count = count_connected_subgraphs(graph, limit=None)
        seconds = time.perf_counter() - start
        assert count > 100_000
        assert seconds < 90.0, f"enumerated {count} in {seconds:.1f}s"


@pytest.mark.perf
class TestKernelBackendSpeed:
    """Guard: the numpy kernel must actually beat the python walk.

    Uses the ``bench_ablation_bounds.py`` naive regime (a sparse G(n, m)
    searched directly, no super-graph reduction) where the state space is
    large enough for batching to amortize.  The states-visited comparison
    is deterministic (same set family under ``prune="none"``); the
    wall-time one takes the min over repeats and only requires the kernel
    to win outright, far below its typical ~10x margin, so CI noise
    cannot trip it.
    """

    @staticmethod
    def _naive_instance():
        from repro.enumerate.accumulators import DiscreteAccumulator
        from repro.enumerate.bitset import BitsetGraph
        from repro.graph.generators import gnm_random_graph

        probs = (0.5, 0.25, 0.25)
        graph = gnm_random_graph(30, 45, seed=7)
        labeling = DiscreteLabeling.random(graph, probs, seed=8)
        bitset = BitsetGraph(graph)
        payloads = []
        for v in bitset.vertices:
            counts = [0] * len(probs)
            counts[labeling.label_of(v)] = 1
            payloads.append(tuple(counts))
        return bitset.adjacency, DiscreteAccumulator(probs, payloads)

    def test_numpy_beats_python_wall_time(self):
        from repro.enumerate.search import exhaustive_best_mask

        adjacency, acc = self._naive_instance()

        def run(backend):
            best = float("inf")
            outcome = None
            for _ in range(3):
                start = time.perf_counter()
                outcome = exhaustive_best_mask(
                    adjacency, acc, max_size=10, backend=backend
                )
                best = min(best, time.perf_counter() - start)
            return outcome, best

        python, python_s = run("python")
        numpy_, numpy_s = run("numpy")
        assert numpy_ == python  # same family, same optimum, same counters
        assert numpy_s < python_s, (
            f"numpy backend took {numpy_s:.3f}s vs python {python_s:.3f}s"
        )

    def test_numpy_never_explores_more_states_under_bounds(self):
        from repro.enumerate.search import exhaustive_best_mask

        adjacency, acc = self._naive_instance()
        unpruned = exhaustive_best_mask(
            adjacency, acc, max_size=10, prune="none", backend="python"
        )
        for backend in ("python", "numpy"):
            bounded = exhaustive_best_mask(
                adjacency, acc, max_size=10, prune="bounds", backend=backend
            )
            assert bounded.explored <= unpruned.explored
            assert bounded.mask == unpruned.mask
            assert bounded.chi_square == unpruned.chi_square


@pytest.mark.telemetry
class TestTelemetryOverhead:
    """Guard: disabled telemetry must not tax the solver hot path.

    The true pre-instrumentation baseline is not runnable from this tree,
    so the guard brackets it: the disabled-telemetry run must be at least
    as fast (within a 5% tolerance) as the *enabled* run — which does
    strictly more work — and the gate itself is pinned to a bare attribute
    check by ``tests/telemetry/test_noop.py``.  A disabled path that
    accidentally collected telemetry would close the gap to the enabled
    run and trip the assertion.
    """

    @staticmethod
    def _seed_workload():
        graph = barabasi_albert_graph(2_000, 5, seed=21)
        labeling = DiscreteLabeling.random(
            graph, uniform_probabilities(3), seed=22
        )
        return graph, labeling

    def test_disabled_mine_within_noise_of_enabled(self):
        graph, labeling = self._seed_workload()

        def run_disabled() -> float:
            start = time.perf_counter()
            mine(graph, labeling, n_theta=15)
            return time.perf_counter() - start

        def run_enabled() -> float:
            with telemetry_session():
                start = time.perf_counter()
                mine(graph, labeling, n_theta=15)
                return time.perf_counter() - start

        run_disabled()  # warm caches before timing either variant
        # Alternate the variants in pairs, so a shift in host speed during
        # the test lands on both sides instead of on one batch.
        pairs = [(run_disabled(), run_enabled()) for _ in range(5)]
        disabled = min(d for d, _ in pairs)
        enabled = min(e for _, e in pairs)
        # 5% tolerance plus a 5ms absolute floor for timer granularity.
        assert disabled <= enabled * 1.05 + 0.005, (
            f"disabled-telemetry mine() took {disabled:.4f}s vs {enabled:.4f}s "
            "with telemetry enabled — the no-op path is doing real work"
        )
