"""Unit tests for the prefix cache (memory LRU over an optional disk tier),
the per-object digest memo behind its keys, and its solver integration."""

from __future__ import annotations

import errno
import os
import pickle
import random

import pytest

from repro.core.solver import mine
from repro.exceptions import ServiceError
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.service import digest
from repro.service.cache import COUNTERS, SuperGraphCache
from repro.service.jobs import _execute_request
from repro.service.protocol import validate_request
from repro.service.registry import GraphRegistry
from conftest import random_continuous_instance, random_discrete_instance

HITS = "service.cache.hits"
MISSES = "service.cache.misses"
EVICTIONS = "service.cache.evictions"
DISK_HITS = "service.diskcache.hits"
DISK_MISSES = "service.diskcache.misses"
DISK_WRITES = "service.diskcache.writes"
CORRUPT = "service.diskcache.corrupt_reads"


def build_instance():
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    labeling = DiscreteLabeling((0.8, 0.2), {0: 1, 1: 1, 2: 1, 3: 0, 4: 0})
    return graph, labeling


@pytest.fixture
def instance():
    return build_instance()


def populated(tmp_path, instance, n_theta=10):
    """A disk-tiered cache holding one real artifact; returns (cache, key)."""
    graph, labeling = instance
    cache = SuperGraphCache(cache_dir=tmp_path)
    mine(graph, labeling, n_theta=n_theta, prefix_cache=cache)
    key = cache.key(graph, labeling, n_theta=n_theta)
    assert key is not None
    return cache, key


def artifact(cache, key):
    return cache.root / f"{key}.pkl"


class TestLRUBehaviour:
    def test_fetch_miss_then_hit(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache()
        assert cache.get(cache.key(graph, labeling, n_theta=10)) is None
        assert cache.counters[MISSES] == 1
        assert mine(graph, labeling, prefix_cache=cache).subgraphs
        # mine() used its default n_theta=20; a get under that key hits.
        assert cache.get(cache.key(graph, labeling, n_theta=20)) is not None
        assert cache.counters[HITS] == 1
        assert cache.last_tier == "memory"

    def test_eviction_is_lru(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache(max_entries=2)
        keys = {n: cache.key(graph, labeling, n_theta=n) for n in (5, 6, 7)}
        for n_theta in (5, 6):
            mine(graph, labeling, n_theta=n_theta, prefix_cache=cache)
        assert len(cache) == 2
        # Touch n_theta=5 so n_theta=6 is the LRU entry, then insert a third.
        assert cache.get(keys[5]) is not None
        mine(graph, labeling, n_theta=7, prefix_cache=cache)
        assert cache.counters[EVICTIONS] == 1
        assert cache.get(keys[5]) is not None
        assert cache.get(keys[6]) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            SuperGraphCache(max_entries=0)

    def test_uncacheable_inputs_bypass(self):
        graph, labeling = random_continuous_instance(3)
        cache = SuperGraphCache()
        # shuffled without an int seed is not content-addressable.
        assert cache.key(
            graph, labeling, n_theta=10, edge_order="shuffled"
        ) is None
        mine(graph, labeling, edge_order="shuffled", prefix_cache=cache)
        assert len(cache) == 0
        assert not any(cache.counters.values())


class TestKeyMemo:
    """Each round's key is computed once, and content digests are memoised
    per object: an instance is hashed at most once while it lives."""

    @pytest.fixture(autouse=True)
    def hashed(self, monkeypatch):
        calls = []
        for name in ("_graph_digest", "_labeling_digest"):
            real = getattr(digest, name)

            def counting(obj, real=real):
                calls.append(obj)
                return real(obj)

            monkeypatch.setattr(digest, name, counting)
        return calls

    def test_miss_digests_exactly_once(self, instance, hashed):
        graph, labeling = instance
        cache = SuperGraphCache()
        mine(graph, labeling, prefix_cache=cache)
        assert cache.counters[MISSES] == 1
        assert hashed == [graph, labeling]

    def test_hit_digests_exactly_once(self, hashed):
        cache = SuperGraphCache()
        mine(*build_instance(), prefix_cache=cache)
        hashed.clear()
        graph, labeling = build_instance()  # equal content, new objects
        mine(graph, labeling, prefix_cache=cache)
        assert cache.counters[HITS] == 1
        assert hashed == [graph, labeling]

    def test_registry_resolved_jobs_never_hash(self, tmp_path, hashed):
        """The registry seeds the memo with its stored digests, and its
        resolution LRU hands the next job the same objects."""
        graph, labeling = build_instance()
        registry = GraphRegistry(tmp_path)
        stored = registry.put_document({
            "graph": {"edges": [list(e) for e in graph.edges()]},
            "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
                       "assignment": {str(v): labeling.label_of(v)
                                      for v in labeling.vertices()}},
            "vertex_type": "int",
        })["graph_digest"]
        hashed.clear()
        cache = SuperGraphCache()
        request = validate_request({"graph_digest": stored})
        for _ in range(2):
            _execute_request(request, cache, None, registry=registry)
        assert hashed == []
        assert cache.counters[MISSES] == cache.counters[HITS] == 1

    def test_graph_mutation_invalidates_the_memo(self, instance, hashed):
        graph, _ = instance
        before = digest.graph_digest(graph)
        assert digest.graph_digest(graph) == before
        assert len(hashed) == 1  # the second call was memoised
        graph.add_edge(0, 4)
        after = digest.graph_digest(graph)
        assert len(hashed) == 2  # the version bump forced a rehash
        assert after != before

    def test_memo_never_aliases_a_dead_objects_address(self):
        """A same-shaped instance allocated at a freed object's reused
        address (and with an equal mutation version, as for any two
        identically built graphs) must not inherit the dead one's digest."""
        poisoned = "f" * 64
        for _ in range(64):
            graph, labeling = build_instance()
            digest.remember_digest(graph, poisoned)
            digest.remember_digest(labeling, poisoned)
            # Free in reverse allocation order so CPython's free lists hand
            # the next identically built pair the exact same addresses.
            del labeling
            del graph
            graph, labeling = build_instance()
            assert digest.graph_digest(graph) != poisoned
            assert digest.labeling_digest(labeling) != poisoned


class TestSolverIntegration:
    @pytest.mark.parametrize("seed", range(4))
    def test_cached_results_identical_discrete(self, seed):
        graph, labeling = random_discrete_instance(seed)
        cache = SuperGraphCache()
        cold = mine(graph, labeling, top_t=2, prefix_cache=cache)
        warm = mine(graph, labeling, top_t=2, prefix_cache=cache)
        plain = mine(graph, labeling, top_t=2)
        assert warm.subgraphs == cold.subgraphs
        assert [s.vertices for s in warm.subgraphs] == [
            s.vertices for s in plain.subgraphs
        ]
        assert cache.counters[HITS] >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_results_identical_continuous(self, seed):
        graph, labeling = random_continuous_instance(seed)
        cache = SuperGraphCache()
        cold = mine(graph, labeling, prefix_cache=cache)
        warm = mine(graph, labeling, prefix_cache=cache)
        assert warm.subgraphs == cold.subgraphs
        assert cache.counters[HITS] >= 1

    def test_warm_report_fields_match_cold(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache()
        cold = mine(graph, labeling, prefix_cache=cache)
        warm = mine(graph, labeling, prefix_cache=cache)
        for field in ("supergraph_vertices", "supergraph_edges",
                      "reduced_vertices", "contractions"):
            assert getattr(warm.report, field) == getattr(cold.report, field)

    def test_different_search_suffixes_share_one_prefix(self):
        graph = gnm_random_graph(40, 70, seed=9)
        labeling = DiscreteLabeling.random(
            graph, uniform_probabilities(3), seed=10
        )
        cache = SuperGraphCache()
        base = mine(graph, labeling, n_theta=12, prefix_cache=cache)
        variant = mine(
            graph, labeling, n_theta=12, polish=True, prune="bounds",
            prefix_cache=cache,
        )
        assert cache.counters[MISSES] >= 1
        assert cache.counters[HITS] >= 1
        # Same prefix, same best region; polish can only keep or improve.
        assert variant.subgraphs[0].chi_square >= base.subgraphs[0].chi_square

    def test_naive_method_bypasses_cache(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache()
        mine(graph, labeling, method="naive", prefix_cache=cache)
        assert cache.counters == dict.fromkeys(COUNTERS, 0)
        assert len(cache) == 0


class TestDiskTier:
    def test_roundtrip_across_instances(self, tmp_path, instance):
        cache, key = populated(tmp_path, instance)
        assert artifact(cache, key).exists()
        assert cache.counters[DISK_WRITES] == 1
        # A second cache over the same directory — the respawn scenario.
        fresh = SuperGraphCache(cache_dir=tmp_path)
        entry = fresh.get(key)
        assert entry is not None and entry.supergraph.num_super_vertices > 0
        assert fresh.counters[MISSES] == fresh.counters[DISK_HITS] == 1

    def test_fetch_promotes_disk_hits_into_memory(self, tmp_path, instance):
        _, key = populated(tmp_path, instance)
        fresh = SuperGraphCache(cache_dir=tmp_path)
        entry = fresh.get(key)
        assert entry is not None and fresh.last_tier == "disk"
        assert fresh.get(key) is entry and fresh.last_tier == "memory"
        assert fresh.counters[HITS] == 1

    def test_unknown_key_is_a_miss(self, tmp_path):
        cache = SuperGraphCache(cache_dir=tmp_path)
        assert cache.get("ab" * 32) is None
        assert cache.counters[MISSES] == cache.counters[DISK_MISSES] == 1

    def test_full_miss_sets_no_tier(self, tmp_path, instance):
        _, key = populated(tmp_path, instance)
        cache = SuperGraphCache(cache_dir=tmp_path)
        assert cache.get(key) is not None and cache.last_tier == "disk"
        assert cache.get("ab" * 32) is None
        assert cache.last_tier is None

    def test_malformed_keys_never_touch_the_filesystem(self, tmp_path):
        cache = SuperGraphCache(cache_dir=tmp_path)
        for key in ("../../etc/passwd", "UPPER" * 16, "short", ""):
            assert cache.get(key) is None
            cache.put(key, object())
        assert list(cache.root.iterdir()) == []

    @pytest.mark.parametrize("damage", [
        "garbled", "truncated", "wrong-type", "old-format",
    ])
    def test_corrupt_artifact_is_a_miss_and_removed(
        self, tmp_path, instance, damage
    ):
        _, key = populated(tmp_path, instance)
        cache = SuperGraphCache(cache_dir=tmp_path)
        path = artifact(cache, key)
        path.write_bytes({
            "garbled": b"not a pickle",
            "truncated": path.read_bytes()[:-10],
            "wrong-type": pickle.dumps({"not": "an entry"}),
            # An artifact naming a class this version no longer has.
            "old-format": b"crepro.service.cache\nCachedPrefixEntry\n)\x81.",
        }[damage])
        assert cache.get(key) is None
        assert cache.counters[CORRUPT] == cache.counters[DISK_MISSES] == 1
        assert not path.exists()  # unlinked so nobody pays for it again

    def test_eviction_is_oldest_mtime_first(self, tmp_path, instance):
        graph, labeling = instance
        cache = SuperGraphCache(cache_dir=tmp_path, max_bytes=None)
        keys = []
        for n_theta in (5, 6, 7):
            mine(graph, labeling, n_theta=n_theta, prefix_cache=cache)
            keys.append(cache.key(graph, labeling, n_theta=n_theta))
        # Age the artifacts explicitly so the LRU order is deterministic.
        for age, key in enumerate(keys):
            os.utime(artifact(cache, key), (1000 + age, 1000 + age))
        size = artifact(cache, keys[0]).stat().st_size
        cache.max_bytes = 2 * size + size // 2  # room for two artifacts
        mine(graph, labeling, n_theta=8, prefix_cache=cache)
        assert not artifact(cache, keys[0]).exists()
        assert not artifact(cache, keys[1]).exists()
        assert cache.counters["service.diskcache.evictions"] == 2
        # The freshly written artifact always survives the sweep.
        assert artifact(cache, cache.key(graph, labeling, n_theta=8)).exists()

    def test_single_oversized_artifact_is_kept(self, tmp_path, instance):
        cache, key = populated(tmp_path, instance)
        cache.max_bytes = 1
        cache._evict_to_budget(keep=artifact(cache, key).name)
        assert artifact(cache, key).exists()

    def test_created_directories_are_private(self, tmp_path):
        """Artifacts are pickles (code execution on load): directories the
        tier creates must be writable only by the owning user."""
        base = tmp_path / "fresh" / "cache"
        cache = SuperGraphCache(cache_dir=base)
        assert base.stat().st_mode & 0o777 == 0o700
        assert cache.root.stat().st_mode & 0o777 == 0o700

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            SuperGraphCache(cache_dir=tmp_path, max_bytes=0)

    @pytest.mark.parametrize("fails", ["tempfile.mkstemp", "os.replace"])
    def test_full_disk_write_is_skipped_cleanly(
        self, tmp_path, monkeypatch, fails
    ):
        """ENOSPC on a write: the same result as without a cache, no temp
        file left behind, no write counted, and memory still warm."""
        graph, labeling = random_discrete_instance(0)
        plain = mine(graph, labeling, top_t=2).subgraphs

        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(fails, full)
        cache = SuperGraphCache(cache_dir=tmp_path)
        cold = mine(graph, labeling, top_t=2, prefix_cache=cache)
        assert cold.subgraphs == plain
        assert list(cache.root.iterdir()) == []
        assert cache.counters[DISK_WRITES] == 0
        warm = mine(graph, labeling, top_t=2, prefix_cache=cache)
        assert warm.subgraphs == plain
        assert cache.counters[HITS] == 2

    def test_counters_count_both_tiers(self, tmp_path, instance):
        cache, _ = populated(tmp_path, instance)
        assert cache.counters[MISSES] == 1
        assert cache.counters[DISK_MISSES] == 1
        assert cache.counters[DISK_WRITES] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_respawn_warm_results_identical(self, tmp_path, seed):
        """A fresh process (new cache, same dir) reuses the artifact."""
        graph, labeling = random_discrete_instance(seed)
        first = SuperGraphCache(cache_dir=tmp_path)
        cold = mine(graph, labeling, top_t=2, prefix_cache=first)
        second = SuperGraphCache(cache_dir=tmp_path)
        warm = mine(graph, labeling, top_t=2, prefix_cache=second)
        assert warm.subgraphs == cold.subgraphs
        assert second.counters[DISK_HITS] >= 1
        assert second.counters[MISSES] >= 1  # memory was cold; disk answered

    def test_uncacheable_inputs_bypass_both_tiers(self, tmp_path):
        graph, labeling = random_continuous_instance(1)
        cache = SuperGraphCache(cache_dir=tmp_path)
        mine(graph, labeling, edge_order="shuffled", prefix_cache=cache)
        assert len(cache) == 0
        assert list(cache.root.iterdir()) == []


class TestContinuousScanOrderKeys:
    """Regression: continuous keys used to ignore the scan order.

    Algorithm 2 scans the working graph's vertices and edges in iteration
    order, so two graphs with equal content but different insertion order
    can build different super-graphs.  Their content digests are equal,
    so a cache warmed by one used to hand its prefix to the other.
    """

    @staticmethod
    def reordered_pair(seed):
        a = gnm_random_graph(40, 70, seed=seed)
        labeling = ContinuousLabeling.random(a, 1, seed=seed + 1000)
        order = list(a.vertices())
        random.Random(seed).shuffle(order)
        b = Graph.from_edges(list(a.edges()), vertices=order)
        return a, b, labeling

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_reordered_graph_never_gets_the_other_prefix(self, tier, tmp_path):
        memory = SuperGraphCache()
        caches = [memory]

        def cache():
            if tier == "memory":
                return memory
            # A fresh memory tier each time: only the disk can serve hits.
            caches.append(SuperGraphCache(cache_dir=tmp_path))
            return caches[-1]

        differing = 0
        for seed in range(12):
            a, b, labeling = self.reordered_pair(seed)
            warmed = mine(a, labeling, top_t=2, prefix_cache=cache())
            rerun = mine(a, labeling, top_t=2, prefix_cache=cache())
            assert rerun.subgraphs == warmed.subgraphs
            fresh = mine(b, labeling, top_t=2)
            cached = mine(b, labeling, top_t=2, prefix_cache=cache())
            assert cached.subgraphs == fresh.subgraphs
            differing += warmed.subgraphs != fresh.subgraphs
        # The pairs really do mine differently, so sharing a prefix between
        # them would have shown; and same-order reruns still hit.
        assert differing > 0
        name = HITS if tier == "memory" else DISK_HITS
        assert sum(c.counters[name] for c in caches) > 0
