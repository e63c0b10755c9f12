"""Unit tests for the super-graph prefix cache and its solver integration."""

from __future__ import annotations

import random

import pytest

from repro.core.solver import mine
from repro.exceptions import ServiceError
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.service.cache import SuperGraphCache
from repro.service.diskcache import DiskPrefixCache, TieredPrefixCache
from conftest import random_continuous_instance, random_discrete_instance


@pytest.fixture
def instance():
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    labeling = DiscreteLabeling(
        (0.8, 0.2), {0: 1, 1: 1, 2: 1, 3: 0, 4: 0}
    )
    return graph, labeling


class TestLRUBehaviour:
    def test_fetch_miss_then_hit(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache()
        assert cache.fetch(graph, labeling, n_theta=10) is None
        assert cache.counters()["misses"] == 1
        result = mine(graph, labeling, prefix_cache=cache)
        assert result.subgraphs
        # mine() used its default n_theta=20; fetch with the same key hits.
        entry = cache.fetch(graph, labeling, n_theta=20)
        assert entry is not None
        assert cache.hits >= 1

    def test_eviction_is_lru(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache(max_entries=2)
        for n_theta in (5, 6):
            mine(graph, labeling, n_theta=n_theta, prefix_cache=cache)
        assert len(cache) == 2
        # Touch n_theta=5 so n_theta=6 is the LRU entry, then insert a third.
        assert cache.fetch(graph, labeling, n_theta=5) is not None
        mine(graph, labeling, n_theta=7, prefix_cache=cache)
        assert cache.evictions == 1
        assert cache.fetch(graph, labeling, n_theta=5) is not None
        assert cache.fetch(graph, labeling, n_theta=6) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            SuperGraphCache(max_entries=0)

    def test_uncacheable_inputs_bypass(self):
        graph, labeling = random_continuous_instance(3)
        cache = SuperGraphCache()
        # shuffled without an int seed is not content-addressable.
        key = cache.key_of(graph, labeling, n_theta=10, edge_order="shuffled")
        assert key is None
        assert cache.fetch(
            graph, labeling, n_theta=10, edge_order="shuffled"
        ) is None
        assert len(cache) == 0


class CountingCache(SuperGraphCache):
    """SuperGraphCache that counts content-digest computations."""

    digest_calls = 0  # class attr so __slots__ on the base stays valid

    def key_of(self, graph, labeling, **kwargs):
        type(self).digest_calls += 1
        return super().key_of(graph, labeling, **kwargs)


class TestKeyMemo:
    def setup_method(self):
        CountingCache.digest_calls = 0

    def test_miss_digests_exactly_once(self, instance):
        """Regression: fetch and the store after a miss used to hash the
        whole instance twice; the memo threads the key through."""
        graph, labeling = instance
        cache = CountingCache()
        mine(graph, labeling, prefix_cache=cache)
        assert cache.misses == 1
        assert CountingCache.digest_calls == 1

    def test_hit_digests_exactly_once(self, instance):
        graph, labeling = instance
        cache = CountingCache()
        mine(graph, labeling, prefix_cache=cache)
        CountingCache.digest_calls = 0
        mine(graph, labeling, prefix_cache=cache)
        assert cache.hits >= 1
        assert CountingCache.digest_calls == 1

    def test_graph_mutation_invalidates_the_memo(self, instance):
        graph, labeling = instance
        cache = CountingCache()
        key_before = cache.resolve_key(graph, labeling, n_theta=10)
        assert cache.resolve_key(graph, labeling, n_theta=10) == key_before
        assert CountingCache.digest_calls == 1  # second call was memoised
        graph.add_edge(0, 4)
        key_after = cache.resolve_key(graph, labeling, n_theta=10)
        assert CountingCache.digest_calls == 2  # version bump forced a rehash
        assert key_after != key_before

    def test_prime_skips_instance_hashing(self, instance):
        graph, labeling = instance
        plain = SuperGraphCache()
        key = plain.key_of(graph, labeling, n_theta=20)
        mine(graph, labeling, prefix_cache=plain)
        cache = CountingCache()
        cache.put(key, plain.peek(key))
        cache.prime(graph, labeling, n_theta=20, edge_order="input",
                    seed=None, key=key)
        assert cache.fetch(graph, labeling, n_theta=20) is not None
        assert CountingCache.digest_calls == 0

    def test_memo_never_aliases_a_dead_objects_address(self):
        """Regression: the memo used to key on bare ``id()`` integers
        without holding the objects, so a same-shaped instance allocated
        at a freed object's reused address (and with an equal mutation
        version — true for any two identically built graphs) could inherit
        the previous instance's key and mine against the wrong cached
        super-graph."""
        poisoned = "f" * 64
        cache = SuperGraphCache()

        def fresh_pair():
            graph = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
            labeling = DiscreteLabeling((0.5, 0.5), {0: 0, 1: 1, 2: 0})
            return graph, labeling

        for _ in range(64):
            graph, labeling = fresh_pair()
            cache.prime(graph, labeling, n_theta=10, edge_order="input",
                        seed=None, key=poisoned)
            # Free in reverse allocation order so CPython's free lists hand
            # the next identically built pair the exact same addresses.
            del labeling
            del graph
            graph, labeling = fresh_pair()
            # A distinct instance must never see the primed key, however
            # its address happens to coincide with the dead object's.
            assert cache.resolve_key(graph, labeling, n_theta=10) != poisoned

    def test_prime_with_none_marks_uncacheable(self, instance):
        graph, labeling = instance
        cache = CountingCache()
        cache.prime(graph, labeling, n_theta=20, edge_order="input",
                    seed=None, key=None)
        assert cache.fetch(graph, labeling, n_theta=20) is None
        assert CountingCache.digest_calls == 0
        assert cache.misses == 0  # uncacheable, not a miss


class TestSolverIntegration:
    @pytest.mark.parametrize("seed", range(4))
    def test_cached_results_identical_discrete(self, seed):
        graph, labeling = random_discrete_instance(seed)
        cache = SuperGraphCache()
        cold = mine(graph, labeling, top_t=2, prefix_cache=cache)
        warm = mine(graph, labeling, top_t=2, prefix_cache=cache)
        plain = mine(graph, labeling, top_t=2)
        assert [s.vertices for s in warm.subgraphs] == [
            s.vertices for s in cold.subgraphs
        ]
        assert [s.vertices for s in warm.subgraphs] == [
            s.vertices for s in plain.subgraphs
        ]
        assert cache.hits >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_results_identical_continuous(self, seed):
        graph, labeling = random_continuous_instance(seed)
        cache = SuperGraphCache()
        cold = mine(graph, labeling, prefix_cache=cache)
        warm = mine(graph, labeling, prefix_cache=cache)
        assert [s.vertices for s in warm.subgraphs] == [
            s.vertices for s in cold.subgraphs
        ]
        assert cache.hits >= 1

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
        assert cache.misses >= 1
        assert cache.hits >= 1
        # Same prefix, same best region; polish can only keep or improve.
        assert variant.subgraphs[0].chi_square >= base.subgraphs[0].chi_square

    def test_naive_method_bypasses_cache(self, instance):
        graph, labeling = instance
        cache = SuperGraphCache()
        mine(graph, labeling, method="naive", prefix_cache=cache)
        assert cache.counters() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }


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
        disks = []

        def cache():
            if tier == "memory":
                return memory
            # A fresh memory tier each time: only the disk can serve hits.
            disks.append(DiskPrefixCache(tmp_path))
            return TieredPrefixCache(SuperGraphCache(), disks[-1])

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
        hits = memory.hits if tier == "memory" else sum(d.hits for d in disks)
        assert hits > 0
