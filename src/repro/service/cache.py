"""Bounded LRU cache of constructed/reduced super-graph pipeline prefixes.

:class:`SuperGraphCache` implements the :class:`repro.core.solver.PrefixCache`
interface: the solver consults it before running Algorithm 1/2 construction
and Algorithm 5 reduction, and stores the freshly computed stage on a miss.
Keys are the content digests of :mod:`repro.service.digest`, so any two
requests over bit-identical inputs share one entry.  Discrete keys ignore
how the graph was assembled; continuous keys include the order Algorithm 2
scans the graph in, because its output depends on that order.

Entries hold the **post-reduction** super-graph plus the pre-reduction
sizes the pipeline report needs.  Cached super-graphs are read-only by
contract (the search suffix only reads them); the cache never copies, so a
hit costs one digest plus an ``OrderedDict`` move.

A miss costs exactly one digest too: the key computed by ``fetch`` is
memoised against its input objects (held by strong reference and matched
by identity plus mutation :attr:`~repro.graph.graph.Graph.version`), and
the solver's follow-up ``store`` on the same inputs consumes the memo
instead of re-hashing the whole instance.  Holding real references — not
bare ``id()`` integers — means a memo can never alias a *different*
instance that happens to reuse a freed object's address.
``prime`` seeds the same memo from an externally known key (the graph
registry ships precomputed digests), so registry-resolved jobs skip
instance hashing entirely.

The cache is deliberately not thread-safe — in the service each worker
*process* owns one instance (matching the telemetry design: single-threaded
hot paths, no locks).  Hit/miss/eviction counts are plain attributes: a
service worker ships their per-job deltas upstream, where the job manager
sums them into the pool's ``service.cache.*`` counters.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.supergraph import SuperGraph
from repro.exceptions import DigestError, ServiceError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.digest import (
    labeling_digest,
    prefix_digest,
    prefix_digest_from_parts,
    scan_order_digest,
)

__all__ = ["CachedPrefixEntry", "DEFAULT_MAX_ENTRIES", "SuperGraphCache"]

DEFAULT_MAX_ENTRIES = 32
"""Default cache capacity — a reduced super-graph is small (<= n_theta
vertices plus payloads), so a few dozen distinct (graph, labeling, params)
combinations fit comfortably in a worker process."""

Labeling = DiscreteLabeling | ContinuousLabeling


@dataclass(frozen=True, slots=True)
class CachedPrefixEntry:
    """One cached pipeline prefix: the reduced stage plus report metadata."""

    supergraph: SuperGraph
    super_vertices_before: int
    super_edges_before: int
    contractions: int


class SuperGraphCache:
    """Bounded LRU of pipeline prefixes keyed by content digest.

    Satisfies :class:`repro.core.solver.PrefixCache`.  ``fetch`` returns
    None both on a genuine miss and for uncacheable inputs (undigestable
    vertex types, a ``shuffled`` edge order without an int seed); ``store``
    silently skips the same uncacheable inputs, so the solver never has to
    distinguish the cases.

    The digest-level ``get``/``put`` primitives are also public so tiered
    compositions (:class:`repro.service.diskcache.TieredPrefixCache`) can
    reuse this class as their memory tier without double-hashing.
    """

    __slots__ = (
        "max_entries", "_entries", "_key_memo", "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ServiceError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedPrefixEntry] = OrderedDict()
        # (graph, labeling, (version, n_theta, edge_order, seed), key) —
        # a single slot; the solver's fetch/store pairs are strictly
        # interleaved per round.  The memo holds strong references and
        # matches by identity, so a dead object's reused address can never
        # resurrect another instance's key (it pins at most one
        # graph+labeling until the next resolve, prime, or clear).
        self._key_memo: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def key_of(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
    ) -> str | None:
        """The cache key for these inputs, or None when uncacheable.

        Discrete prefixes are keyed on :func:`~repro.service.digest.
        prefix_digest`, which ignores insertion order.  Algorithm 2 does
        not: two graphs with equal content can build different continuous
        super-graphs, so continuous prefixes are keyed on the
        :func:`~repro.service.digest.scan_order_digest` of ``graph`` — the
        graph the construction scans — in place of its content digest.
        """
        try:
            if isinstance(labeling, DiscreteLabeling):
                return prefix_digest(
                    graph, labeling,
                    n_theta=n_theta, edge_order=edge_order, seed=seed,
                )
            return prefix_digest_from_parts(
                scan_order_digest(graph), labeling_digest(labeling),
                discrete=False, n_theta=n_theta, edge_order=edge_order,
                seed=seed,
            )
        except DigestError:
            return None

    # -- key memoisation ------------------------------------------------
    def _memo_signature(
        self,
        graph: Graph,
        labeling: Labeling,
        n_theta: int,
        edge_order: str,
        seed: int | random.Random | None,
    ) -> tuple | None:
        # A random.Random seed has no stable identity worth memoising.
        if seed is not None and not isinstance(seed, int):
            return None
        return (graph.version, n_theta, edge_order, seed)

    def resolve_key(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
        consume: bool = False,
    ) -> str | None:
        """``key_of`` with a single-slot identity memo.

        A ``fetch`` records the computed key; the ``store`` that follows
        the same miss passes ``consume=True`` to reuse it (and clear the
        slot), so one miss pays for exactly one content digest.  The memo
        matches its inputs by object identity *while holding strong
        references to them* — a same-shaped but distinct instance (even one
        allocated at a freed object's address) always re-digests — and the
        signature includes the graph's mutation :attr:`~repro.graph.graph.
        Graph.version`, so the solver mutating its working graph between
        top-t rounds can never resurrect a stale key either.
        """
        signature = self._memo_signature(
            graph, labeling, n_theta, edge_order, seed
        )
        memo = self._key_memo
        if (
            memo is not None
            and signature is not None
            and memo[0] is graph
            and memo[1] is labeling
            and memo[2] == signature
        ):
            if consume:
                self._key_memo = None
            return memo[3]
        key = self.key_of(
            graph, labeling, n_theta=n_theta, edge_order=edge_order, seed=seed
        )
        if signature is not None:
            self._key_memo = (
                None if consume else (graph, labeling, signature, key)
            )
        return key

    def prime(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
        key: str | None,
    ) -> None:
        """Pre-seed the key memo with an externally computed key.

        The graph registry stores component digests beside each graph, so
        workers resolving a ``graph_digest`` request can derive the prefix
        key from those strings and prime the cache — the following
        ``fetch``/``store`` over the same objects then never hash the
        instance at all.  ``key=None`` marks the inputs uncacheable.
        """
        signature = self._memo_signature(
            graph, labeling, n_theta, edge_order, seed
        )
        if signature is not None:
            self._key_memo = (graph, labeling, signature, key)

    # -- digest-level primitives ----------------------------------------
    def get(self, key: str) -> CachedPrefixEntry | None:
        """Entry under ``key`` (counted as a hit/miss, LRU-refreshed)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CachedPrefixEntry) -> None:
        """Insert ``entry`` under ``key``, evicting the LRU tail if full."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def peek(self, key: str) -> CachedPrefixEntry | None:
        """Entry under ``key`` without counters or LRU effects."""
        return self._entries.get(key)

    # -- PrefixCache interface -------------------------------------------
    def fetch(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
    ) -> CachedPrefixEntry | None:
        """Look up the cached prefix; None on miss or uncacheable inputs."""
        key = self.resolve_key(
            graph, labeling, n_theta=n_theta, edge_order=edge_order, seed=seed
        )
        if key is None:
            return None
        return self.get(key)

    def store(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
        supergraph: SuperGraph,
        super_vertices_before: int,
        super_edges_before: int,
        contractions: int,
    ) -> None:
        """Record a freshly computed prefix, evicting the LRU entry if full.

        The stored super-graph must not be mutated afterwards — the solver
        guarantees this (only the construct/reduce stages mutate, and they
        are exactly what the cache replaces).
        """
        key = self.resolve_key(
            graph, labeling,
            n_theta=n_theta, edge_order=edge_order, seed=seed, consume=True,
        )
        if key is None:
            return
        self.put(key, CachedPrefixEntry(
            supergraph=supergraph,
            super_vertices_before=super_vertices_before,
            super_edges_before=super_edges_before,
            contractions=contractions,
        ))

    def counters(self) -> dict[str, int]:
        """Plain-data snapshot of the hit/miss/eviction counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._key_memo = None
