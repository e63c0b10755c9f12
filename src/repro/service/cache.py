"""The prefix cache: a bounded in-memory LRU over an optional disk tier.

:class:`SuperGraphCache` implements the :class:`repro.core.solver.PrefixCache`
interface.  The solver computes each round's :meth:`~SuperGraphCache.key`
once, probes :meth:`~SuperGraphCache.get` before running Algorithm 1/2
construction and Algorithm 5 reduction, and on a miss hands the fresh
:class:`~repro.core.solver.CachedPrefix` to :meth:`~SuperGraphCache.put`.
Keys are the content digests of :mod:`repro.service.digest`, so any two
requests over bit-identical inputs share one entry.  Discrete keys ignore
how the graph was assembled; continuous keys include the order Algorithm 2
scans the graph in, because its output depends on that order.  The graph
and labeling digests are memoised per object (see
:func:`repro.service.digest.graph_digest`), so a worker re-mining one
registry-resolved instance never hashes it again.

Entries hold the **post-reduction** super-graph plus the pre-reduction
sizes the pipeline report needs.  Cached super-graphs are read-only by
contract (the search suffix only reads them); the cache never copies.

With ``cache_dir`` set, the memory tier sits over pickled artifacts under
``<cache_dir>/prefix/<digest>.pkl``.  ``get`` probes memory, then disk,
and promotes disk hits into memory; ``put`` writes through to both.  The
directory is safe to share between worker processes, respawns and
service replicas, because the keys are content digests:

* **atomic writes** — an artifact is written to a same-directory temp
  file and ``os.replace``d into place, so readers never see a partial
  pickle, and a failed write (a full disk, say) leaves nothing behind;
* **corruption-tolerant reads** — a truncated, garbled or wrong-typed
  artifact is a miss (and is unlinked), never an error;
* **byte-budget LRU eviction** — after a write, oldest-``mtime`` artifacts
  are deleted until the directory fits ``max_bytes``; read hits refresh
  an artifact's mtime so hot entries survive.

.. warning:: **Trust boundary.**  Artifacts are Python pickles, and
   ``pickle.loads`` executes arbitrary code during deserialization — the
   type checks run only *after* that.  Anyone who can write to
   ``cache_dir`` can therefore run code in every worker that reads from
   it.  The directories this cache creates get ``0o700`` permissions;
   operators pointing replicas at shared storage must keep that
   restriction.

The cache is deliberately not thread-safe: in the service each worker
*process* owns one.  Its counters are one monotone dict keyed by the pool
metric names (``service.cache.*`` for the memory tier,
``service.diskcache.*`` for the disk tier); a service worker ships their
per-job deltas upstream, where the job manager sums them.
"""

from __future__ import annotations

import os
import pickle
import random
import re
import tempfile
from collections import OrderedDict
from pathlib import Path

from repro.core.solver import CachedPrefix
from repro.core.supergraph import SuperGraph
from repro.exceptions import DigestError, ServiceError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.digest import (
    graph_digest,
    labeling_digest,
    prefix_digest_from_parts,
    scan_order_digest,
)
from repro.telemetry import names as _metric

__all__ = [
    "COUNTERS",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "SuperGraphCache",
]

DEFAULT_MAX_ENTRIES = 32
"""Default memory capacity — a reduced super-graph is small (<= n_theta
vertices plus payloads), so a few dozen distinct (graph, labeling, params)
combinations fit comfortably in a worker process."""

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
"""Default on-disk budget (512 MiB) — a reduced super-graph artifact is a
few KiB, so the default holds tens of thousands of distinct prefixes."""

COUNTERS = (
    _metric.SERVICE_CACHE_HITS,
    _metric.SERVICE_CACHE_MISSES,
    _metric.SERVICE_CACHE_EVICTIONS,
    _metric.SERVICE_DISKCACHE_HITS,
    _metric.SERVICE_DISKCACHE_MISSES,
    _metric.SERVICE_DISKCACHE_EVICTIONS,
    _metric.SERVICE_DISKCACHE_WRITES,
    _metric.SERVICE_DISKCACHE_CORRUPT,
)
"""The metric names of :attr:`SuperGraphCache.counters`, in order."""

Labeling = DiscreteLabeling | ContinuousLabeling

_KEY_RE = re.compile(r"^[0-9a-f]{16,128}$")
_SUFFIX = ".pkl"


class SuperGraphCache:
    """Bounded LRU of pipeline prefixes, optionally over a disk tier.

    Satisfies :class:`repro.core.solver.PrefixCache`.  ``key`` returns None
    for uncacheable inputs (undigestable vertex types, a ``shuffled`` edge
    order without an int seed), and the solver then neither gets nor puts.
    ``last_tier`` records where the most recent ``get`` was answered
    (``"memory"``, ``"disk"``, or None on a miss); the solver reports it
    on its ``solver.cache_lookup`` span.
    """

    __slots__ = (
        "max_entries", "root", "max_bytes", "counters", "last_tier",
        "_entries",
    )

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        *,
        cache_dir: str | Path | None = None,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError(
                f"cache max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.root: Path | None = None
        if cache_dir is not None:
            # A pre-existing cache_dir is left as the operator configured
            # it; every directory created here is owner-only.
            self.root = Path(cache_dir) / "prefix"
            created = [
                p for p in (self.root, *self.root.parents) if not p.exists()
            ]
            self.root.mkdir(parents=True, exist_ok=True)  # racing sibling ok
            for path in created:
                os.chmod(path, 0o700)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.last_tier: str | None = None
        self._entries: OrderedDict[str, CachedPrefix] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def key(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
    ) -> str | None:
        """The cache key for these inputs, or None when uncacheable.

        Discrete prefixes are keyed on the graph's content digest, which
        ignores insertion order.  Algorithm 2 does not: two graphs with
        equal content can build different continuous super-graphs, so
        continuous prefixes are keyed on the :func:`~repro.service.digest.
        scan_order_digest` of ``graph`` — the graph the construction scans.
        """
        discrete = isinstance(labeling, DiscreteLabeling)
        try:
            return prefix_digest_from_parts(
                graph_digest(graph) if discrete else scan_order_digest(graph),
                labeling_digest(labeling),
                discrete=discrete, n_theta=n_theta, edge_order=edge_order,
                seed=seed,
            )
        except DigestError:
            return None

    def get(self, key: str) -> CachedPrefix | None:
        """The entry under ``key``: memory first, then disk; None on a miss."""
        self.last_tier = None
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counters[_metric.SERVICE_CACHE_HITS] += 1
            self.last_tier = "memory"
            return entry
        self.counters[_metric.SERVICE_CACHE_MISSES] += 1
        if self.root is None:
            return None
        entry = self._read(key)
        if entry is not None:
            self.last_tier = "disk"
            self._remember(key, entry)
        return entry

    def put(self, key: str, entry: CachedPrefix) -> None:
        """Store ``entry`` under ``key`` in memory and, if set, on disk.

        The stored super-graph must not be mutated afterwards — the solver
        guarantees this (only the construct/reduce stages mutate, and they
        are exactly what the cache replaces).
        """
        self._remember(key, entry)
        if self.root is not None:
            self._write(key, entry)

    # -- memory tier ------------------------------------------------------
    def _remember(self, key: str, entry: CachedPrefix) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.counters[_metric.SERVICE_CACHE_EVICTIONS] += 1

    # -- disk tier --------------------------------------------------------
    def _path(self, key: str) -> Path | None:
        # Keys are sha256 hexdigests; anything else never touches the
        # filesystem (defence against path-traversal via a crafted key).
        if self.root is None or not _KEY_RE.match(key):
            return None
        return self.root / f"{key}{_SUFFIX}"

    def _read(self, key: str) -> CachedPrefix | None:
        path = self._path(key)
        try:
            raw = path.read_bytes() if path is not None else None
        except OSError:
            raw = None
        if raw is None:
            self.counters[_metric.SERVICE_DISKCACHE_MISSES] += 1
            return None
        try:
            entry = pickle.loads(raw)
            if not isinstance(entry, CachedPrefix):
                raise TypeError(type(entry).__name__)
            if not isinstance(entry.supergraph, SuperGraph):
                raise TypeError(type(entry.supergraph).__name__)
        except Exception:  # noqa: BLE001 - a bad artifact must be a miss
            self.counters[_metric.SERVICE_DISKCACHE_CORRUPT] += 1
            self.counters[_metric.SERVICE_DISKCACHE_MISSES] += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / read-only
                pass
            return None
        try:
            os.utime(path, None)  # LRU recency for the byte-budget sweep
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        self.counters[_metric.SERVICE_DISKCACHE_HITS] += 1
        return entry

    def _write(self, key: str, entry: CachedPrefix) -> None:
        """Atomically persist ``entry``; a failed write is silently skipped."""
        path = self._path(key)
        if path is None:
            return
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:  # noqa: BLE001 - disk full etc.: stays memory-only
            return
        self.counters[_metric.SERVICE_DISKCACHE_WRITES] += 1
        self._evict_to_budget(keep=path.name)

    def _evict_to_budget(self, keep: str) -> None:
        """Delete oldest-mtime artifacts until the tier fits ``max_bytes``.

        The just-written artifact (``keep``) is never evicted — otherwise a
        single entry larger than the budget would thrash forever.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self.root.iterdir():
            if path.suffix != _SUFFIX or path.name.startswith(".tmp-"):
                continue
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent delete
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if path.name == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent delete
                continue
            total -= size
            self.counters[_metric.SERVICE_DISKCACHE_EVICTIONS] += 1
