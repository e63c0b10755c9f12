"""Content-addressed on-disk tier of the super-graph prefix cache.

:class:`DiskPrefixCache` persists pickled
:class:`~repro.service.cache.CachedPrefixEntry` artifacts under
``<cache_dir>/prefix/<digest>.pkl``.  Because keys are the content digests
of :mod:`repro.service.digest`, the directory is safe to share: worker
respawns, sibling worker processes, and sibling service replicas pointed
at the same ``--cache-dir`` all hit the same artifacts, so the
construct + reduce prefix is computed once per *content*, not once per
process lifetime.

Design contract:

* **atomic writes** — each artifact is written to a same-directory temp
  file and ``os.replace``d into place, so readers never observe a partial
  pickle and concurrent writers of the same key last-write-win with
  identical bytes;
* **corruption-tolerant reads** — a truncated, garbled, or wrong-typed
  artifact is treated as a miss (and unlinked best-effort), never an
  error: the cache must only ever make requests faster;
* **byte-budget LRU eviction** — after a write, oldest-``mtime`` artifacts
  are deleted until the directory fits ``max_bytes``; read hits refresh
  the file's mtime so hot entries survive.

.. warning:: **Trust boundary.**  Artifacts are Python pickles, and
   ``pickle.loads`` executes arbitrary code during deserialization — the
   ``isinstance`` checks above run only *after* that.  Any principal with
   write access to ``--cache-dir`` therefore gains code execution in every
   worker that reads from it.  The cache directory must be writable only
   by the service's own (mutually trusting) workers and replicas; the tier
   enforces ``0o700`` permissions on the directories it creates, and
   operators pointing replicas at shared storage must preserve that
   restriction.


:class:`TieredPrefixCache` composes the per-process
:class:`~repro.service.cache.SuperGraphCache` over a shared
:class:`DiskPrefixCache` into one object satisfying the solver's
:class:`repro.core.solver.PrefixCache` protocol: fetches fall through
memory to disk (promoting disk hits into memory), stores write through to
both tiers.  Key digesting is delegated to the memory tier, so its
single-digest memoisation (and registry priming) covers the disk tier for
free.
"""

from __future__ import annotations

import os
import pickle
import random
import re
import tempfile
from pathlib import Path

from repro.core.supergraph import SuperGraph
from repro.exceptions import ServiceError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.cache import CachedPrefixEntry, SuperGraphCache

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DiskPrefixCache",
    "TieredPrefixCache",
]

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
"""Default on-disk budget (512 MiB) — a reduced super-graph artifact is a
few KiB, so the default holds tens of thousands of distinct prefixes."""

Labeling = DiscreteLabeling | ContinuousLabeling

_KEY_RE = re.compile(r"^[0-9a-f]{16,128}$")
_SUFFIX = ".pkl"


class DiskPrefixCache:
    """Digest-keyed pickle store with atomic writes and byte-budget LRU.

    Operates purely at the digest level (``get(key)``/``put(key, entry)``)
    — pair it with a :class:`~repro.service.cache.SuperGraphCache` via
    :class:`TieredPrefixCache` to obtain the solver-facing interface.
    Counters (`hits`/`misses`/`evictions`/`writes`/`corrupt_reads`) are
    plain attributes; the service pool reports them as
    ``service.diskcache.*``.
    """

    __slots__ = (
        "root", "max_bytes",
        "hits", "misses", "evictions", "writes", "corrupt_reads",
    )

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError(
                f"cache max_bytes must be >= 1 or None, got {max_bytes}"
            )
        # Artifacts are pickles (code execution on load), so the tier must
        # not be writable by untrusted principals: every directory this
        # cache creates is restricted to the owning user.  A pre-existing
        # cache_dir is left as the operator configured it.
        self.root = Path(cache_dir) / "prefix"
        created = [
            p for p in (self.root, *self.root.parents) if not p.exists()
        ]
        self.root.mkdir(parents=True, exist_ok=True)  # racing sibling is ok
        for path in created:
            os.chmod(path, 0o700)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        self.corrupt_reads = 0

    def _path(self, key: str) -> Path | None:
        # Keys are sha256 hexdigests; anything else never touches the
        # filesystem (defence against path-traversal via a crafted key).
        if not _KEY_RE.match(key):
            return None
        return self.root / f"{key}{_SUFFIX}"

    # -- primitives -----------------------------------------------------
    def get(self, key: str) -> CachedPrefixEntry | None:
        """The entry stored under ``key``; any failure mode is a miss."""
        path = self._path(key)
        if path is None:
            self.misses += 1
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = pickle.loads(raw)
            if not isinstance(entry, CachedPrefixEntry):
                raise TypeError(type(entry).__name__)
            if not isinstance(entry.supergraph, SuperGraph):
                raise TypeError(type(entry.supergraph).__name__)
        except Exception:  # noqa: BLE001 - a bad artifact must be a miss
            self.corrupt_reads += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / read-only
                pass
            return None
        try:
            os.utime(path, None)  # LRU recency for the byte-budget sweep
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        self.hits += 1
        return entry

    def put(self, key: str, entry: CachedPrefixEntry) -> None:
        """Atomically persist ``entry`` under ``key``; never raises."""
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
        except Exception:  # noqa: BLE001 - disk full etc.: cache stays warm-less
            return
        self.writes += 1
        self._evict_to_budget(keep=path.name)

    def _evict_to_budget(self, keep: str | None = None) -> None:
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
            if keep is not None and path.name == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent delete
                continue
            total -= size
            self.evictions += 1

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return sum(
            1 for p in self.root.iterdir()
            if p.suffix == _SUFFIX and not p.name.startswith(".tmp-")
        )

    def __contains__(self, key: str) -> bool:
        path = self._path(key)
        return path is not None and path.exists()

    def total_bytes(self) -> int:
        """Bytes currently used by artifacts in this tier."""
        total = 0
        for path in self.root.iterdir():
            if path.suffix != _SUFFIX or path.name.startswith(".tmp-"):
                continue
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - concurrent delete
                continue
        return total

    def counters(self) -> dict[str, int]:
        """Plain-data snapshot of this tier's counters."""
        return {
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "disk_evictions": self.evictions,
            "disk_writes": self.writes,
            "disk_corrupt": self.corrupt_reads,
            "disk_entries": len(self),
        }


class TieredPrefixCache:
    """Memory-over-disk composition satisfying the solver's ``PrefixCache``.

    ``fetch`` consults the in-process :class:`SuperGraphCache` first and
    falls through to the shared :class:`DiskPrefixCache`, promoting disk
    hits into memory; ``store`` writes through to both tiers.  The memory
    tier computes (and memoises) every key, so the composed object keeps
    the one-digest-per-miss guarantee and registry priming of the memory
    tier.  ``last_tier`` records where the most recent ``fetch`` was
    answered (``"memory"``, ``"disk"``, or None) — the solver surfaces it
    on its ``solver.cache_lookup`` span.
    """

    __slots__ = ("memory", "disk", "last_tier")

    def __init__(self, memory: SuperGraphCache, disk: DiskPrefixCache) -> None:
        self.memory = memory
        self.disk = disk
        self.last_tier: str | None = None

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
        """Seed the memory tier's key memo (see ``SuperGraphCache.prime``)."""
        self.memory.prime(
            graph, labeling,
            n_theta=n_theta, edge_order=edge_order, seed=seed, key=key,
        )

    def fetch(
        self,
        graph: Graph,
        labeling: Labeling,
        *,
        n_theta: int,
        edge_order: str = "input",
        seed: int | random.Random | None = None,
    ) -> CachedPrefixEntry | None:
        """Memory first, then disk (with promotion); None on full miss."""
        self.last_tier = None
        key = self.memory.resolve_key(
            graph, labeling, n_theta=n_theta, edge_order=edge_order, seed=seed
        )
        if key is None:
            return None
        entry = self.memory.get(key)
        if entry is not None:
            self.last_tier = "memory"
            return entry
        entry = self.disk.get(key)
        if entry is not None:
            self.last_tier = "disk"
            self.memory.put(key, entry)
        return entry

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
        """Write the freshly computed prefix through both tiers."""
        key = self.memory.resolve_key(
            graph, labeling,
            n_theta=n_theta, edge_order=edge_order, seed=seed, consume=True,
        )
        if key is None:
            return
        entry = CachedPrefixEntry(
            supergraph=supergraph,
            super_vertices_before=super_vertices_before,
            super_edges_before=super_edges_before,
            contractions=contractions,
        )
        self.memory.put(key, entry)
        self.disk.put(key, entry)

    def counters(self) -> dict[str, int]:
        """Merged memory + disk counter snapshot."""
        merged = self.memory.counters()
        merged.update(self.disk.counters())
        return merged

    def clear(self) -> None:
        """Drop the memory tier (disk artifacts are left in place)."""
        self.memory.clear()
