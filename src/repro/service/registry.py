"""Content-addressed graph registry backing ``PUT /graphs``.

Repeat clients of the mining service keep re-uploading the same
megabyte-scale graph+labeling body with every request, and every worker
re-hashes it to find the prefix-cache key.  The registry removes both
costs: ``PUT /graphs`` validates a ``{"graph", "labels", "vertex_type"}``
document once, stores it as canonical JSON under its content digest (in
the same ``--cache-dir`` disk tier as the prefix artifacts), and returns
the 64-hex digest; ``POST /mine`` then names the instance with a
``{"graph_digest": ...}`` reference.

Stored documents carry the precomputed ``graph``/``labeling`` component
digests.  Resolving a reference seeds the digest memo of
:mod:`repro.service.digest` with them, so a worker deriving the
prefix-cache key of a discretely labeled resolved instance never hashes
it.  (Continuous keys also cover the order Algorithm 2 scans the solver's
working copy in, so the solver hashes that itself.)  Workers memoise
materialised instances in a small LRU keyed by digest, so back-to-back
jobs over the same graph reuse one object and its memoised digests.

Writes are atomic (same temp-file + ``os.replace`` discipline as the disk
cache), so replicas sharing a registry directory never observe partial
documents; the digest doubles as an integrity check on read.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.exceptions import RequestValidationError, ServiceError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.digest import (
    _hash_lines,
    graph_digest,
    labeling_digest,
    remember_digest,
)
from repro.service.protocol import build_instance, validate_graph_document

__all__ = ["GraphRegistry"]

Labeling = DiscreteLabeling | ContinuousLabeling

_FORMAT = "repro-graph/v1"
_RESOLVE_LRU = 8
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_REQUIRED_KEYS = (
    "graph", "labels", "vertex_type", "graph_key", "labeling_key",
    "vertices", "edges", "labels_type",
)


class GraphRegistry:
    """Validated graph+labeling documents stored under their content digest.

    Thread-safe (the HTTP server stores from handler threads; workers
    resolve from their own processes against the shared directory).  The
    registry digest covers the canonical component digests plus the vertex
    type, so two uploads of the same instance — regardless of JSON key
    order or edge order — collapse onto one document.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # The registry shares --cache-dir with the pickle-artifact disk
        # tier, so directories it creates get the same owner-only
        # restriction (see the trust note in repro.service.cache).
        created = [
            p for p in (self.root, *self.root.parents) if not p.exists()
        ]
        self.root.mkdir(parents=True, exist_ok=True)
        for path in created:
            os.chmod(path, 0o700)
        self._lock = threading.Lock()
        self._resolved: OrderedDict[str, tuple[Graph, Labeling]] = OrderedDict()

    def _path(self, digest: str) -> Path | None:
        # Digests are sha256 hexdigests; anything else — in particular a
        # crafted '../..' suffix from GET /graphs/<digest> — never touches
        # the filesystem (defence against path traversal / file probing).
        if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
            return None
        return self.root / f"{digest}.json"

    # -- write side ------------------------------------------------------
    def put_document(self, doc: Any) -> dict[str, Any]:
        """Validate, digest, and persist one graph document.

        Returns the registration summary ``{"graph_digest", "vertices",
        "edges", "labels_type", "created"}`` (``created`` is False when the
        digest was already present — the upload is then a no-op).  Raises
        :class:`~repro.exceptions.RequestValidationError` for invalid
        documents, including instances whose vertices cannot be canonically
        digested.
        """
        normalised = validate_graph_document(doc)
        graph, labeling = build_instance(
            {**normalised, "graph_digest": None}
        )
        try:
            graph_key = graph_digest(graph)
            labeling_key = labeling_digest(labeling)
        except ServiceError as exc:
            raise RequestValidationError(
                f"instance cannot be content-addressed: {exc}"
            ) from exc
        digest = _hash_lines("registry/v1", [
            f"graph:{graph_key}",
            f"labeling:{labeling_key}",
            f"vertex_type:{normalised['vertex_type']}",
        ])
        record = {
            "format": _FORMAT,
            "graph": normalised["graph"],
            "labels": normalised["labels"],
            "vertex_type": normalised["vertex_type"],
            "graph_key": graph_key,
            "labeling_key": labeling_key,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "labels_type": normalised["labels"]["type"],
        }
        path = self._path(digest)
        if path is None:  # pragma: no cover - _hash_lines is always 64-hex
            raise ServiceError(f"malformed registry digest {digest!r}")
        created = not path.exists()
        if created:
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
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
        return {
            "graph_digest": digest,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "labels_type": record["labels_type"],
            "created": created,
        }

    # -- read side -------------------------------------------------------
    def info(self, digest: str) -> dict[str, Any] | None:
        """Document metadata without materialising the instance, or None.

        None for an unknown digest and for a record that is torn, foreign
        or incomplete — the one validity rule that submission, ``GET
        /graphs/<digest>`` and :meth:`resolve` all apply.
        """
        record = self._load(digest)
        if record is None:
            return None
        return {
            "graph_digest": digest,
            "vertices": record["vertices"],
            "edges": record["edges"],
            "labels_type": record["labels_type"],
            "vertex_type": record["vertex_type"],
        }

    def _load(self, digest: str) -> dict[str, Any] | None:
        path = self._path(digest)
        if path is None:
            return None
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            record = json.loads(raw)
            if record.get("format") != _FORMAT:
                raise ValueError(record.get("format"))
            missing = [k for k in _REQUIRED_KEYS if k not in record]
            if missing:
                raise ValueError(f"missing keys: {missing}")
            return record
        except (ValueError, AttributeError):
            # A torn, foreign, or incomplete file is indistinguishable from
            # absence — the caller re-uploads, exactly as for an unknown
            # digest.
            return None

    def resolve(self, digest: str) -> tuple[Graph, Labeling]:
        """Materialise the ``(graph, labeling)`` registered under ``digest``.

        Raises :class:`~repro.exceptions.ServiceError` for unknown (or
        unreadable) digests.  Resolutions are memoised in a small LRU, so
        back-to-back jobs over one graph share a single materialised
        instance, and each new one has its stored component digests seeded
        into the digest memo.
        """
        with self._lock:
            cached = self._resolved.get(digest)
            if cached is not None:
                self._resolved.move_to_end(digest)
                return cached
        record = self._load(digest)
        if record is None:
            raise ServiceError(
                f"unknown graph digest {digest!r} — upload the instance "
                "with PUT /graphs first"
            )
        graph, labeling = build_instance({
            "graph": record["graph"],
            "labels": record["labels"],
            "vertex_type": record["vertex_type"],
            "graph_digest": None,
        })
        remember_digest(graph, record["graph_key"])
        remember_digest(labeling, record["labeling_key"])
        with self._lock:
            self._resolved[digest] = (graph, labeling)
            self._resolved.move_to_end(digest)
            while len(self._resolved) > _RESOLVE_LRU:
                self._resolved.popitem(last=False)
        return graph, labeling

    def __len__(self) -> int:
        return sum(
            1 for p in self.root.iterdir()
            if p.suffix == ".json" and not p.name.startswith(".tmp-")
        )
