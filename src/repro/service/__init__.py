"""``repro.service`` — the concurrent mining service.

The pipeline factors into a *cacheable prefix* (Algorithm 1/2 construction
plus Algorithm 5 reduction — deterministic given the graph, the labeling,
``n_theta``, and ``edge_order``) and a *variable search suffix* (``top_t``,
``min_size``, ``prune``, ``polish``).  This package exploits that split to
serve many queries over the same graph:

``repro.service.digest``
    Canonical content digests for graphs, labelings, and pipeline-prefix
    parameters — stable across vertex insertion order.
``repro.service.cache``
    :class:`SuperGraphCache`, a bounded LRU of constructed/reduced
    super-graph stages keyed by those digests, optionally over a
    persistent on-disk tier so respawned workers and replicas sharing
    ``--cache-dir`` start warm.
``repro.service.registry``
    :class:`GraphRegistry`: content-addressed graph+labeling documents
    behind ``PUT /graphs``, so ``POST /mine`` can reference an instance by
    digest instead of re-uploading it.
``repro.service.protocol``
    The JSON request/response schema shared by the HTTP server, the worker
    pool, and the CLI.
``repro.service.jobs``
    :class:`JobManager`: a bounded job queue feeding a ``spawn``-context
    ``multiprocessing`` worker pool with per-job deadlines (cooperative
    cancellation via ``mine(check_abort=...)``), crash detection, and
    respawn.
``repro.service.server``
    :class:`MiningService`, a stdlib ``ThreadingHTTPServer`` JSON API:
    ``POST /mine``, ``GET /jobs/<id>``, ``GET /healthz``, ``GET /metricsz``.

Start one from the command line with ``python -m repro serve``; see
``docs/service.md`` for the API and operational semantics.
"""

from repro.service.cache import SuperGraphCache
from repro.service.digest import (
    encode_vertex,
    graph_digest,
    labeling_digest,
    prefix_digest,
    prefix_digest_from_parts,
    scan_order_digest,
)
from repro.service.jobs import Job, JobManager
from repro.service.protocol import (
    build_instance,
    labeling_from_doc,
    result_to_payload,
    validate_graph_document,
    validate_request,
)
from repro.service.registry import GraphRegistry
from repro.service.server import MiningService

__all__ = [
    "GraphRegistry",
    "Job",
    "JobManager",
    "MiningService",
    "SuperGraphCache",
    "build_instance",
    "encode_vertex",
    "graph_digest",
    "labeling_digest",
    "labeling_from_doc",
    "prefix_digest",
    "prefix_digest_from_parts",
    "result_to_payload",
    "scan_order_digest",
    "validate_graph_document",
    "validate_request",
]
