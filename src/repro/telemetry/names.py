"""The stable metric namespace of the mining pipeline.

Every instrumentation site records against one of these dotted names, so
traces from different versions stay comparable and dashboards/tests can
reference metrics without grepping the source.  The scheme is
``<stage>.<quantity>``; see ``docs/observability.md`` for the full
semantics of each entry.

Adding a name here is cheap; renaming one is a breaking change to every
persisted trace — prefer adding.
"""

from __future__ import annotations

__all__ = [
    "CONSTRUCT_EDGES_CONTRACTED",
    "CONSTRUCT_EDGES_SCANNED",
    "CONSTRUCT_SUPER_EDGES",
    "CONSTRUCT_SUPER_VERTEX_SIZE",
    "CONSTRUCT_SUPER_VERTICES",
    "CORRECTION_DELTA_STAR",
    "CORRECTION_REGIONS_FILTERED",
    "CORRECTION_TESTABLE_HYPOTHESES",
    "CORRECTION_TESTABLE_MIN_SIZE",
    "ENUMERATE_SETS_EMITTED",
    "REDUCE_EDGES_CONTRACTED",
    "REDUCE_HEAP_COMPACTIONS",
    "REDUCE_HEAP_REPRIORITISED",
    "REDUCE_HEAP_STALE",
    "REDUCE_VERTICES_AFTER",
    "REDUCE_VERTICES_BEFORE",
    "SEARCH_BEST_UPDATES",
    "SEARCH_BOUND_CUTS",
    "SEARCH_BOUND_EVALUATIONS",
    "SEARCH_CHI_SQUARE_EVALUATIONS",
    "SEARCH_KERNEL_BATCHES",
    "SEARCH_STATES_PER_CALL",
    "SEARCH_STATES_VISITED",
    "SEARCH_TESTABILITY_CUTS",
    "SERVICE_CACHE_EVICTIONS",
    "SERVICE_CACHE_HITS",
    "SERVICE_CACHE_MISSES",
    "SERVICE_DISKCACHE_CORRUPT",
    "SERVICE_DISKCACHE_EVICTIONS",
    "SERVICE_DISKCACHE_HITS",
    "SERVICE_DISKCACHE_MISSES",
    "SERVICE_DISKCACHE_WRITES",
    "SERVICE_GRAPHS_REGISTERED",
    "SERVICE_JOBS_COMPLETED",
    "SERVICE_JOBS_FAILED",
    "SERVICE_JOBS_SUBMITTED",
    "SERVICE_JOBS_TIMEOUT",
    "SERVICE_PROGRESS_UPDATES",
    "SERVICE_QUEUE_REJECTIONS",
    "SERVICE_REQUESTS_TOTAL",
    "SERVICE_REQUEST_SECONDS",
    "SERVICE_TRACES_PERSISTED",
    "SERVICE_WORKERS_RESPAWNED",
    "SOLVER_POLISH_IMPROVEMENTS",
    "SOLVER_POLISH_MOVES",
    "SOLVER_ROUNDS",
    "SUPERGRAPH_MERGES",
    "SUPERGRAPH_MERGE_ABSORBED_SIZE",
    "TELEMETRY_REGISTRY_MERGES",
    "TELEMETRY_SPANS_MERGED",
]

# --- super-graph construction (Algorithms 1 and 2) --------------------
CONSTRUCT_EDGES_SCANNED = "construct.edges_scanned"
"""Counter: original edges examined by the construction pass."""

CONSTRUCT_EDGES_CONTRACTED = "construct.edges_contracted"
"""Counter: edges whose endpoints were merged into one super-vertex."""

CONSTRUCT_SUPER_VERTICES = "construct.super_vertices"
"""Gauge: super-vertices after construction (n_s, last round)."""

CONSTRUCT_SUPER_EDGES = "construct.super_edges"
"""Gauge: super-edges after construction (m_s, last round)."""

CONSTRUCT_SUPER_VERTEX_SIZE = "construct.super_vertex_size"
"""Histogram: original vertices per constructed super-vertex."""

# --- reduction (Algorithm 5) ------------------------------------------
REDUCE_VERTICES_BEFORE = "reduce.vertices_before"
"""Gauge: super-vertices entering the reduction (last round)."""

REDUCE_VERTICES_AFTER = "reduce.vertices_after"
"""Gauge: super-vertices after the reduction hit n_theta (last round)."""

REDUCE_EDGES_CONTRACTED = "reduce.edges_contracted"
"""Counter: minimum-chi-square-sum contractions performed."""

REDUCE_HEAP_STALE = "reduce.heap_stale_entries"
"""Counter: lazy-deletion heap pops discarded because an endpoint died."""

REDUCE_HEAP_REPRIORITISED = "reduce.heap_reprioritised"
"""Counter: heap entries re-pushed because their priority had drifted."""

REDUCE_HEAP_COMPACTIONS = "reduce.heap_compactions"
"""Counter: lazy-deletion heap rebuilds triggered by stale-entry growth."""

# --- exhaustive search / enumeration (naive algorithm) ----------------
SEARCH_STATES_VISITED = "search.states_visited"
"""Counter: connected sets visited by the exhaustive search."""

SEARCH_BOUND_CUTS = "search.bound_cuts"
"""Counter: branches cut by branch-and-bound (``prune="bounds"`` only)."""

SEARCH_BOUND_EVALUATIONS = "search.bound_evaluations"
"""Counter: admissible upper-bound computations (``prune="bounds"`` only)."""

SEARCH_CHI_SQUARE_EVALUATIONS = "search.chi_square_evaluations"
"""Counter: chi-square statistic computations (sets meeting ``min_mass``)."""

SEARCH_BEST_UPDATES = "search.best_updates"
"""Counter: times the incumbent best set was replaced."""

SEARCH_STATES_PER_CALL = "search.states_per_call"
"""Histogram: states visited by each individual search invocation."""

SEARCH_KERNEL_BATCHES = "search.kernel_batches"
"""Counter: state batches evaluated by the vectorized numpy kernel
(``backend="numpy"`` only)."""

SEARCH_TESTABILITY_CUTS = "search.testability_cuts"
"""Counter: branches cut because no reachable extension could accumulate
the minimum testable original-vertex mass (``testability=`` searches
only; statistic-floor cuts count as ``search.bound_cuts``)."""

ENUMERATE_SETS_EMITTED = "enumerate.sets_emitted"
"""Counter: connected sets yielded by the standalone enumerator."""

# --- multiple-testing correction (repro.stats.correction) -------------
CORRECTION_DELTA_STAR = "correction.delta_star"
"""Gauge: the Tarone-corrected significance threshold ``delta*`` of the
last corrected mine (0.0 when no mass regime fit the alpha budget)."""

CORRECTION_TESTABLE_HYPOTHESES = "correction.testable_hypotheses"
"""Gauge: ``m(delta*)`` — hypotheses testable at the corrected threshold
(the Bonferroni factor of corrected p-values)."""

CORRECTION_TESTABLE_MIN_SIZE = "correction.testable_min_size"
"""Gauge: smallest original-vertex mass testable at ``delta*`` (the
search's testability-prune floor)."""

CORRECTION_REGIONS_FILTERED = "correction.regions_filtered"
"""Counter: round-winning regions that failed the corrected threshold
and were filtered from the corrected result."""

# --- super-graph bookkeeping ------------------------------------------
SUPERGRAPH_MERGES = "supergraph.merges"
"""Counter: super-vertex merge operations (construction + reduction)."""

SUPERGRAPH_MERGE_ABSORBED_SIZE = "supergraph.merge_absorbed_size"
"""Histogram: size of the smaller group absorbed by each merge."""

# --- serving layer (repro.service) ------------------------------------
# The service.cache.* / service.diskcache.* names are pool counters: the
# job manager sums them from per-job worker deltas, and no telemetry
# session records them.
SERVICE_CACHE_HITS = "service.cache.hits"
"""Counter: super-graph prefix cache lookups answered from the cache."""

SERVICE_CACHE_MISSES = "service.cache.misses"
"""Counter: prefix cache lookups that fell through to construct + reduce."""

SERVICE_CACHE_EVICTIONS = "service.cache.evictions"
"""Counter: least-recently-used entries dropped by the bounded cache."""

SERVICE_DISKCACHE_HITS = "service.diskcache.hits"
"""Counter: prefix lookups answered from the shared on-disk tier (after a
memory-tier miss; the entry is promoted back into memory)."""

SERVICE_DISKCACHE_MISSES = "service.diskcache.misses"
"""Counter: on-disk tier lookups that found no (readable) artifact."""

SERVICE_DISKCACHE_EVICTIONS = "service.diskcache.evictions"
"""Counter: artifacts deleted by the byte-budget LRU sweep."""

SERVICE_DISKCACHE_WRITES = "service.diskcache.writes"
"""Counter: prefix artifacts atomically persisted to the disk tier."""

SERVICE_DISKCACHE_CORRUPT = "service.diskcache.corrupt_reads"
"""Counter: truncated/garbled artifacts encountered (treated as misses
and unlinked; a corrupt artifact is never an error)."""

SERVICE_GRAPHS_REGISTERED = "service.graphs_registered"
"""Counter: graph documents stored in the registry via ``PUT /graphs``."""

SERVICE_REQUESTS_TOTAL = "service.requests_total"
"""Counter: HTTP requests accepted by the mining service."""

SERVICE_REQUEST_SECONDS = "service.request_seconds"
"""Histogram: wall seconds per HTTP request (handler-side)."""

SERVICE_JOBS_SUBMITTED = "service.jobs_submitted"
"""Counter: mining jobs enqueued onto the worker pool."""

SERVICE_JOBS_COMPLETED = "service.jobs_completed"
"""Counter: jobs finished with a mining result."""

SERVICE_JOBS_TIMEOUT = "service.jobs_timeout"
"""Counter: jobs cancelled cooperatively at their deadline."""

SERVICE_JOBS_FAILED = "service.jobs_failed"
"""Counter: jobs that errored (bad instance, worker crash, ...)."""

SERVICE_QUEUE_REJECTIONS = "service.queue_rejections"
"""Counter: submissions rejected because the bounded queue was full."""

SERVICE_WORKERS_RESPAWNED = "service.workers_respawned"
"""Counter: dead worker processes detected and replaced."""

SERVICE_PROGRESS_UPDATES = "service.progress_updates"
"""Counter: live :class:`~repro.telemetry.progress.SearchProgress`
heartbeats received from workers (what ``GET /jobs/<id>/progress``
serves)."""

SERVICE_TRACES_PERSISTED = "service.traces_persisted"
"""Counter: per-job JSONL trace artifacts written by the job manager
(retrievable via ``GET /jobs/<id>/trace``)."""

# --- solver orchestration ---------------------------------------------
SOLVER_ROUNDS = "solver.rounds"
"""Counter: TSSS iterative-deletion rounds executed."""

SOLVER_POLISH_MOVES = "solver.polish_moves"
"""Counter: hill-climb moves applied by the LMCS polish pass."""

SOLVER_POLISH_IMPROVEMENTS = "solver.polish_improvements"
"""Counter: polish passes that strictly improved the statistic."""

# --- telemetry self-accounting ----------------------------------------
TELEMETRY_REGISTRY_MERGES = "telemetry.registry_merges"
"""Counter: worker metric states folded into the parent registry (one
per job that ran under a worker telemetry session)."""

TELEMETRY_SPANS_MERGED = "telemetry.spans_merged"
"""Counter: span records shipped back from workers and persisted into
per-job trace artifacts."""
