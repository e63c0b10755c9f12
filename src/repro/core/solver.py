"""End-to-end mining pipeline: the paper's full algorithm plus baselines.

:func:`mine` is the library's main entry point.  It implements Figure 1 of
the paper:

1. construct the super-graph (Algorithm 1 for discrete labels, Algorithm 2
   for continuous ones);
2. if more than ``n_theta`` super-vertices remain, reduce with the
   minimum-chi-square-sum edge contraction (Algorithm 5);
3. run the exhaustive (naïve) search on the reduced super-graph and map the
   winner back to original vertices.

The top-t set (TSSS, Definition 2) is produced by iterative deletion: find
the MSCS, remove its vertices, repeat — exactly the scheme Section 2.1
suggests.  Removal only records the mined vertices: rounds read the
caller's graph minus them, and a survivor copy is built only for readers
whose result follows adjacency-set order (:class:`_Survivors`).  With
discrete labels, a round whose region is a union of whole
Algorithm-1 blocks leaves the other blocks intact, so the next round
assembles its super-graph from them instead of re-running Algorithm 1
(:class:`~repro.core.construct_discrete.BlockPartition`).
``method="naive"`` bypasses the super-graph entirely and runs the
exhaustive search on the input graph (the paper's baseline).
"""

from __future__ import annotations

import inspect
import random
from collections import deque
from collections.abc import (
    Callable,
    Collection,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
)
from dataclasses import dataclass, replace
from typing import Any, Protocol, runtime_checkable

from repro.exceptions import GraphError, SearchAbortedError
from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph, iter_bits
from repro.enumerate.search import (
    PRUNE_MODES,
    SEARCH_BACKENDS,
    exhaustive_best_mask,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_dense_enough
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.core.construct_continuous import (
    EDGE_ORDERS,
    EdgeOrder,
    build_continuous_supergraph,
)
from repro.core.construct_discrete import BlockPartition, build_discrete_supergraph
from repro.core.local_search import lmcs_local_search
from repro.core.reduce import reduce_supergraph
from repro.core.result import (
    MiningResult,
    PipelineReport,
    SignificantSubgraph,
    SubgraphComponent,
)
from repro.core.supergraph import SuperGraph
from repro.stats.chi_square import CountVector
from repro.stats.correction import (
    CorrectionReport,
    TaroneResult,
    TestabilityEnvelope,
    conservative_statistic_floor,
    corrected_p_value,
    hypothesis_count_envelope,
    tarone_threshold,
)
from repro.stats.significance import continuous_p_value, discrete_p_value
from repro.stats.zscore import RegionScore
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry.progress import ProgressAggregator, ProgressCallback
from repro.telemetry.span import Tracer

__all__ = [
    "CachedPrefix",
    "DEFAULT_N_THETA",
    "PARAM_CHOICES",
    "PARAM_DEFAULTS",
    "PrefixCache",
    "check_params",
    "find_mscs",
    "mine",
]

DEFAULT_N_THETA = 20
"""Default reduction threshold — the paper uses 15-20 throughout Section 5."""

PARAM_CHOICES: dict[str, tuple[str, ...]] = {
    "method": ("supergraph", "naive"),
    "edge_order": EDGE_ORDERS,
    "prune": PRUNE_MODES,
    "backend": SEARCH_BACKENDS,
    "correction": ("none", "fwer"),
}
"""The allowed values of each enumerated :func:`mine` parameter."""

Labeling = DiscreteLabeling | ContinuousLabeling


@dataclass(slots=True)
class _CorrectionContext:
    """Per-call state of an FWER-corrected mining run.

    ``tarone`` fixes the corrected significance threshold ``delta*`` and
    the testable-hypothesis count; ``statistic_floor`` is the chi-square
    value below which nothing passes ``delta*``, which seeds
    ``prune="bounds"`` searches (None when ``delta* == 0``: nothing can
    pass, so rounds run unseeded and everything is filtered).
    ``regions_filtered`` counts mined-but-failing rounds for the
    :class:`CorrectionReport`.
    """

    tarone: TaroneResult
    statistic_floor: float | None
    regions_filtered: int = 0


@dataclass(frozen=True, slots=True)
class CachedPrefix:
    """One cached pipeline prefix: the reduced stage plus report metadata."""

    supergraph: SuperGraph
    super_vertices_before: int
    super_edges_before: int
    contractions: int


@runtime_checkable
class PrefixCache(Protocol):
    """Cache of the deterministic pipeline prefix (construct + reduce).

    Algorithms 1/2 followed by Algorithm 5 are a pure function of the
    working graph, the labeling, ``n_theta``, and (for order-dependent
    continuous construction) ``edge_order``/``seed`` and the order the
    graph iterates its vertices and edges in — so their output can be
    content-addressed and reused across :func:`mine` calls over the same
    graph.  Each round the solver asks for the :meth:`key` once (for
    continuous labelings, of the graph Algorithm 2 scans), then probes
    :meth:`get` and, on a miss, hands the fresh prefix to :meth:`put`.
    :class:`repro.service.cache.SuperGraphCache` is the production
    implementation; the solver only relies on this structural interface.

    Cached super-graphs are **post-reduction and read-only**: the solver
    never mutates a fetched super-graph (the search stage only reads), so a
    single entry can back any number of sequential queries.
    """

    def key(
        self,
        graph: Graph,
        labeling: "Labeling",
        *,
        n_theta: int,
        edge_order: EdgeOrder,
        seed: int | random.Random | None,
    ) -> str | None:
        """The key of these inputs' prefix, or None when uncacheable."""
        ...

    def get(self, key: str) -> CachedPrefix | None:
        """The prefix stored under ``key``, or None on a miss."""
        ...

    def put(self, key: str, entry: CachedPrefix) -> None:
        """Store a freshly computed prefix under ``key``."""
        ...


def mine(
    graph: Graph,
    labeling: Labeling,
    *,
    top_t: int = 1,
    n_theta: int = DEFAULT_N_THETA,
    method: str = "supergraph",
    edge_order: EdgeOrder = "input",
    seed: int | random.Random | None = None,
    search_limit: int | None = None,
    min_size: int = 1,
    polish: bool = False,
    prune: str = "none",
    backend: str = "auto",
    correction: str = "none",
    alpha: float = 0.05,
    check_abort: Callable[[], bool] | None = None,
    prefix_cache: PrefixCache | None = None,
    progress: ProgressCallback | None = None,
) -> MiningResult:
    """Mine the top-t statistically significant connected subgraphs.

    Parameters
    ----------
    graph:
        The input graph; it is never mutated.
    labeling:
        A :class:`DiscreteLabeling` (Problem 1) or
        :class:`ContinuousLabeling` (Problem 2) covering every vertex.
    top_t:
        Number of vertex-disjoint regions to return (TSSS).  ``top_t=1``
        is the MSCS.
    n_theta:
        Reduction threshold for Algorithm 5 (speed/accuracy trade-off).
        Ignored by ``method="naive"``.
    method:
        ``"supergraph"`` — the paper's pipeline; ``"naive"`` — exhaustive
        search on the input graph (exponential; baseline and oracle).
    edge_order:
        Edge processing order for the continuous Algorithm 2 (which is
        order-dependent); one of ``"input"``, ``"shuffled"``,
        ``"by_chi_square"``.
    seed:
        RNG seed (an int or a :class:`random.Random`) for
        ``edge_order="shuffled"``.
    search_limit:
        Budget (>= 1) on connected sets visited per exhaustive search
        (raises :class:`~repro.exceptions.EnumerationLimitError` beyond).
    min_size:
        Minimum number of *original* vertices in a reported region; the
        search returns the best region among those that large.
    polish:
        Run the LMCS hill-climb on each mined region before reporting
        (never decreases the statistic).
    prune:
        ``"none"`` — plain exhaustive search; ``"bounds"`` — branch-and-
        bound with admissible chi-square upper bounds (identical optima,
        fewer states visited; see :mod:`repro.enumerate.bounds`).
    backend:
        Search backend: ``"auto"`` (default) and ``"numpy"`` — the
        vectorized level-synchronous batch kernel
        (:mod:`repro.enumerate.kernel`) on every search of at most 64
        vertices, in both prune modes, and the python walk on larger
        graphs; ``"python"`` — the reference DFS everywhere.  The
        backends pick the same regions, and every reported chi-square
        and p-value is the labeling's statistic of the region's
        vertices, so neither the backend nor ``prune`` changes them.
    correction:
        ``"none"`` — report raw per-region p-values (the paper's
        behaviour); ``"fwer"`` — apply the Tarone multiple-testing
        correction (:mod:`repro.stats.correction`): only regions whose
        raw p-value clears the largest testable threshold ``delta*``
        with ``m(delta*) * delta* <= alpha`` are reported, each carrying
        ``corrected_p_value = min(1, m * p_value)``, and the result's
        ``correction`` field holds a
        :class:`~repro.stats.correction.CorrectionReport`.  The corrected
        result set equals post-hoc filtering of the uncorrected top-t
        enumeration: every round mines the same region, so vertex
        removal — and hence every later round — is identical.  Under
        ``prune="none"`` each round is the uncorrected search; under
        ``prune="bounds"`` the Tarone statistic floor seeds the
        incumbent, and a round whose seeded search misses the threshold
        is searched again without the floor.  Discrete labelings only.
    alpha:
        Target family-wise error rate for ``correction="fwer"``
        (strictly between 0 and 1, checked even when unused); ignored
        under ``correction="none"``.
    check_abort:
        Cooperative-cancellation callback, polled between TSSS rounds and
        every few hundred states inside the exhaustive search; when it
        returns True the run raises
        :class:`~repro.exceptions.SearchAbortedError` (the serving layer
        maps this to a structured timeout).  A callback that never fires
        cannot change the result.
    prefix_cache:
        Optional :class:`PrefixCache` consulted before the construct +
        reduce prefix of every round (``method="supergraph"`` only — the
        naïve singleton build is cheaper than a digest).  Hits skip both
        stages; results are identical because the prefix is deterministic.
    progress:
        Optional live-progress consumer.  It receives
        :class:`~repro.telemetry.progress.SearchProgress` snapshots whose
        counters are **cumulative over the whole call** (an internal
        :class:`~repro.telemetry.progress.ProgressAggregator` folds the
        per-search streams across TSSS rounds and floor-seeded
        re-searches, so ``states_visited`` advances monotonically), with
        one final snapshot guaranteed when :func:`mine` returns or
        raises.  Observe-only; cannot change the result.

    Raises :class:`GraphError` naming the parameter when one is outside
    its allowed values (see :func:`check_params`).
    """
    check_params(locals())  # nothing but the arguments is bound yet
    labeling.validate_covers(graph)

    ctx: _CorrectionContext | None = None
    if correction == "fwer":
        if not isinstance(labeling, DiscreteLabeling):
            raise GraphError(
                "correction='fwer' requires a discrete labeling: the "
                "continuous statistic has no per-size attainable maximum, "
                "so Tarone testability is undefined"
            )
        ctx = _correction_context(graph, labeling, alpha)

    report = PipelineReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    )
    if isinstance(labeling, DiscreteLabeling):
        report.num_labels = labeling.num_labels
        report.dense_enough = graph.num_vertices > 0 and is_dense_enough(
            graph, num_labels=labeling.num_labels
        )
    else:
        report.dimensions = labeling.dimensions
        report.dense_enough = graph.num_vertices > 0 and is_dense_enough(graph)

    # Stage timing always flows through tracer spans; when global telemetry
    # is disabled a throwaway local tracer measures without publishing, so
    # the report stays populated at the same cost as the old perf_counter
    # pairs.
    tracer = _TELEMETRY.tracer if _TELEMETRY.enabled else Tracer()
    survivors = _Survivors(graph)
    # Algorithm 1's blocks of the survivors while they are known: a region
    # that is a union of whole blocks leaves the rest of the partition
    # intact, so later rounds skip the rebuild (see BlockPartition.without).
    blocks: BlockPartition | None = None
    found: list[SignificantSubgraph] = []
    aggregator = None if progress is None else ProgressAggregator(progress)
    try:
        with tracer.span(
            "solver.mine",
            method=method,
            top_t=top_t,
            n_theta=n_theta,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        ):
            # Under correction the round count, not the kept-region count,
            # drives the loop: a mined-but-filtered region still consumes
            # its round and its vertices, exactly as in the uncorrected
            # enumeration it post-hoc filters.  Uncorrected, the two
            # counts coincide.
            while report.rounds < top_t and survivors.num_vertices > 0:
                if check_abort is not None and check_abort():
                    raise SearchAbortedError()
                with tracer.span("solver.round", round=report.rounds):
                    region, blocks = _mine_one(
                        survivors,
                        labeling,
                        report,
                        tracer,
                        n_theta=n_theta,
                        method=method,
                        edge_order=edge_order,
                        seed=seed,
                        search_limit=search_limit,
                        min_size=min_size,
                        prune=prune,
                        backend=backend,
                        correction_ctx=ctx,
                        check_abort=check_abort,
                        prefix_cache=prefix_cache,
                        progress=aggregator,
                        blocks=blocks,
                        keep_blocks=report.rounds + 1 < top_t,
                    )
                    if region is None:
                        break
                    if polish:
                        region = _polish(
                            survivors.graph(), labeling, region, tracer
                        )
                    if ctx is None:
                        found.append(region)
                    elif ctx.tarone.passes(region.p_value):
                        found.append(replace(
                            region,
                            corrected_p_value=corrected_p_value(
                                region.p_value, ctx.tarone.num_testable
                            ),
                        ))
                    else:
                        ctx.regions_filtered += 1
                    report.rounds += 1
                    # The survivors and blocks only matter to a round that
                    # follows; the last round leaves them be.
                    if report.rounds < top_t:
                        survivors.remove(region.vertices)
                        if blocks is not None:
                            blocks = blocks.without(region.vertices)
    finally:
        # The guaranteed final snapshot: cumulative over every search call
        # this mine() issued, emitted on success, abort, and error alike.
        if aggregator is not None:
            aggregator.flush()
    correction_report = None
    if ctx is not None:
        correction_report = CorrectionReport(
            method="fwer",
            alpha=alpha,
            delta_star=ctx.tarone.delta_star,
            num_testable=ctx.tarone.num_testable,
            testable_min_size=ctx.tarone.testable_min_size,
            counts_mode="envelope",
            regions_filtered=ctx.regions_filtered,
        )
    if _TELEMETRY.enabled:
        _TELEMETRY.metrics.count(_metric.SOLVER_ROUNDS, report.rounds)
        if correction_report is not None:
            metrics = _TELEMETRY.metrics
            metrics.set_gauge(
                _metric.CORRECTION_DELTA_STAR, correction_report.delta_star
            )
            metrics.set_gauge(
                _metric.CORRECTION_TESTABLE_HYPOTHESES,
                correction_report.num_testable,
            )
            metrics.set_gauge(
                _metric.CORRECTION_TESTABLE_MIN_SIZE,
                correction_report.testable_min_size,
            )
            metrics.count(
                _metric.CORRECTION_REGIONS_FILTERED,
                correction_report.regions_filtered,
            )
    return MiningResult(
        subgraphs=tuple(found), report=report, correction=correction_report
    )


PARAM_DEFAULTS: dict[str, Any] = {
    name: param.default
    for name, param in inspect.signature(mine).parameters.items()
    if param.kind is param.KEYWORD_ONLY
    and name not in ("check_abort", "prefix_cache", "progress")
}
"""The tunable keywords of :func:`mine` (all but its runtime hooks) and
their defaults, in signature order."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_params(params: Mapping[str, Any]) -> None:
    """Check every :data:`PARAM_DEFAULTS` key of ``params`` against its
    allowed values.

    Raises :class:`GraphError` whose message starts with the offending
    parameter's name.  :func:`mine` runs this on its own arguments; the
    service runs it on request documents before queueing them.
    """
    for name in ("top_t", "n_theta", "min_size", "search_limit"):
        value = params[name]
        if name == "search_limit" and value is None:
            continue
        if not _is_int(value) or value < 1:
            raise GraphError(f"{name} must be an integer >= 1, got {value!r}")
    seed = params["seed"]
    if not (seed is None or _is_int(seed) or isinstance(seed, random.Random)):
        raise GraphError(f"seed must be an integer, got {seed!r}")
    for name, choices in PARAM_CHOICES.items():
        if params[name] not in choices:
            raise GraphError(
                f"{name} must be one of {choices}, got {params[name]!r}"
            )
    if not isinstance(params["polish"], bool):
        raise GraphError(f"polish must be a boolean, got {params['polish']!r}")
    alpha = params["alpha"]
    if not (
        isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
        and 0.0 < alpha < 1.0
    ):
        raise GraphError(
            f"alpha must be a number strictly between 0 and 1, got {alpha!r}"
        )


def find_mscs(graph: Graph, labeling: Labeling, **kwargs) -> SignificantSubgraph:
    """Convenience wrapper: the Most Significant Connected Subgraph.

    Accepts the same keyword arguments as :func:`mine` (except ``top_t``).
    Raises :class:`GraphError` if the graph is empty.
    """
    result = mine(graph, labeling, top_t=1, **kwargs)
    if not result.subgraphs:
        raise GraphError("the graph has no vertices to mine")
    return result.best


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _correction_context(
    graph: Graph, labeling: DiscreteLabeling, alpha: float
) -> _CorrectionContext:
    """Fix ``delta*`` and the statistic floor for one corrected run.

    The hypothesis-count envelope and the testability envelope both come
    from the *original* graph and null model, so ``delta*`` is a constant
    of the call — later rounds mine shrinking working graphs, whose
    connected-subgraph families are subsets of the original's, keeping
    the count envelope (and hence the FWER guarantee) valid throughout.
    """
    envelope = TestabilityEnvelope(labeling.probabilities)
    max_degree = max(
        (graph.degree(v) for v in graph.vertices()), default=0
    )
    counts = hypothesis_count_envelope(graph.num_vertices, max_degree)
    tarone = tarone_threshold(envelope, counts, alpha)
    floor = None
    if tarone.delta_star > 0.0:
        floor = conservative_statistic_floor(
            tarone.delta_star, labeling.num_labels - 1
        )
    return _CorrectionContext(tarone=tarone, statistic_floor=floor)


class _Survivors:
    """The caller's graph minus the vertices earlier TSSS rounds mined.

    Nothing is copied or deleted up front.  The loop test and
    :meth:`BlockPartition.supergraph`'s cover and partition checks need
    only the surviving vertex set, which this object presents through
    the vertex half of the :class:`Graph` interface: the caller's
    vertices in their order, mined ones skipped.  Algorithm 1 reads no
    adjacency layout, so round 0 runs it on :attr:`base` itself.

    Readers whose result follows adjacency-set iteration order —
    Algorithm 2, polish, the naive singleton build, a fresh Algorithm 1
    after a polished or cache-hit round, and a prefix-cache key after
    round 0 — read :meth:`graph` instead: on first use ``base.copy()``
    minus every mined vertex, then shrunk as later rounds mine.  The
    copy's sets may be laid out differently from the caller's, and
    ``set.discard`` never resizes a table, so this is the layout the
    per-round deletions of one up-front copy would leave.
    """

    __slots__ = ("base", "mined", "_graph")

    def __init__(self, base: Graph) -> None:
        self.base = base
        self.mined: set[Hashable] = set()
        self._graph: Graph | None = None

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices - len(self.mined)

    def vertices(self) -> Iterator[Hashable]:
        mined = self.mined
        return (v for v in self.base.vertices() if v not in mined)

    def has_vertex(self, v: Hashable) -> bool:
        return v not in self.mined and self.base.has_vertex(v)

    def remove(self, vertices: Collection[Hashable]) -> None:
        """Record ``vertices``, which must all survive, as mined."""
        self.mined.update(vertices)
        if self._graph is not None:
            self._graph.remove_vertices(vertices)

    def graph(self, *, layout: bool = True) -> Graph:
        """The surviving subgraph, laid out like a copy of :attr:`base`.

        A reader that ignores adjacency layout passes ``layout=False`` and
        gets :attr:`base` itself while nothing is mined.
        """
        if not layout and not self.mined:
            return self.base
        if self._graph is None:
            self._graph = self.base.copy()
            self._graph.remove_vertices(self.mined)
        return self._graph


def _mine_one(
    survivors: _Survivors,
    labeling: Labeling,
    report: PipelineReport,
    tracer: Tracer,
    *,
    n_theta: int,
    method: str,
    edge_order: EdgeOrder,
    seed: int | random.Random | None,
    search_limit: int | None,
    min_size: int,
    prune: str,
    backend: str,
    correction_ctx: _CorrectionContext | None = None,
    check_abort: Callable[[], bool] | None = None,
    prefix_cache: PrefixCache | None = None,
    progress: ProgressAggregator | None = None,
    blocks: BlockPartition | None = None,
    keep_blocks: bool = False,
) -> tuple[SignificantSubgraph | None, BlockPartition | None]:
    """One MSCS round on the surviving vertices.

    Returns the mined region (None when nothing is left) and the
    Algorithm-1 blocks of the survivors, if known: ``blocks`` as passed
    in, or, when ``keep_blocks`` says a later round may use them, a
    snapshot of this round's fresh discrete construction.
    """
    first_round = report.rounds == 0
    discrete = isinstance(labeling, DiscreteLabeling)
    if method == "naive":
        with tracer.span("solver.construct", method="naive") as span:
            supergraph = _singleton_supergraph(survivors.graph(), labeling)
            span.set(super_vertices=supergraph.num_super_vertices)
        report.construction_seconds += span.wall_seconds
        if first_round:
            report.supergraph_vertices = supergraph.num_super_vertices
            report.supergraph_edges = supergraph.num_super_edges
            report.reduced_vertices = supergraph.num_super_vertices
    else:
        key = cached = None
        if prefix_cache is not None:
            with tracer.span("solver.cache_lookup") as span:
                # Round 0's discrete key digests the caller's graph, so its
                # memoised digest (seeded by the graph registry for
                # resolved instances) applies.  Algorithm 2 depends on the
                # order it scans adjacency sets in, which the copy need
                # not share with the caller's graph, so continuous keys
                # always digest the copy.
                key = prefix_cache.key(
                    survivors.graph(layout=not discrete), labeling,
                    n_theta=n_theta, edge_order=edge_order, seed=seed,
                )
                if key is not None:
                    cached = prefix_cache.get(key)
                span.set(hit=cached is not None)
                tier = getattr(prefix_cache, "last_tier", None)
                if cached is not None and tier is not None:
                    span.set(tier=tier)
            # Digest + lookup time is prefix work the cache is amortising.
            report.construction_seconds += span.wall_seconds
        if cached is not None:
            supergraph = cached.supergraph
            report.contractions += cached.contractions
            if first_round:
                report.supergraph_vertices = cached.super_vertices_before
                report.supergraph_edges = cached.super_edges_before
                report.reduced_vertices = supergraph.num_super_vertices
        else:
            with tracer.span("solver.construct", method=method) as span:
                if discrete and blocks is not None:
                    supergraph = blocks.supergraph(survivors, labeling)
                    span.set(reused=True)
                elif discrete:
                    # Round 0 builds from the caller's graph itself; see
                    # the construct_discrete module docstring.
                    source = survivors.graph(layout=False)
                    supergraph = build_discrete_supergraph(source, labeling)
                    if keep_blocks:
                        blocks = BlockPartition.of(supergraph, source)
                else:
                    supergraph = build_continuous_supergraph(
                        survivors.graph(), labeling,
                        edge_order=edge_order, seed=seed,
                    )
                span.set(
                    super_vertices=supergraph.num_super_vertices,
                    super_edges=supergraph.num_super_edges,
                )
            report.construction_seconds += span.wall_seconds
            super_vertices_before = supergraph.num_super_vertices
            super_edges_before = supergraph.num_super_edges
            if first_round:
                report.supergraph_vertices = super_vertices_before
                report.supergraph_edges = super_edges_before

            with tracer.span("solver.reduce", n_theta=n_theta) as span:
                contractions = reduce_supergraph(supergraph, n_theta)
                span.set(contractions=contractions)
            report.reduction_seconds += span.wall_seconds
            report.contractions += contractions
            if first_round:
                report.reduced_vertices = supergraph.num_super_vertices
            if key is not None:
                prefix_cache.put(key, CachedPrefix(
                    supergraph=supergraph,
                    super_vertices_before=super_vertices_before,
                    super_edges_before=super_edges_before,
                    contractions=contractions,
                ))

    explored_before = report.explored_subgraphs
    # The floor only seeds the bounds incumbent; under prune="none" a
    # corrected round is the uncorrected search, filtered afterwards.
    floor = (
        correction_ctx.statistic_floor
        if correction_ctx is not None and prune == "bounds" else None
    )
    with tracer.span("solver.search", prune=prune, backend=backend) as span:
        region = _search_supergraph(
            supergraph, labeling, search_limit=search_limit, min_size=min_size,
            report=report, prune=prune, backend=backend,
            statistic_floor=floor,
            check_abort=check_abort, progress=progress,
        )
        if floor is not None and (
            region is None
            or not correction_ctx.tarone.passes(region.p_value)
        ):
            # The floor-seeded search only preserves the uncorrected
            # optimum when that optimum clears delta*; a failing (or empty)
            # seeded result says nothing about which region the uncorrected
            # enumeration would mine — and that region's vertices must be
            # the ones removed this round for the post-hoc-filter
            # equivalence to hold.  Search again without the floor.
            span.set(testability_fallback=True)
            region = _search_supergraph(
                supergraph, labeling, search_limit=search_limit,
                min_size=min_size, report=report, prune=prune,
                backend=backend,
                check_abort=check_abort, progress=progress,
            )
        # Per-round delta, not the running total, so top-t traces show what
        # each round actually cost.
        span.set(explored=report.explored_subgraphs - explored_before)
    report.search_seconds += span.wall_seconds
    return region, blocks


def _singleton_supergraph(graph: Graph, labeling: Labeling) -> SuperGraph:
    """A trivial super-graph with one super-vertex per original vertex."""
    sg = SuperGraph()
    if isinstance(labeling, DiscreteLabeling):
        for v in graph.vertices():
            sg.add_super_vertex(
                (v,), CountVector.singleton(labeling.probabilities, labeling.label_of(v))
            )
    else:
        for v in graph.vertices():
            sg.add_super_vertex((v,), RegionScore.from_vertex(labeling.z_score_of(v)))
    for u, v in graph.edges():
        sg.add_super_edge(sg.super_of(u).id, sg.super_of(v).id)
    return sg


def _search_supergraph(
    supergraph: SuperGraph,
    labeling: Labeling,
    *,
    search_limit: int | None,
    min_size: int,
    report: PipelineReport,
    prune: str,
    backend: str,
    statistic_floor: float | None = None,
    check_abort: Callable[[], bool] | None = None,
    progress: ProgressAggregator | None = None,
) -> SignificantSubgraph | None:
    """Exhaustive MSCS search on a (reduced) super-graph."""
    if supergraph.num_super_vertices == 0:
        return None
    bitset = BitsetGraph(supergraph.topology)
    payload_order = [supergraph.super_vertex(sid) for sid in bitset.vertices]

    if isinstance(labeling, DiscreteLabeling):
        accumulator = DiscreteAccumulator(
            labeling.probabilities, [sv.payload.counts for sv in payload_order]
        )
    else:
        accumulator = ContinuousAccumulator(
            [(sv.payload.raw_sums, sv.payload.size) for sv in payload_order]
        )

    # min_size counts *original* vertices, which is the search's mass.
    outcome = exhaustive_best_mask(
        bitset.adjacency, accumulator, min_mass=min_size,
        limit=search_limit, prune=prune, backend=backend,
        statistic_floor=statistic_floor,
        check_abort=check_abort, progress=progress,
    )
    # Each search call emits per-call cumulative snapshots; banking the
    # finished call keeps the aggregator's totals monotone across calls.
    if progress is not None:
        progress.finish_call()
    report.explored_subgraphs += outcome.explored
    if outcome.mask == 0:
        return None
    winning_ids = [payload_order[i].id for i in iter_bits(outcome.mask)]
    return _build_region(supergraph, labeling, winning_ids)


def _bfs_order(
    nodes: list[int], neighbors: Callable[[int], Iterable[int]]
) -> list[int]:
    """Order ``nodes`` by BFS from a minimum-degree member.

    Degrees and BFS edges count only neighbours inside ``nodes``; ties
    and each node's successors go in increasing id order, and nodes the
    BFS cannot reach follow in their given order.  Starting at an
    extremal (lowest within-subset degree) node makes chain-shaped
    regions render as region-bridge-region, matching the presentation of
    Table 2.
    """
    members = set(nodes)
    inside = {u: sorted(w for w in neighbors(u) if w in members) for u in nodes}
    start = min(nodes, key=lambda u: (len(inside[u]), u))
    order: list[int] = []
    seen = {start}
    queue: deque[int] = deque([start])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in inside[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    order.extend(u for u in nodes if u not in seen)
    return order


def _build_region(
    supergraph: SuperGraph,
    labeling: Labeling,
    winning_ids: list[int],
) -> SignificantSubgraph:
    ordered = _bfs_order(winning_ids, supergraph.topology.neighbors)
    components = []
    for sid in ordered:
        sv = supergraph.super_vertex(sid)
        label: str | None = None
        if isinstance(labeling, DiscreteLabeling):
            counts = sv.payload.counts
            label = labeling.symbols[max(range(len(counts)), key=counts.__getitem__)]
        components.append(
            SubgraphComponent(size=sv.size, label=label, chi_square=sv.chi_square)
        )
    return _rescored(
        labeling, supergraph.original_vertices(winning_ids), tuple(components)
    )


def _rescored(
    labeling: Labeling,
    vertices: frozenset[Hashable],
    components: tuple[SubgraphComponent, ...],
) -> SignificantSubgraph:
    """A region scored by its labeling's statistic of ``vertices`` (Eq. 2
    from integer counts, Eq. 8 from ``fsum`` z-sums), not by the value of
    the search or climb that found it, so no path can change it."""
    if isinstance(labeling, DiscreteLabeling):
        chi_square = labeling.chi_square(vertices)
        p_value = discrete_p_value(chi_square, labeling.num_labels)
        z_vector = None
    else:
        score = labeling.region_score(vertices)
        chi_square = score.chi_square()
        p_value = continuous_p_value(chi_square, labeling.dimensions)
        z_vector = score.z_vector()
    return SignificantSubgraph(
        vertices=vertices,
        chi_square=chi_square,
        p_value=p_value,
        components=components,
        z_score=z_vector,
    )


def _polish(
    working: Graph,
    labeling: Labeling,
    region: SignificantSubgraph,
    tracer: Tracer,
) -> SignificantSubgraph:
    """LMCS hill-climb post-pass; keeps the better of the two regions.

    Both are rescored from their vertices, so an unchanged set never
    counts as an improvement."""
    with tracer.span("solver.polish", seed_size=region.size) as span:
        vertices, _ = lmcs_local_search(working, labeling, region.vertices)
        polished = _rescored(labeling, vertices, ())
        span.set(improved=polished.chi_square > region.chi_square)
    if polished.chi_square <= region.chi_square:
        return region
    if _TELEMETRY.enabled:
        _TELEMETRY.metrics.count(_metric.SOLVER_POLISH_IMPROVEMENTS)
    return replace(
        polished,
        components=_polished_components(
            working, labeling, polished.vertices, polished.chi_square
        ),
    )


def _polished_components(
    working: Graph,
    labeling: Labeling,
    vertices: frozenset[Hashable],
    chi_square: float,
) -> tuple[SubgraphComponent, ...]:
    """Rebuild the per-component breakdown of a polished region.

    A discrete region decomposes into its maximal same-label connected
    blocks — exactly the super-vertices Algorithm 1 would construct on the
    polished vertex set — listed in the same :func:`_bfs_order` as the
    super-graph path, so Table-2-style rendering keeps its
    region-bridge-region shape.  Continuous regions have no canonical
    decomposition (Algorithm 2 blocks are edge-order-dependent), so they
    report a single component covering the whole set.
    """
    if not isinstance(labeling, DiscreteLabeling):
        return (
            SubgraphComponent(
                size=len(vertices), label=None, chi_square=chi_square
            ),
        )

    # Maximal same-label connected blocks of the induced subgraph.
    block_index: dict[Hashable, int] = {}
    blocks: list[tuple[int, list[Hashable]]] = []
    for start in sorted(vertices):
        if start in block_index:
            continue
        label = labeling.label_of(start)
        index = len(blocks)
        members: list[Hashable] = [start]
        block_index[start] = index
        queue: deque[Hashable] = deque([start])
        while queue:
            u = queue.popleft()
            for w in working.neighbors(u):
                if (
                    w in vertices
                    and w not in block_index
                    and labeling.label_of(w) == label
                ):
                    block_index[w] = index
                    members.append(w)
                    queue.append(w)
        blocks.append((label, members))

    # Block-level adjacency, then the ordering the super-graph path uses.
    adjacency: list[set[int]] = [set() for _ in blocks]
    for u in vertices:
        i = block_index[u]
        for w in working.neighbors(u):
            j = block_index.get(w)
            if j is not None and j != i:
                adjacency[i].add(j)
    ordered = _bfs_order(list(range(len(blocks))), adjacency.__getitem__)

    return tuple(
        SubgraphComponent(
            size=len(blocks[i][1]),
            label=labeling.symbols[blocks[i][0]],
            chi_square=labeling.chi_square(blocks[i][1]),
        )
        for i in ordered
    )
