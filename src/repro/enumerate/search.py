"""Exhaustive maximum-chi-square search over connected subgraphs.

This is the paper's *naïve algorithm* (Section 4.1) as an optimisation
rather than a materialised enumeration: the recursion over connected vertex
sets pushes/pops vertices through an incremental accumulator and keeps only
the best set seen.  It runs on anything exposing bitmask adjacency, so the
solver uses it both directly on (small) input graphs and on reduced
super-graphs whose vertices carry merged payloads.

``prune="bounds"`` turns the walk into a branch-and-bound: the incumbent is
seeded with the best eligible single vertex, and any branch whose
admissible upper bound (see :mod:`repro.enumerate.bounds`) cannot beat the
incumbent, or whose reachable mass cannot meet the ``min_mass`` floor, is
cut.
Because the bound is admissible and pruning is strict (``bound <
incumbent``), every optimal state survives, so both modes return the
identical winning mask and statistic — ``prune="bounds"`` just visits
fewer states.

Statistic ties break toward the numerically smallest winning bitmask.
That makes the optimum a function of the visited *set family* rather than
of the visit order, which is what lets the vectorized numpy backend
(:mod:`repro.enumerate.kernel`, selected with ``backend="numpy"``) batch
the walk while returning the same winner (its statistic
equal up to a few ulps; see :data:`SEARCH_BACKENDS`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.exceptions import EnumerationLimitError, SearchAbortedError
from repro.enumerate.accumulators import (
    ChiSquareAccumulator,
    ContinuousAccumulator,
    DiscreteAccumulator,
)
from repro.enumerate.bitset import iter_bits
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry.progress import ProgressCallback, SearchProgress

__all__ = [
    "ABORT_CHECK_MASK",
    "AUTO_BOUNDS_PYTHON_MAX_VERTICES",
    "PRUNE_MODES",
    "SEARCH_BACKENDS",
    "SearchOutcome",
    "SearchTestability",
    "exhaustive_best_mask",
    "resolve_backend",
]

PRUNE_MODES = ("none", "bounds")
"""Valid values of the ``prune`` search argument."""

SEARCH_BACKENDS = ("python", "numpy", "auto")
"""Valid values of the ``backend`` search argument.

``"python"`` is the reference DFS in this module; ``"numpy"`` is the
vectorized batch kernel in :mod:`repro.enumerate.kernel`, which falls
back to the python walk for graphs above the kernel's 64-vertex
machine-word limit.  The two pick the same winning regions, but the
kernel sums the statistic in a different floating-point order, so its
chi-square can differ from the walk's in the last few ulps (measured:
discrete up to 4 ulps, continuous up to ~2e-13 relative).  They are
bit-equal only when every partial sum is exact, which is why the
differential property suites compare them on dyadic probabilities.  ``"auto"`` picks per call via
:func:`resolve_backend`: the kernel wherever it is eligible, except on
small bounds-pruned instances where batch setup costs more than the
handful of surviving states (the scalar walk wins there)."""

AUTO_BOUNDS_PYTHON_MAX_VERTICES = 24
"""``backend="auto"`` crossover: under ``prune="bounds"`` instances with
at most this many vertices run the python walk.

Admissible bounds typically cut >99% of states on reduced super-graphs
(n around ``n_theta`` ~ 20), leaving so few survivors that the kernel's
per-level batch setup dominates — measured at 0.6x the scalar walk on
the pipeline regimes of ``bench_kernel_backends.py``.  Above this size
the state counts grow enough for batching to win even under bounds."""

ABORT_CHECK_MASK = 0xFF
"""``check_abort`` polling cadence: every ``ABORT_CHECK_MASK + 1`` states.

Polling a Python callable per state would roughly double the cost of the
inner loop; every 256 states the abort latency stays far below any
realistic serving deadline while the overhead disappears into noise."""


def resolve_backend(backend: str, *, n: int, prune: str = "none") -> str:
    """Resolve ``"auto"`` to a concrete backend for one search instance.

    Explicit ``"python"``/``"numpy"`` pass through untouched (the numpy
    path keeps its own transparent >64-vertex fallback).  ``"auto"``
    picks ``"numpy"`` whenever ``n`` is within the kernel's machine-word
    limit, except under ``prune="bounds"`` on instances of at most
    :data:`AUTO_BOUNDS_PYTHON_MAX_VERTICES` vertices, where the bounds
    cut the state count so far down that the scalar walk is faster than
    batch setup.
    """
    if backend != "auto":
        return backend
    from repro.enumerate.kernel import MAX_KERNEL_VERTICES

    if n > MAX_KERNEL_VERTICES:
        return "python"
    if prune == "bounds" and n <= AUTO_BOUNDS_PYTHON_MAX_VERTICES:
        return "python"
    return "numpy"


@dataclass(frozen=True, slots=True)
class SearchTestability:
    """Tarone testability pruning parameters for the search.

    Produced by the correction layer (:mod:`repro.stats.correction`):
    ``min_mass`` is the smallest *original-vertex mass* (sum of payload
    sizes, not vertex count in this graph) that is testable at the
    corrected threshold ``delta*`` — states whose mass plus the mass of
    their reachable closure falls short are cut, counted as
    ``testability_cuts``.  ``statistic_floor`` is a conservative
    chi-square floor below which no subgraph can reach ``p <= delta*``
    (:func:`repro.stats.correction.conservative_statistic_floor`); under
    ``prune="bounds"`` it seeds the incumbent threshold so bound cuts
    bite even before any solution is found (those cuts count as
    ``bound_cuts`` — only mass-frontier cuts are ``testability_cuts``).

    Both cuts are admissible *for corrected mining*: they can only remove
    states that provably fail the corrected threshold, so whenever the
    true uncorrected optimum passes, the pruned search still returns it —
    tie-break included.  When it does not pass, the solver detects that
    by the value test ``p_raw <= delta*`` and re-runs unpruned (see
    ``repro.core.solver``).  With testability active, cut *accounting* is
    backend-dependent, like bounds accounting.
    """

    min_mass: int
    statistic_floor: float


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of an exhaustive search.

    Attributes
    ----------
    mask:
        Bitmask of the winning connected vertex set (0 if the graph is empty).
    chi_square:
        Its statistic.
    explored:
        Number of connected sets visited — the paper's exponential cost,
        reported so benchmarks can show what the reduction saves.
    evaluated:
        Chi-square computations performed (sets meeting ``min_mass``).
    bound_cuts:
        Branches cut because their admissible upper bound could not beat
        the incumbent (``prune="bounds"`` only).
    bound_evaluations:
        Upper-bound computations performed (``prune="bounds"`` only).
    testability_cuts:
        Branches cut because no reachable extension could accumulate the
        minimum testable mass (``testability=`` only).
    """

    mask: int
    chi_square: float
    explored: int
    evaluated: int = 0
    bound_cuts: int = 0
    bound_evaluations: int = 0
    testability_cuts: int = 0


@dataclass(slots=True)
class _Tally:
    """The one counter record of a search call, shared by both backends.

    Each backend counts into it (the python walk from plain locals it
    copies in, the numpy kernel directly); :meth:`snapshot`,
    :meth:`outcome` and :meth:`publish` are the only places that turn it
    into a :class:`SearchProgress`, a :class:`SearchOutcome` and the
    ``search.*`` metrics.  ``kernel_batches`` stays 0 on the python
    walk.
    """

    started: float
    explored: int = 0
    evaluated: int = 0
    bound_cuts: int = 0
    bound_evaluations: int = 0
    testability_cuts: int = 0
    best_updates: int = 0
    best_mask: int = 0
    best_value: float = float("-inf")
    kernel_batches: int = 0

    def snapshot(self) -> SearchProgress:
        """The per-call cumulative progress view."""
        return SearchProgress(
            states_visited=self.explored,
            bound_cuts=self.bound_cuts,
            best_chi_square=self.best_value if self.best_mask else None,
            kernel_batches=self.kernel_batches,
            elapsed_seconds=time.perf_counter() - self.started,
        )

    def outcome(self) -> SearchOutcome:
        """The finished call's result (statistic 0.0 when nothing won)."""
        return SearchOutcome(
            mask=self.best_mask,
            chi_square=self.best_value if self.best_mask else 0.0,
            explored=self.explored,
            evaluated=self.evaluated,
            bound_cuts=self.bound_cuts,
            bound_evaluations=self.bound_evaluations,
            testability_cuts=self.testability_cuts,
        )

    def publish(self, *, bounded: bool, testability: bool, kernel: bool) -> None:
        """Count this call into the active telemetry session, if any."""
        if not _TELEMETRY.enabled:
            return
        metrics = _TELEMETRY.metrics
        metrics.count(_metric.SEARCH_STATES_VISITED, self.explored)
        metrics.count(_metric.SEARCH_CHI_SQUARE_EVALUATIONS, self.evaluated)
        metrics.count(_metric.SEARCH_BEST_UPDATES, self.best_updates)
        if bounded:
            metrics.count(_metric.SEARCH_BOUND_CUTS, self.bound_cuts)
            metrics.count(_metric.SEARCH_BOUND_EVALUATIONS, self.bound_evaluations)
        if testability:
            metrics.count(_metric.SEARCH_TESTABILITY_CUTS, self.testability_cuts)
        if kernel:
            metrics.count(_metric.SEARCH_KERNEL_BATCHES, self.kernel_batches)
        metrics.observe(_metric.SEARCH_STATES_PER_CALL, self.explored)


def _incumbent_seed(
    best_eligible_single: float, testability: SearchTestability | None
) -> float:
    """The bounds-mode pruning threshold in force before any set is scored.

    A single vertex whose mass meets ``min_mass`` is an eligible result,
    so the best such single's statistic (``best_eligible_single``,
    computed by the backend; ``-inf`` when no single is eligible) is a
    sound threshold from the start.  An ineligible single's statistic may
    exceed every eligible set's, which would prune the true optimum, so
    it never seeds.  The Tarone statistic floor is a threshold no passing
    subgraph can sit below, so it is a sound seed even when no single is
    eligible; its cuts count as ``bound_cuts``.  The seed is a value
    only: it never selects a mask.
    """
    seed = best_eligible_single
    if testability is not None and testability.statistic_floor > seed:
        seed = testability.statistic_floor
    return seed


def exhaustive_best_mask(
    adjacency: Sequence[int],
    accumulator: DiscreteAccumulator | ContinuousAccumulator,
    *,
    min_mass: int = 1,
    limit: int | None = None,
    prune: str = "none",
    check_abort: Callable[[], bool] | None = None,
    backend: str = "python",
    progress: ProgressCallback | None = None,
    testability: SearchTestability | None = None,
) -> SearchOutcome:
    """Find the connected vertex set with the maximum accumulator statistic.

    The one search entry point.  ``accumulator`` must be one of the
    bundled :class:`DiscreteAccumulator` / :class:`ContinuousAccumulator`
    (anything else raises :class:`TypeError`), passed in its empty state.

    Statistic ties break toward the numerically smallest winning bitmask
    (deterministic and enumeration-order independent).  Only sets whose
    *mass* — the original-vertex count summed over their payloads, so a
    super-vertex counts as its size — is at least ``min_mass`` are
    scored and can win; every payload carries at least one vertex, so
    the default ``min_mass=1`` admits every set.  ``limit`` bounds the
    number of visited sets, raising :class:`EnumerationLimitError`
    beyond.  ``prune="bounds"`` enables admissible branch-and-bound
    cutting, including a cut of every branch whose reachable mass falls
    short of ``min_mass``; the optimum — including tie-breaks — is
    provably identical to ``prune="none"``.

    ``backend="numpy"`` routes the walk through the vectorized batch
    kernel (:mod:`repro.enumerate.kernel`), which returns the identical
    outcome — bit-identical under ``prune="none"``, identical optimum
    under ``prune="bounds"`` (cut accounting is enumeration-order
    dependent there).  Graphs above the kernel's 64-vertex machine-word
    limit fall back to the python walk transparently, so callers can
    request ``"numpy"`` unconditionally.  ``backend="auto"`` picks per
    instance via :func:`resolve_backend`.

    ``check_abort`` is polled every ``ABORT_CHECK_MASK + 1`` visited states
    (python walk) or between state batches (numpy kernel) — cooperative
    cancellation for serving deadlines; when it returns True the walk
    raises :class:`~repro.exceptions.SearchAbortedError`.  A callback that
    never fires provably cannot change the result — it is only ever
    *read*, never consulted for ordering or pruning decisions.

    ``progress``, when given, receives :class:`~repro.telemetry.progress.
    SearchProgress` snapshots at the same cadence as the abort poll (plus
    one final snapshot when the call ends, even on abort/limit), carrying
    per-call cumulative counters.  Like ``check_abort`` it is observe-only
    and cannot change the result.

    ``testability``, when given, enables Tarone testability pruning (see
    :class:`SearchTestability`): frontier subtrees whose reachable mass
    cannot hit the minimum testable size are cut in every mode and
    backend, and under ``prune="bounds"`` the statistic floor seeds the
    incumbent threshold.  The returned optimum is the true uncorrected
    optimum whenever that optimum meets the corrected threshold; cut
    accounting is backend-dependent.
    """
    if min_mass < 1:
        raise ValueError(f"min_mass must be >= 1, got {min_mass}")
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune must be one of {PRUNE_MODES}, got {prune!r}")
    if testability is not None and testability.min_mass < 1:
        raise ValueError(
            f"testability.min_mass must be >= 1, got {testability.min_mass}"
        )
    if backend not in SEARCH_BACKENDS:
        raise ValueError(
            f"backend must be one of {SEARCH_BACKENDS}, got {backend!r}"
        )
    if not isinstance(accumulator, (DiscreteAccumulator, ContinuousAccumulator)):
        raise TypeError(
            f"the search runs on DiscreteAccumulator or ContinuousAccumulator "
            f"payloads, got {type(accumulator).__name__}"
        )
    n = len(adjacency)
    backend = resolve_backend(backend, n=n, prune=prune)
    from repro.enumerate.kernel import MAX_KERNEL_VERTICES, _kernel_search

    kernel = backend == "numpy" and 0 < n <= MAX_KERNEL_VERTICES
    if check_abort is not None and check_abort():
        raise SearchAbortedError()
    search = _kernel_search if kernel else _python_walk
    bounded = prune == "bounds"
    tally = _Tally(started=time.perf_counter() if progress is not None else 0.0)
    try:
        search(
            adjacency, accumulator, tally,
            min_mass=min_mass,
            limit=limit,
            bounded=bounded,
            check_abort=check_abort,
            progress=progress,
            testability=testability,
        )
    finally:
        # The final snapshot and the metrics flush happen even on
        # abort/limit, so consumers see the work done up to that point.
        if progress is not None:
            progress(tally.snapshot())
        tally.publish(
            bounded=bounded, testability=testability is not None, kernel=kernel
        )
    return tally.outcome()


def _reachable_closure(
    adjacency: Sequence[int], frontier: int, blocked: int
) -> int:
    """Every vertex reachable from ``frontier`` without entering ``blocked``."""
    visited = frontier
    while frontier:
        reach = 0
        for i in iter_bits(frontier):
            reach |= adjacency[i]
        frontier = reach & ~blocked & ~visited
        visited |= frontier
    return visited


def _python_walk(
    adjacency: Sequence[int],
    accumulator: ChiSquareAccumulator,
    tally: _Tally,
    *,
    min_mass: int,
    limit: int | None,
    bounded: bool,
    check_abort: Callable[[], bool] | None,
    progress: ProgressCallback | None,
    testability: SearchTestability | None,
) -> None:
    """The reference DFS; ``bounded`` turns it into the branch-and-bound.

    Pruning only removes whole subtrees, never reorders the survivors, so
    both modes visit states in the same order.  When the reachable closure
    of an expansion frame is needed (bounds or testability), these cuts
    apply to it, in this order:

    1. *reachability* (bounds with ``min_mass > 1`` only): if the set's
       mass plus the closure's falls short of ``min_mass``, nothing below
       is eligible;
    2. *testable mass* (testability only): if that mass falls short of
       ``testability.min_mass``, nothing below can pass the corrected
       threshold;
    3. *bound* (bounds only): if the accumulator's admissible upper bound
       over the closure is strictly below the incumbent, nothing below can
       win.

    Counts into plain locals and copies them into ``tally`` before each
    progress snapshot and when the walk ends, however it ends.
    """
    n = len(adjacency)
    best_mask = 0
    best_value = float("-inf")
    explored = 0
    evaluated = 0
    best_updates = 0
    bound_cuts = 0
    bound_evaluations = 0
    testability_cuts = 0
    # Every payload carries at least one vertex, so min_mass <= 1 admits
    # every state and neither the eligibility test nor the floor cut runs.
    gated = min_mass > 1
    floor_cut = bounded and gated
    testable_mass = testability.min_mass if testability is not None else 0
    needs_mass = floor_cut or testability is not None
    payload_sizes = accumulator.payload_sizes if needs_mass else ()
    needs_closure = bounded or testability is not None
    poll = check_abort is not None or progress is not None

    def sync() -> None:
        tally.explored = explored
        tally.evaluated = evaluated
        tally.best_updates = best_updates
        tally.bound_cuts = bound_cuts
        tally.bound_evaluations = bound_evaluations
        tally.testability_cuts = testability_cuts
        tally.best_mask = best_mask
        tally.best_value = best_value

    def best_eligible_single() -> float:
        best = float("-inf")
        for v in range(n):
            accumulator.push(v)
            if accumulator.size >= min_mass:
                value = accumulator.chi_square()
                if value > best:
                    best = value
            accumulator.pop(v)
        return best

    seed_value = (
        _incumbent_seed(best_eligible_single(), testability)
        if bounded else float("-inf")
    )

    def consider(mask: int) -> None:
        nonlocal best_mask, best_value, explored, evaluated, best_updates
        explored += 1
        if limit is not None and explored > limit:
            raise EnumerationLimitError(limit)
        if poll and not explored & ABORT_CHECK_MASK:
            if check_abort is not None and check_abort():
                raise SearchAbortedError()
            if progress is not None:
                sync()
                progress(tally.snapshot())
        if gated and accumulator.size < min_mass:
            return
        evaluated += 1
        value = accumulator.chi_square()
        # Canonical tie-break: on equal statistic the numerically smallest
        # mask wins, so the optimum is independent of the enumeration
        # order (required for backend equivalence).
        if value > best_value or (value == best_value and mask < best_mask):
            best_value = value
            best_mask = mask
            best_updates += 1

    # Explicit stack instead of recursion: the DFS depth equals the size
    # of the current set, which can reach n (e.g. a path graph) and blow
    # Python's recursion limit.  Each frame is a *pending action*: either
    # expand a state or pop a vertex from the accumulator on backtrack.
    # Every push is paired with its POP frame before anything can raise,
    # so an aborted walk unwinds the stack's pops and hands the caller's
    # accumulator back as it came in.
    POP = -1
    # Stack frames: (POP, vertex) sentinel or (subset, ext, fb).
    stack: list[tuple[int, ...]] = []
    try:
        for root in range(n):
            root_bit = 1 << root
            accumulator.push(root)
            stack.append((POP, root))
            consider(root_bit)
            stack.append((
                root_bit,
                adjacency[root] & ~(root_bit - 1) & ~root_bit,
                root_bit - 1,
            ))
            while stack:
                frame = stack.pop()
                if frame[0] == POP:
                    accumulator.pop(frame[1])
                    continue
                subset, ext, fb = frame
                if not ext:
                    continue
                if needs_closure:
                    candidates = _reachable_closure(adjacency, ext, subset | fb)
                    if needs_mass:
                        # The stack discipline guarantees the accumulator
                        # holds exactly `subset` here, so its mass is O(1).
                        reachable_mass = accumulator.size
                        for i in iter_bits(candidates):
                            reachable_mass += payload_sizes[i]
                        if floor_cut and reachable_mass < min_mass:
                            bound_cuts += 1
                            continue
                        if reachable_mass < testable_mass:
                            testability_cuts += 1
                            continue
                    if bounded:
                        threshold = (
                            best_value if best_value > seed_value else seed_value
                        )
                        if threshold > float("-inf"):
                            bound_evaluations += 1
                            bound = accumulator.upper_bound(candidates)
                            # Strict: an exactly-tying subtree must survive
                            # so the tie-break matches prune="none".
                            if bound < threshold:
                                bound_cuts += 1
                                continue
                u_bit = ext & -ext
                u = u_bit.bit_length() - 1
                rest = ext ^ u_bit
                # Sibling branch: same subset, u permanently forbidden.
                stack.append((subset, rest, fb | u_bit))
                # Child branch: include u now, schedule its pop for backtrack.
                child_subset = subset | u_bit
                child_ext = rest | (adjacency[u] & ~(child_subset | fb | rest))
                accumulator.push(u)
                stack.append((POP, u))
                consider(child_subset)
                stack.append((child_subset, child_ext, fb))
    finally:
        while stack:
            frame = stack.pop()
            if frame[0] == POP:
                accumulator.pop(frame[1])
        sync()
