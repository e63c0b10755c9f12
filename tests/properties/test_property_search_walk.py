"""The merged python walk reproduces the two walks it replaced.

The python backend used to keep two copies of the DFS: an unbounded walk
for ``prune="none"`` and a branch-and-bound walk for ``prune="bounds"``.
They are now one walk with a ``bounded`` flag
(:func:`repro.enumerate.search._python_walk`).  The two earlier walks are
kept below as the oracle, with the search's one size constraint: a state
is scored only when its mass (original-vertex count) meets ``min_mass``,
and the bounded walk cuts a branch whose reachable mass falls short of
it.  Over random instances — discrete and continuous accumulators with
merged payloads, both prune modes, a Tarone statistic floor on and off
(bounds only), ``min_mass > 1`` and ``limit`` budgets that fire —
``exhaustive_best_mask(backend="python")`` must match the oracle in the
full :class:`SearchOutcome` (its statistic recomputed from the winning
payloads, as the search reports it), the telemetry it flushes, and the
sequence of :class:`SearchProgress` snapshots it emits.  Discrete
payloads are drawn under dyadic and non-dyadic probabilities.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumerate.accumulators import (
    ContinuousAccumulator,
    DiscreteAccumulator,
)
from repro.enumerate.bitset import iter_bits
from repro.enumerate.search import (
    ABORT_CHECK_MASK,
    SearchOutcome,
    exhaustive_best_mask,
)
from repro.exceptions import EnumerationLimitError, SearchAbortedError
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import names as _metric
from repro.telemetry import telemetry_session
from repro.telemetry.progress import ProgressCallback, SearchProgress

pytestmark = pytest.mark.properties

DYADIC_PROBS = (0.5, 0.25, 0.25)
NON_DYADIC_PROBS = (0.37, 0.29, 0.21, 0.13)


# ----------------------------------------------------------------------
# Oracle: the two walks the merged walk replaced, unchanged
# ----------------------------------------------------------------------
def _search_unbounded(
    adjacency: Sequence[int],
    accumulator: DiscreteAccumulator | ContinuousAccumulator,
    *,
    min_mass: int,
    limit: int | None,
    check_abort: Callable[[], bool] | None = None,
    progress: ProgressCallback | None = None,
) -> SearchOutcome:
    """The plain exhaustive walk (``prune="none"``)."""
    n = len(adjacency)
    best_mask = 0
    best_value = float("-inf")
    explored = 0
    evaluated = 0
    best_updates = 0
    poll = check_abort is not None or progress is not None
    started = time.perf_counter() if progress is not None else 0.0

    def snapshot() -> SearchProgress:
        return SearchProgress(
            states_visited=explored,
            best_chi_square=best_value if best_mask else None,
            elapsed_seconds=time.perf_counter() - started,
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
                progress(snapshot())
        if accumulator.size >= min_mass:
            evaluated += 1
            value = accumulator.chi_square()
            # Canonical tie-break: on equal statistic the numerically
            # smallest mask wins, so the optimum is independent of the
            # enumeration order (required for backend equivalence).
            if value > best_value or (value == best_value and mask < best_mask):
                best_value = value
                best_mask = mask
                best_updates += 1

    # Explicit stack instead of recursion: the DFS depth equals the size
    # of the current set, which can reach n (e.g. a path graph) and blow
    # Python's recursion limit.  Each frame is a *pending action*: either
    # expand a state or pop a vertex from the accumulator on backtrack.
    # Metrics flush in the finally block so an EnumerationLimitError abort
    # still reports the work done up to the budget.
    POP = -1
    try:
        for root in range(n):
            root_bit = 1 << root
            accumulator.push(root)
            consider(root_bit)
            # Stack frames: (POP, vertex) sentinel or (subset, ext, fb).
            stack: list[tuple[int, ...]] = [
                (
                    root_bit,
                    adjacency[root] & ~(root_bit - 1) & ~root_bit,
                    root_bit - 1,
                )
            ]
            while stack:
                frame = stack.pop()
                if frame[0] == POP:
                    accumulator.pop(frame[1])
                    continue
                subset, ext, fb = frame
                if not ext:
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
                consider(child_subset)
                stack.append((POP, u))
                stack.append((child_subset, child_ext, fb))
            accumulator.pop(root)
    finally:
        # Final snapshot fires even on abort/limit so consumers see the
        # call's complete counters before the metrics flush below.
        if progress is not None:
            progress(snapshot())
        if _TELEMETRY.enabled:
            metrics = _TELEMETRY.metrics
            metrics.count(_metric.SEARCH_STATES_VISITED, explored)
            metrics.count(_metric.SEARCH_CHI_SQUARE_EVALUATIONS, evaluated)
            metrics.count(_metric.SEARCH_BEST_UPDATES, best_updates)
            metrics.observe(_metric.SEARCH_STATES_PER_CALL, explored)

    if best_mask == 0:
        best_value = 0.0
    return SearchOutcome(
        mask=best_mask, chi_square=best_value, explored=explored,
        evaluated=evaluated,
    )


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


def _search_bounded(
    adjacency: Sequence[int],
    accumulator: DiscreteAccumulator | ContinuousAccumulator,
    *,
    min_mass: int,
    limit: int | None,
    check_abort: Callable[[], bool] | None = None,
    progress: ProgressCallback | None = None,
    statistic_floor: float | None = None,
) -> SearchOutcome:
    """Branch-and-bound walk (``prune="bounds"``).

    Identical state ordering to :func:`_search_unbounded` — pruning only
    removes whole subtrees, never reorders the survivors — plus two cuts at
    every expansion frame:

    1. *reachability*: if the set's mass plus the mass of the connected
       closure of the frontier falls short of ``min_mass``, nothing below
       is eligible;
    2. *bound*: if the accumulator's admissible upper bound over that
       closure is strictly below the incumbent, nothing below can win.

    The incumbent threshold is seeded with the best statistic among the
    single vertices that meet ``min_mass`` (each a valid solution), or
    with ``statistic_floor`` when that is higher, so bounds bite before
    the first root subtree is explored.  Bound cuts whose bound lies below
    the floor are also counted as ``testability_cuts``.
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
    floor = statistic_floor if statistic_floor is not None else float("-inf")
    payload_sizes = accumulator.payload_sizes
    poll = check_abort is not None or progress is not None
    started = time.perf_counter() if progress is not None else 0.0

    def snapshot() -> SearchProgress:
        return SearchProgress(
            states_visited=explored,
            bound_cuts=bound_cuts,
            best_chi_square=best_value if best_mask else None,
            elapsed_seconds=time.perf_counter() - started,
        )

    # Best-first incumbent seeding: a single that meets min_mass is an
    # eligible result, so the best such single is a sound pruning threshold
    # from the start.  (An ineligible single's statistic may exceed every
    # eligible set's, which would prune the true optimum — it never seeds.)
    seed_value = float("-inf")
    for v in range(n):
        accumulator.push(v)
        if accumulator.size >= min_mass:
            value = accumulator.chi_square()
            if value > seed_value:
                seed_value = value
        accumulator.pop(v)
    if floor > seed_value:
        # The Tarone statistic floor is a threshold no passing subgraph can
        # sit below, so it is a sound incumbent seed even when no single
        # meets min_mass; its cuts count as bound_cuts.
        seed_value = floor

    def consider(mask: int) -> None:
        nonlocal best_mask, best_value, explored, evaluated, best_updates
        explored += 1
        if limit is not None and explored > limit:
            raise EnumerationLimitError(limit)
        if poll and not explored & ABORT_CHECK_MASK:
            if check_abort is not None and check_abort():
                raise SearchAbortedError()
            if progress is not None:
                progress(snapshot())
        if accumulator.size >= min_mass:
            evaluated += 1
            value = accumulator.chi_square()
            # Canonical tie-break: on equal statistic the numerically
            # smallest mask wins, so the optimum is independent of the
            # enumeration order (required for backend equivalence).
            if value > best_value or (value == best_value and mask < best_mask):
                best_value = value
                best_mask = mask
                best_updates += 1

    POP = -1
    try:
        for root in range(n):
            root_bit = 1 << root
            accumulator.push(root)
            consider(root_bit)
            stack: list[tuple[int, ...]] = [
                (
                    root_bit,
                    adjacency[root] & ~(root_bit - 1) & ~root_bit,
                    root_bit - 1,
                )
            ]
            while stack:
                frame = stack.pop()
                if frame[0] == POP:
                    accumulator.pop(frame[1])
                    continue
                subset, ext, fb = frame
                if not ext:
                    continue
                candidates = _reachable_closure(adjacency, ext, subset | fb)
                reachable_mass = accumulator.size
                for i in iter_bits(candidates):
                    reachable_mass += payload_sizes[i]
                if reachable_mass < min_mass:
                    bound_cuts += 1
                    continue
                threshold = best_value if best_value > seed_value else seed_value
                if threshold > float("-inf"):
                    bound_evaluations += 1
                    bound = accumulator.upper_bound(candidates)
                    # Strict: an exactly-tying subtree must survive so the
                    # first-found tie-break matches prune="none".
                    if bound < threshold:
                        bound_cuts += 1
                        if bound < floor:
                            testability_cuts += 1
                        continue
                u_bit = ext & -ext
                u = u_bit.bit_length() - 1
                rest = ext ^ u_bit
                stack.append((subset, rest, fb | u_bit))
                child_subset = subset | u_bit
                child_ext = rest | (adjacency[u] & ~(child_subset | fb | rest))
                accumulator.push(u)
                consider(child_subset)
                stack.append((POP, u))
                stack.append((child_subset, child_ext, fb))
            accumulator.pop(root)
    finally:
        # Final snapshot fires even on abort/limit so consumers see the
        # call's complete counters before the metrics flush below.
        if progress is not None:
            progress(snapshot())
        if _TELEMETRY.enabled:
            metrics = _TELEMETRY.metrics
            metrics.count(_metric.SEARCH_STATES_VISITED, explored)
            metrics.count(_metric.SEARCH_CHI_SQUARE_EVALUATIONS, evaluated)
            metrics.count(_metric.SEARCH_BEST_UPDATES, best_updates)
            metrics.count(_metric.SEARCH_BOUND_CUTS, bound_cuts)
            metrics.count(_metric.SEARCH_BOUND_EVALUATIONS, bound_evaluations)
            if statistic_floor is not None:
                metrics.count(_metric.SEARCH_TESTABILITY_CUTS, testability_cuts)
            metrics.observe(_metric.SEARCH_STATES_PER_CALL, explored)

    if best_mask == 0:
        best_value = 0.0
    return SearchOutcome(
        mask=best_mask, chi_square=best_value, explored=explored,
        evaluated=evaluated,
        bound_cuts=bound_cuts, bound_evaluations=bound_evaluations,
        testability_cuts=testability_cuts,
    )



# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    """Adjacency, an accumulator factory, and the search arguments."""
    n = draw(st.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adjacency = [0] * n
    for (u, v), on in zip(pairs, present):
        if on:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    if draw(st.booleans()):
        probs = draw(st.sampled_from([DYADIC_PROBS, NON_DYADIC_PROBS]))
        counts = draw(st.lists(
            st.lists(
                st.integers(0, 2), min_size=len(probs), max_size=len(probs)
            ).filter(any),
            min_size=n, max_size=n,
        ))
        payloads = [tuple(c) for c in counts]

        def make() -> DiscreteAccumulator | ContinuousAccumulator:
            return DiscreteAccumulator(probs, payloads)
    else:
        z = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        payloads = draw(st.lists(
            st.tuples(st.tuples(z, z), st.integers(1, 3)),
            min_size=n, max_size=n,
        ))

        def make() -> DiscreteAccumulator | ContinuousAccumulator:
            return ContinuousAccumulator(payloads)

    min_mass = draw(st.integers(1, 2 * n + 2))
    prune = draw(st.sampled_from(("none", "bounds")))
    statistic_floor = None
    if prune == "bounds" and draw(st.booleans()):
        statistic_floor = draw(st.floats(0.0, 12.0))
    return {
        "adjacency": adjacency,
        "make": make,
        "min_mass": min_mass,
        "limit": draw(st.none() | st.integers(1, 600)),
        "prune": prune,
        "statistic_floor": statistic_floor,
    }


def _observe(run):
    """Run one search under a fresh telemetry session.

    Returns the outcome (or ``"limit"`` when the budget fired), the
    metrics snapshot, and the progress snapshots with their wall-clock
    field zeroed.
    """
    snapshots: list[SearchProgress] = []
    with telemetry_session() as (_, metrics):
        try:
            outcome = run(snapshots.append)
        except EnumerationLimitError:
            outcome = "limit"
    progress = [replace(s, elapsed_seconds=0.0) for s in snapshots]
    return outcome, metrics.snapshot(), progress


def _oracle(case, progress):
    accumulator = case["make"]()
    if case["prune"] == "bounds":
        outcome = _search_bounded(
            case["adjacency"], accumulator,
            min_mass=case["min_mass"],
            limit=case["limit"],
            progress=progress,
            statistic_floor=case["statistic_floor"],
        )
    else:
        outcome = _search_unbounded(
            case["adjacency"], accumulator,
            min_mass=case["min_mass"],
            limit=case["limit"],
            progress=progress,
        )
    # The search reports the winner's statistic computed from its
    # payloads; the oracle walks report their running value.
    return replace(outcome, chi_square=accumulator.statistic_of(outcome.mask))


def _merged(case, progress):
    return exhaustive_best_mask(
        case["adjacency"], case["make"](),
        min_mass=case["min_mass"],
        limit=case["limit"],
        prune=case["prune"],
        backend="python",
        progress=progress,
        statistic_floor=case["statistic_floor"],
    )


class TestMergedWalkMatchesOracle:
    @settings(max_examples=300)
    @given(case=instances())
    def test_outcome_telemetry_and_progress_identical(self, case):
        expected = _observe(lambda progress: _oracle(case, progress))
        actual = _observe(lambda progress: _merged(case, progress))
        assert actual[0] == expected[0]
        assert actual[1] == expected[1]
        assert actual[2] == expected[2]

    def test_mid_walk_progress_is_compared(self):
        """Sanity: a dense instance emits snapshots before the final one."""
        adjacency = [((1 << 11) - 1) & ~(1 << v) for v in range(11)]
        case = {
            "adjacency": adjacency,
            "make": lambda: DiscreteAccumulator(
                DYADIC_PROBS, [(1, 0, 0), (0, 1, 0), (0, 0, 1)] * 3 + [(1, 1, 0)] * 2
            ),
            "min_mass": 1, "limit": None,
            "prune": "none", "statistic_floor": None,
        }
        outcome, _, progress = _observe(lambda p: _merged(case, p))
        assert outcome.explored == (1 << 11) - 1
        assert len(progress) == outcome.explored // (ABORT_CHECK_MASK + 1) + 1
        assert progress == _observe(lambda p: _oracle(case, p))[2]
