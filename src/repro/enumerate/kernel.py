"""Vectorized (numpy) search backend: one level-synchronous whole-graph walk.

The python walk in :mod:`repro.enumerate.search` spends its time in
per-state Python bytecode: one accumulator push/pop pair and one statistic
per connected set.  This module replaces that inner loop with batch numpy
evaluation while *provably* returning the identical
:class:`~repro.enumerate.search.SearchOutcome`:

1. **Same state family.**  Under ``prune="none"`` the DFS counters are
   functions of the *set* of visited states, not of the visit order:
   ``explored`` counts every connected set once, and ``evaluated``
   counts those whose mass meets ``min_mass``.  The kernel enumerates
   exactly the same family level-by-level (all states of super-vertex
   count ``s`` in one batch), so ``explored`` and ``evaluated`` match
   the python walk *exactly*.
2. **Order-independent optimum.**  Both backends break statistic ties
   toward the numerically smallest winning bitmask, so the optimum does
   not depend on enumeration order — which is what licenses batching in
   the first place.

Every state carries its summed payload next to its ``subsets``/``ext``/
``forbidden`` masks: a child is its parent plus the payload row of the
vertex it adds.  Discrete payloads are integer label counts, so the
statistic, bound and cut counts are bit-identical to the python walk's;
continuous payloads are z-sums plus mass, whose rounding only ranks
states.  The only membership matrix left is the reachable closure's, in
the bounds pass.

Under ``prune="bounds"`` the kernel batch-evaluates the same admissible
upper bounds as :mod:`repro.enumerate.bounds` against the incumbent at
batch time.  Cut accounting is then inherently order-dependent (a DFS and
a level walk hold different incumbents at corresponding decisions), so
``bound_cuts``/``bound_evaluations``/``explored`` are backend-specific
under bounds — but the optimum remains identical because pruning is
strict and the bounds are admissible.

States are ``uint64`` bitmasks, which caps the kernel at 64 vertices —
far above the reduction threshold ``n_theta`` (~20) the solver feeds it.
Larger graphs transparently fall back to the python walk (see
:func:`repro.enumerate.search.exhaustive_best_mask`).

``check_abort`` is polled between batches (every ``<= KERNEL_CHUNK``
states); the kernel holds no mutable accumulator state, so an abort
mid-batch leaves nothing to unwind.  ``limit`` aborts at batch granularity
with the flushed ``explored`` capped to ``limit + 1`` like the python
walk; per-counter partials at abort are backend-specific.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as _np

from repro.exceptions import EnumerationLimitError, SearchAbortedError
from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.search import _incumbent_seed, _Tally
from repro.telemetry.progress import ProgressCallback

__all__ = ["KERNEL_CHUNK", "MAX_KERNEL_VERTICES"]

MAX_KERNEL_VERTICES = 64
"""Hard vertex cap: states are single ``uint64`` machine words."""

KERNEL_CHUNK = 1 << 15
"""Maximum states per batch: bounds the ``KERNEL_CHUNK x n x 8``-byte bit
scratch of each expansion step and the ``check_abort`` latency."""


# ----------------------------------------------------------------------
# Bit-matrix helpers
# ----------------------------------------------------------------------
def _bits_u64(masks: "object", n: int) -> "object":
    """Expand ``(B,)`` uint64 masks into a ``(B, n)`` 0/1 uint64 matrix."""
    shifts = _np.arange(n, dtype=_np.uint64)
    return (masks[:, None] >> shifts[None, :]) & _np.uint64(1)


def _bit_matrix(masks: "object", n: int) -> "object":
    """Expand ``(B,)`` uint64 masks into a ``(B, n)`` 0/1 int64 matrix.

    The int64 view is free: the 0/1 bit patterns are identical in both
    dtypes, so no element conversion pass is needed.
    """
    return _bits_u64(masks, n).view(_np.int64)


def _neighborhood_masks(adjacency: Sequence[int]) -> "object":
    """The adjacency bitmasks as a ``(n,)`` uint64 vector, row ``i`` being
    ``adjacency[i]`` verbatim; built once per search."""
    return _np.array(adjacency, dtype=_np.uint64)


def _batch_closure(adj: "object", frontier: "object", blocked: "object") -> "object":
    """Connected closure of each row's frontier avoiding ``blocked``.

    Vectorized :func:`repro.enumerate.search._reachable_closure`: the
    returned masks include the frontier itself plus everything reachable
    from it without entering the corresponding ``blocked`` set.
    """
    n = adj.shape[0]
    visited = frontier.copy()
    allowed = ~blocked
    while True:
        selected = adj[None, :] * _bits_u64(visited, n)
        reach = _np.bitwise_or.reduce(selected, axis=1)
        grown = visited | (reach & allowed)
        if _np.array_equal(grown, visited):
            return visited
        visited = grown


# ----------------------------------------------------------------------
# Batch scorers over carried payload sums
# ----------------------------------------------------------------------
class _DiscreteScorer:
    """Batch Eq. 2 chi-square and chord-relaxation bound over count sums.

    A state's payload is its ``(l,)`` int64 label-count vector and its
    mass is that vector's sum, so every count is an exact integer.  The
    statistic and bound use the same expression trees, and the same ``W``
    summation order, as the scalar
    :class:`~repro.enumerate.accumulators.DiscreteAccumulator` /
    :func:`~repro.enumerate.bounds.discrete_upper_bound`, so every value
    is bit-identical to the python walk's.
    """

    def __init__(
        self,
        probabilities: Sequence[float],
        payloads: Sequence[Sequence[int]],
    ) -> None:
        self.probs = _np.asarray(probabilities, dtype=_np.float64)
        self.rows = _np.array(
            [list(p) for p in payloads], dtype=_np.int64
        ).reshape(len(payloads), len(probabilities))

    @staticmethod
    def mass(counts: "object") -> "object":
        """Original-vertex mass per row of carried counts."""
        return counts.sum(axis=1)

    def _weighted(self, counts: "object") -> "object":
        """``W`` per row, columns added in the scalar sum's order."""
        weighted = _np.zeros(counts.shape[0])
        for label, p in enumerate(self.probs):
            weighted += counts[:, label] * counts[:, label] / p
        return weighted

    def chi(self, counts: "object") -> "object":
        """Eq. 2 statistic per row of carried counts."""
        mass = self.mass(counts).astype(_np.float64)
        return self._weighted(counts) / mass - mass

    def bound(self, counts: "object", closure_bits: "object") -> "object":
        """Admissible Eq. 2 bound per row; mirrors the scalar formula."""
        mass = self.mass(counts).astype(_np.float64)
        weighted = self._weighted(counts)
        current = weighted / mass - mass
        candidate_counts = closure_bits @ self.rows
        m_cap = self.mass(candidate_counts)

        with _np.errstate(divide="ignore", invalid="ignore"):
            gain = (2 * counts + candidate_counts) / self.probs[None, :]
            rho = _np.where(candidate_counts > 0, gain, -_np.inf).max(axis=1)
            m_cap_f = m_cap.astype(_np.float64)
            t_cap = mass + m_cap_f
            best = _np.maximum(current, (weighted + m_cap_f * rho) / t_cap - t_cap)
            interior = mass * rho - weighted
            positive = interior > 0.0
            if positive.any():
                t_star = _np.sqrt(_np.where(positive, interior, 1.0))
                for t in (_np.floor(t_star), _np.ceil(t_star)):
                    m = t - mass
                    viable = positive & (m > 0) & (m < m_cap_f)
                    candidate = (weighted + m * rho) / t - t
                    best = _np.where(
                        viable, _np.maximum(best, candidate), best
                    )
        return _np.where(m_cap <= 0, current, best)


class _ContinuousScorer:
    """Batch Eq. 8 chi-square and triangle-inequality bound over z-sums.

    A state's payload is its ``(k + 1,)`` float64 row: the per-dimension
    raw z-sums, then the mass (an integer, so exact in float64).  The
    float sums follow the state's expansion path, so their values only
    rank states (the winner's statistic is recomputed, see
    ``statistic_of``).
    """

    def __init__(
        self, payloads: Sequence[tuple[Sequence[float], int]]
    ) -> None:
        self.rows = _np.array(
            [[*sums, size] for sums, size in payloads], dtype=_np.float64
        ).reshape(len(payloads), -1)
        self.abs_z = _np.abs(self.rows[:, :-1])

    @staticmethod
    def mass(payload: "object") -> "object":
        """Original-vertex mass per row of carried payloads."""
        return payload[:, -1]

    def chi(self, payload: "object") -> "object":
        """Eq. 8 statistic per row of carried payloads."""
        sums = payload[:, :-1]
        return (sums * sums).sum(axis=1) / payload[:, -1]

    def bound(self, payload: "object", closure_bits: "object") -> "object":
        """Admissible Eq. 8 bound per row; mirrors the scalar formula."""
        reach = _np.abs(payload[:, :-1]) + closure_bits @ self.abs_z
        return (reach * reach).sum(axis=1) / payload[:, -1]


def _scorer_for(accumulator: DiscreteAccumulator | ContinuousAccumulator):
    """Build the batch scorer matching a bundled accumulator type."""
    if isinstance(accumulator, DiscreteAccumulator):
        return _DiscreteScorer(accumulator.probabilities, accumulator.payloads)
    return _ContinuousScorer(accumulator.payloads)


# ----------------------------------------------------------------------
# The level-synchronous batch search
# ----------------------------------------------------------------------
class _KernelRun:
    """One kernel invocation: the incumbent and counters (in ``tally``),
    and the per-level batch loops."""

    def __init__(
        self,
        scorer,
        adjacency: Sequence[int],
        tally: _Tally,
        *,
        min_mass: int,
        limit: int | None,
        bounded: bool,
        check_abort: Callable[[], bool] | None,
        progress: ProgressCallback | None,
        statistic_floor: float | None,
    ) -> None:
        self.scorer = scorer
        self.n = len(adjacency)
        self.adj = _neighborhood_masks(adjacency)
        self.tally = tally
        self.min_mass = min_mass
        # Every payload carries at least one vertex, so min_mass <= 1
        # admits every state and neither mass test runs.
        self.gated = min_mass > 1
        self.mass_cut = bounded and self.gated
        self.limit = limit
        self.bounded = bounded
        self.check_abort = check_abort
        self.progress = progress
        self.statistic_floor = statistic_floor
        self.seed_value = float("-inf")

    # -- visiting -------------------------------------------------------
    def _visit_chunk(self, subsets: "object", payload: "object") -> None:
        """Count, score, and fold one batch of newly created states."""
        tally = self.tally
        batch = int(subsets.shape[0])
        if self.limit is not None and tally.explored + batch > self.limit:
            tally.explored = self.limit + 1
            raise EnumerationLimitError(self.limit)
        if self.check_abort is not None and self.check_abort():
            raise SearchAbortedError()
        tally.explored += batch
        tally.kernel_batches += 1
        if self.progress is not None:
            self.progress(tally.snapshot())
        if self.gated:
            eligible = self.scorer.mass(payload) >= self.min_mass
            subsets, payload = subsets[eligible], payload[eligible]
            if not subsets.shape[0]:
                return
        tally.evaluated += int(subsets.shape[0])
        chi = self.scorer.chi(payload)
        top = float(chi.max())
        if top < tally.best_value:
            return
        top_mask = int(subsets[chi == top].min())
        if top > tally.best_value or top_mask < tally.best_mask:
            tally.best_value = top
            tally.best_mask = top_mask
            tally.best_updates += 1

    # -- pruning --------------------------------------------------------
    def _prune_level(
        self,
        subsets: "object",
        ext: "object",
        forbidden: "object",
        payload: "object",
    ) -> "object":
        """Per-level bounds cuts: reachable mass vs ``min_mass``, then the
        admissible bound vs the incumbent.

        Returns the boolean keep-mask over rows.  Mirrors the python
        walk's per-frame cuts (both count into ``bound_cuts``; bound cuts
        below ``statistic_floor`` also into ``testability_cuts``), with
        the incumbent taken at batch time — admissible either way because
        pruning is strict and the bound never underestimates.
        """
        tally = self.tally
        scorer = self.scorer
        closure_bits = _bit_matrix(
            _batch_closure(self.adj, ext, subsets | forbidden), self.n
        )
        keep = _np.ones(subsets.shape[0], dtype=bool)
        if self.mass_cut:
            row_mass = scorer.mass(scorer.rows)
            reachable_mass = scorer.mass(payload) + closure_bits @ row_mass
            keep = reachable_mass >= self.min_mass
            tally.bound_cuts += int((~keep).sum())
        threshold = max(tally.best_value, self.seed_value)
        if threshold == float("-inf") or not keep.any():
            return keep
        rows = _np.flatnonzero(keep)
        tally.bound_evaluations += int(rows.shape[0])
        bound = scorer.bound(payload[rows], closure_bits[rows])
        cut = bound < threshold
        tally.bound_cuts += int(cut.sum())
        if self.statistic_floor is not None:
            # The floor never exceeds the threshold, so these rows are cut.
            tally.testability_cuts += int((bound < self.statistic_floor).sum())
        keep[rows[cut]] = False
        return keep

    # -- expansion ------------------------------------------------------
    def _expand_level(
        self,
        subsets: "object",
        ext: "object",
        forbidden: "object",
        payload: "object",
    ) -> tuple["object", "object", "object", "object"]:
        """All children of the given states, one per extension candidate.

        Vectorizes the python walk's binary branching: expanding candidate
        ``u`` of a state forbids every smaller candidate of the same
        state, keeps the larger ones, adds ``u``'s unseen neighbours to
        the frontier and ``u``'s payload row to the parent's — identical
        successor semantics, whole level at once.
        """
        one = _np.uint64(1)
        out = ([], [], [], [])
        for lo in range(0, subsets.shape[0], KERNEL_CHUNK):
            sub_c = subsets[lo : lo + KERNEL_CHUNK]
            ext_c = ext[lo : lo + KERNEL_CHUNK]
            fb_c = forbidden[lo : lo + KERNEL_CHUNK]
            rows, cols = _np.nonzero(_bits_u64(ext_c, self.n))
            u_bit = one << cols.astype(_np.uint64)
            below = u_bit - one
            parent_sub = sub_c[rows]
            parent_ext = ext_c[rows]
            parent_fb = fb_c[rows]
            out[0].append(parent_sub | u_bit)
            out[1].append(
                (parent_ext & ~(u_bit | below))
                | (self.adj[cols] & ~(parent_sub | parent_fb | parent_ext))
            )
            out[2].append(parent_fb | (parent_ext & below))
            out[3].append(payload[lo + rows] + self.scorer.rows[cols])
        # Each output is joined and its chunks dropped before the next,
        # so the chunks and the whole child level overlap by one array.
        level = []
        for parts in out:
            level.append(_np.concatenate(parts))
            parts.clear()
        return tuple(level)

    # -- the walk -------------------------------------------------------
    def run(self) -> None:
        """Level-synchronous search of the whole graph.

        Level 1 holds every singleton ``{v}``, carrying payload row ``v``,
        with its larger neighbours as the extension frontier and every
        smaller vertex forbidden, so each connected set is created
        exactly once, from its smallest member.
        """
        scorer = self.scorer
        singles = _np.uint64(1) << _np.arange(self.n, dtype=_np.uint64)
        below = singles - _np.uint64(1)
        if self.bounded:
            eligible = scorer.mass(scorer.rows) >= self.min_mass
            chi = scorer.chi(scorer.rows)[eligible]
            self.seed_value = _incumbent_seed(
                float(chi.max()) if chi.shape[0] else float("-inf"),
                self.statistic_floor,
            )
        subsets, ext, forbidden, payload = (
            singles, self.adj & ~(singles | below), below, scorer.rows
        )
        while subsets.shape[0]:
            for lo in range(0, subsets.shape[0], KERNEL_CHUNK):
                self._visit_chunk(
                    subsets[lo : lo + KERNEL_CHUNK],
                    payload[lo : lo + KERNEL_CHUNK],
                )
            live = ext != _np.uint64(0)
            if self.bounded and live.any():
                rows = _np.flatnonzero(live)
                keep = self._prune_level(
                    subsets[rows], ext[rows], forbidden[rows], payload[rows]
                )
                live[rows[~keep]] = False
            if not live.any():
                break
            # Rebinding drops the parent level before its children exist.
            subsets, ext, forbidden, payload = (
                subsets[live], ext[live], forbidden[live], payload[live]
            )
            subsets, ext, forbidden, payload = self._expand_level(
                subsets, ext, forbidden, payload
            )


def _kernel_search(
    adjacency: Sequence[int],
    accumulator: DiscreteAccumulator | ContinuousAccumulator,
    tally: _Tally,
    *,
    min_mass: int,
    limit: int | None,
    bounded: bool,
    check_abort: Callable[[], bool] | None,
    progress: ProgressCallback | None,
    statistic_floor: float | None,
) -> None:
    """The numpy backend of :func:`~repro.enumerate.search.exhaustive_best_mask`.

    Called by it with checked arguments on a graph of 1 to
    :data:`MAX_KERNEL_VERTICES` vertices; counts into ``tally``.  Reads
    the accumulator's payloads and never mutates it.  ``progress``
    snapshots fire per state batch and also report batch counts.
    """
    _KernelRun(
        _scorer_for(accumulator), adjacency, tally,
        min_mass=min_mass, limit=limit, bounded=bounded,
        check_abort=check_abort, progress=progress,
        statistic_floor=statistic_floor,
    ).run()
