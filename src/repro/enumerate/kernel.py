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
from repro.enumerate.search import (
    SearchTestability,
    _incumbent_seed,
    _Tally,
)
from repro.telemetry.progress import ProgressCallback

__all__ = ["KERNEL_CHUNK", "MAX_KERNEL_VERTICES"]

MAX_KERNEL_VERTICES = 64
"""Hard vertex cap: states are single ``uint64`` machine words."""

KERNEL_CHUNK = 1 << 15
"""Maximum states per batch: bounds both peak memory for the bit-matrix
scratch (``KERNEL_CHUNK x 64`` bytes) and ``check_abort`` latency."""


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
# Batch scorers: vectorized accumulators + bounds
# ----------------------------------------------------------------------
class _DiscreteScorer:
    """Batch Eq. 2 chi-square and chord-relaxation bound over count payloads.

    Counts are exact integers (bit-plane popcounts for the statistic,
    matmuls for the bound); the statistic and bound
    use the same elementwise expression trees as the scalar
    :class:`~repro.enumerate.accumulators.DiscreteAccumulator` /
    :func:`~repro.enumerate.bounds.discrete_upper_bound`, so with dyadic
    label probabilities every value is bit-identical to the python walk.
    """

    def __init__(
        self,
        probabilities: Sequence[float],
        payloads: Sequence[Sequence[int]],
    ) -> None:
        self.probs = _np.asarray(probabilities, dtype=_np.float64)
        self.payload_matrix = _np.array(
            [list(p) for p in payloads], dtype=_np.int64
        ).reshape(len(payloads), len(probabilities))
        self.mass = self.payload_matrix.sum(axis=1)
        self.planes = self._build_planes()

    def _build_planes(self) -> "object":
        """Bit-plane masks enabling popcount-only count extraction.

        Writing payload counts in binary, ``counts[:, l]`` over a batch of
        vertex-set masks is ``sum_k 2**k * popcount(mask & planes[l, k])``
        where ``planes[l, k]`` collects the vertices whose label-``l``
        count has bit ``k`` set.  That replaces the (B, n) membership
        matrix + matmul with a few popcount ufunc passes over the raw
        uint64 masks — same integers, so the statistic stays
        bit-identical.
        """
        n, n_labels = self.payload_matrix.shape
        depth = max(1, int(self.payload_matrix.max(initial=0)).bit_length())
        planes = _np.zeros((n_labels, depth), dtype=_np.uint64)
        for label in range(n_labels):
            for k in range(depth):
                mask = 0
                for v in range(n):
                    if (int(self.payload_matrix[v, label]) >> k) & 1:
                        mask |= 1 << v
                planes[label, k] = mask
        return planes

    def counts_for_masks(self, masks: "object") -> "object":
        """Per-row label counts, ``(B, n_labels)`` int64, from raw masks."""
        hits = _np.bitwise_count(masks[:, None, None] & self.planes[None, :, :])
        weights = _np.int64(1) << _np.arange(
            self.planes.shape[1], dtype=_np.int64
        )
        return (hits.astype(_np.int64) * weights[None, None, :]).sum(axis=2)

    def chi_masks(self, masks: "object") -> "object":
        """Eq. 2 statistic per row of ``(B,)`` uint64 vertex-set masks."""
        counts = self.counts_for_masks(masks)
        mass = counts.sum(axis=1).astype(_np.float64)
        with _np.errstate(divide="ignore", invalid="ignore"):
            weighted = (
                counts.astype(_np.float64) ** 2 / self.probs[None, :]
            ).sum(axis=1)
            return _np.where(mass > 0, weighted / mass - mass, 0.0)

    def bound(self, bits: "object", closure_bits: "object") -> "object":
        """Admissible Eq. 2 bound per row; mirrors the scalar formula."""
        counts = bits @ self.payload_matrix
        mass = (bits @ self.mass).astype(_np.float64)
        with _np.errstate(divide="ignore", invalid="ignore"):
            weighted = (
                counts.astype(_np.float64) ** 2 / self.probs[None, :]
            ).sum(axis=1)
            current = weighted / mass - mass

        candidate_counts = closure_bits @ self.payload_matrix
        m_cap = closure_bits @ self.mass

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
    """Batch Eq. 8 chi-square and triangle-inequality bound over z payloads.

    Raw-sum matrices are float matmuls; summation order differs from the
    scalar accumulator's incremental path, so values agree to a few ulps
    (the winning mask and the outcome accounting remain exact — see the
    differential property suite).
    """

    def __init__(
        self, payloads: Sequence[tuple[Sequence[float], int]]
    ) -> None:
        self.z_matrix = _np.array(
            [list(sums) for sums, _ in payloads], dtype=_np.float64
        ).reshape(len(payloads), -1)
        self.abs_z = _np.abs(self.z_matrix)
        self.mass = _np.array([size for _, size in payloads], dtype=_np.int64)

    def chi_masks(self, masks: "object") -> "object":
        """Eq. 8 statistic per row of ``(B,)`` uint64 vertex-set masks.

        z sums are floats, so no popcount shortcut exists: this expands
        the membership matrix and multiplies.
        """
        bits = _bit_matrix(masks, self.z_matrix.shape[0])
        sums = bits @ self.z_matrix
        mass = (bits @ self.mass).astype(_np.float64)
        with _np.errstate(divide="ignore", invalid="ignore"):
            return _np.where(mass > 0, (sums * sums).sum(axis=1) / mass, 0.0)

    def bound(self, bits: "object", closure_bits: "object") -> "object":
        """Admissible Eq. 8 bound per row; mirrors the scalar formula."""
        sums = bits @ self.z_matrix
        mass = (bits @ self.mass).astype(_np.float64)
        frontier = closure_bits @ self.abs_z
        reach = _np.abs(sums) + frontier
        return (reach * reach).sum(axis=1) / mass


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
        testability: SearchTestability | None,
    ) -> None:
        self.scorer = scorer
        self.n = len(adjacency)
        self.adj = _neighborhood_masks(adjacency)
        self.tally = tally
        self.min_mass = min_mass
        # Every payload carries at least one vertex, so min_mass <= 1
        # admits every state and neither mass test runs.
        self.gated = min_mass > 1
        self.floor_cut = bounded and self.gated
        self.limit = limit
        self.bounded = bounded
        self.check_abort = check_abort
        self.progress = progress
        self.testability = testability
        self.seed_value = float("-inf")

    def _masses(self, masks: "object") -> "object":
        """Original-vertex mass per row of ``(B,)`` uint64 vertex-set masks."""
        return _bit_matrix(masks, self.n) @ self.scorer.mass

    # -- visiting -------------------------------------------------------
    def _visit_chunk(self, subsets: "object") -> None:
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
            subsets = subsets[self._masses(subsets) >= self.min_mass]
            if not subsets.shape[0]:
                return
        tally.evaluated += int(subsets.shape[0])
        chi = self.scorer.chi_masks(subsets)
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
    ) -> "object":
        """Per-level cuts: reachable mass vs ``min_mass`` (bounds mode
        only), testable mass, then the admissible bound vs the incumbent
        (bounds mode only).

        Returns the boolean keep-mask over rows.  Mirrors the python
        walk's per-frame cuts (reachability and bound count into
        ``bound_cuts``, testable-mass shortfalls into
        ``testability_cuts``), with the incumbent taken at batch time —
        admissible either way because pruning is strict and the bound
        never underestimates.
        """
        tally = self.tally
        closure = _batch_closure(self.adj, ext, subsets | forbidden)
        keep = _np.ones(subsets.shape[0], dtype=bool)
        if self.floor_cut or self.testability is not None:
            reachable_mass = self._masses(subsets) + self._masses(closure)
            if self.floor_cut:
                short = reachable_mass < self.min_mass
                tally.bound_cuts += int(short.sum())
                keep &= ~short
            if self.testability is not None:
                short = keep & (reachable_mass < self.testability.min_mass)
                tally.testability_cuts += int(short.sum())
                keep &= ~short
        if not self.bounded:
            return keep
        threshold = max(tally.best_value, self.seed_value)
        if threshold == float("-inf") or not keep.any():
            return keep
        rows = _np.flatnonzero(keep)
        tally.bound_evaluations += int(rows.shape[0])
        bound = self.scorer.bound(
            _bit_matrix(subsets[rows], self.n),
            _bit_matrix(closure[rows], self.n),
        )
        cut = bound < threshold
        tally.bound_cuts += int(cut.sum())
        keep[rows[cut]] = False
        return keep

    # -- expansion ------------------------------------------------------
    def _expand_level(
        self,
        subsets: "object",
        ext: "object",
        forbidden: "object",
    ) -> tuple["object", "object", "object"]:
        """All children of the given states, one per extension candidate.

        Vectorizes the python walk's binary branching: expanding candidate
        ``u`` of a state forbids every smaller candidate of the same
        state, keeps the larger ones, and adds ``u``'s unseen neighbours
        to the frontier — identical successor semantics, whole level at
        once.
        """
        one = _np.uint64(1)
        out_sub, out_ext, out_fb = [], [], []
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
            out_sub.append(parent_sub | u_bit)
            out_fb.append(parent_fb | (parent_ext & below))
            out_ext.append(
                (parent_ext & ~(u_bit | below))
                | (self.adj[cols] & ~(parent_sub | parent_fb | parent_ext))
            )
        return (
            _np.concatenate(out_sub),
            _np.concatenate(out_ext),
            _np.concatenate(out_fb),
        )

    # -- the walk -------------------------------------------------------
    def run(self) -> None:
        """Level-synchronous search of the whole graph.

        Level 1 holds every singleton ``{v}``, with its larger neighbours
        as the extension frontier and every smaller vertex forbidden, so
        each connected set is created exactly once, from its smallest
        member.
        """
        singles = _np.uint64(1) << _np.arange(self.n, dtype=_np.uint64)
        below = singles - _np.uint64(1)
        if self.bounded:
            chi = self.scorer.chi_masks(singles)[self.scorer.mass >= self.min_mass]
            self.seed_value = _incumbent_seed(
                float(chi.max()) if chi.shape[0] else float("-inf"),
                self.testability,
            )
        subsets, ext, forbidden = singles, self.adj & ~(singles | below), below
        while subsets.shape[0]:
            for lo in range(0, subsets.shape[0], KERNEL_CHUNK):
                self._visit_chunk(subsets[lo : lo + KERNEL_CHUNK])
            live = ext != _np.uint64(0)
            if (self.bounded or self.testability is not None) and live.any():
                rows = _np.flatnonzero(live)
                keep = self._prune_level(subsets[rows], ext[rows], forbidden[rows])
                live[rows[~keep]] = False
            if not live.any():
                break
            subsets, ext, forbidden = self._expand_level(
                subsets[live], ext[live], forbidden[live]
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
    testability: SearchTestability | None,
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
        check_abort=check_abort, progress=progress, testability=testability,
    ).run()
