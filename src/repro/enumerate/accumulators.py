"""Incremental chi-square accumulators driven by the exhaustive search.

The exhaustive search walks the connected-subgraph recursion tree pushing
and popping vertices; an accumulator maintains the chi-square of the
current vertex set in O(l) or O(k) per step instead of recomputing from
scratch.  Vertices carry *payloads* — a single original vertex contributes
a unit payload, while a super-vertex contributes its whole merged count
vector / raw-sum vector, which is how the same search runs unchanged on
original graphs and on (reduced) super-graphs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.exceptions import LabelingError
from repro.enumerate.bounds import continuous_upper_bound, discrete_upper_bound
from repro.enumerate.bitset import iter_bits
from repro.stats.chi_square import (
    chi_square_statistic,
    validate_probabilities,
    weighted_square_sum,
)

__all__ = [
    "ContinuousAccumulator",
    "DiscreteAccumulator",
]


class DiscreteAccumulator:
    """Incremental Eq. 2 chi-square over discrete count-vector payloads.

    Parameters
    ----------
    probabilities:
        The null model shared by all payloads.
    payloads:
        ``payloads[i]`` is the count vector (tuple of per-label counts) that
        vertex ``i`` contributes — ``(0, ..., 1, ..., 0)`` for an original
        vertex, non-negative counts with a positive sum for a super-vertex.
    """

    __slots__ = ("_probs", "_payloads", "_payload_sizes", "_counts", "_size")

    def __init__(
        self,
        probabilities: Sequence[float],
        payloads: Sequence[Sequence[int]],
    ) -> None:
        self._probs = validate_probabilities(probabilities)
        l = len(self._probs)
        checked: list[tuple[int, ...]] = []
        for i, payload in enumerate(payloads):
            tup = tuple(int(c) for c in payload)
            if len(tup) != l:
                raise LabelingError(
                    f"payload {i} has {len(tup)} labels, the null model has {l}"
                )
            if any(c < 0 for c in tup):
                raise LabelingError(f"payload {i} has negative counts")
            if not any(tup):
                raise LabelingError(f"payload {i} carries no vertices")
            checked.append(tup)
        self._payloads = checked
        self._payload_sizes = tuple(sum(p) for p in checked)
        self._counts = [0] * l
        self._size = 0

    def push(self, index: int) -> None:
        """Include vertex ``index``'s payload in the current set (O(l))."""
        counts = self._counts
        for label, c in enumerate(self._payloads[index]):
            if c:
                counts[label] += c
        self._size += self._payload_sizes[index]

    def pop(self, index: int) -> None:
        """Remove vertex ``index``'s payload from the current set (O(l))."""
        counts = self._counts
        for label, c in enumerate(self._payloads[index]):
            if c:
                counts[label] -= c
        self._size -= self._payload_sizes[index]

    def chi_square(self) -> float:
        """Eq. 2 statistic of the current set (0.0 when empty)."""
        n = self._size
        return weighted_square_sum(self._counts, self._probs) / n - n if n else 0.0

    def upper_bound(self, candidate_mask: int) -> float:
        """Admissible Eq. 2 bound over supersets within ``candidate_mask``.

        Spends the candidates' mass on the best still-reachable label
        (chord relaxation of the convex per-label gain); see
        :func:`repro.enumerate.bounds.discrete_upper_bound`.
        """
        return discrete_upper_bound(
            self._size, self._probs, self._counts, self._counts_of(candidate_mask)
        )

    def statistic_of(self, mask: int) -> float:
        """Eq. 2 of the set ``mask`` from its summed integer counts."""
        return chi_square_statistic(self._counts_of(mask), self._probs)

    def _counts_of(self, mask: int) -> list[int]:
        """Per-label counts summed over the payloads of the set ``mask``."""
        counts = [0] * len(self._probs)
        while mask:
            low = mask & -mask
            mask ^= low
            for label, c in enumerate(self._payloads[low.bit_length() - 1]):
                counts[label] += c
        return counts

    @property
    def size(self) -> int:
        """Total original-vertex count of the current set."""
        return self._size

    @property
    def counts(self) -> tuple[int, ...]:
        """Current merged count vector."""
        return tuple(self._counts)

    @property
    def probabilities(self) -> tuple[float, ...]:
        """The null model shared by all payloads (read-only)."""
        return tuple(self._probs)

    @property
    def payloads(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex count-vector payloads in index order (read-only).

        Exposed so batch backends (:mod:`repro.enumerate.kernel`) can
        precompute payload matrices without reaching into private state.
        """
        return tuple(self._payloads)

    @property
    def payload_sizes(self) -> tuple[int, ...]:
        """Original-vertex mass each vertex contributes, in index order.

        Consumed by the search's ``min_mass`` cut: the mass of a search
        state plus its reachable closure decides whether any extension
        can still be large enough.
        """
        return self._payload_sizes


class ContinuousAccumulator:
    """Incremental Eq. 8 chi-square over continuous raw-sum payloads.

    ``payloads[i]`` is ``(raw_sums, size)``: the per-dimension z-score sums
    and the original-vertex count contributed by vertex ``i``.  The region
    statistic is ``X^2 = sum_j R_j^2 / |S|`` (see
    :class:`repro.stats.zscore.RegionScore`).
    """

    __slots__ = ("_payloads", "_abs_payloads", "_sums", "_size", "_dims")

    def __init__(
        self, payloads: Sequence[tuple[Sequence[float], int]]
    ) -> None:
        if not payloads:
            raise LabelingError("need at least one payload")
        dims = len(payloads[0][0])
        if dims < 1:
            raise LabelingError("payloads need at least one dimension")
        checked: list[tuple[tuple[float, ...], int]] = []
        for i, (sums, size) in enumerate(payloads):
            tup = tuple(float(s) for s in sums)
            if len(tup) != dims:
                raise LabelingError(
                    f"payload {i} has {len(tup)} dimensions, expected {dims}"
                )
            if size < 1:
                raise LabelingError(f"payload {i} has non-positive size {size}")
            checked.append((tup, int(size)))
        self._payloads = checked
        self._abs_payloads = tuple(
            tuple(abs(s) for s in sums) for sums, _ in checked
        )
        self._sums = [0.0] * dims
        self._size = 0
        self._dims = dims

    def push(self, index: int) -> None:
        """Include vertex ``index``'s payload in the current set (O(k))."""
        sums, size = self._payloads[index]
        for j, s in enumerate(sums):
            self._sums[j] += s
        self._size += size

    def pop(self, index: int) -> None:
        """Remove vertex ``index``'s payload from the current set (O(k))."""
        sums, size = self._payloads[index]
        for j, s in enumerate(sums):
            self._sums[j] -= s
        self._size -= size
        if self._size == 0:
            for j in range(self._dims):
                self._sums[j] = 0.0

    def chi_square(self) -> float:
        """Eq. 8 statistic of the current set (0.0 when empty)."""
        if self._size == 0:
            return 0.0
        return math.fsum(s * s for s in self._sums) / self._size

    def upper_bound(self, candidate_mask: int) -> float:
        """Admissible Eq. 8 bound over supersets within ``candidate_mask``.

        Bounds each ``|R_j|`` by adding every candidate ``|z_j|`` while the
        denominator stays at the current size; see
        :func:`repro.enumerate.bounds.continuous_upper_bound`.
        """
        frontier = [0.0] * self._dims
        mask = candidate_mask
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            mask ^= low
            for j, s in enumerate(self._abs_payloads[index]):
                frontier[j] += s
        return continuous_upper_bound(self._sums, frontier, self._size)

    def statistic_of(self, mask: int) -> float:
        """Eq. 8 of the set ``mask`` from ``fsum`` z-sums of its payloads."""
        members = [self._payloads[i] for i in iter_bits(mask)]
        size = sum(size for _, size in members)
        sums = [math.fsum(raw[j] for raw, _ in members) for j in range(self._dims)]
        return math.fsum(r * r for r in sums) / size if size else 0.0

    @property
    def size(self) -> int:
        """Total original-vertex count of the current set."""
        return self._size

    @property
    def payloads(self) -> tuple[tuple[tuple[float, ...], int], ...]:
        """Per-vertex ``(raw_sums, size)`` payloads in index order
        (read-only; consumed by :mod:`repro.enumerate.kernel`)."""
        return tuple(self._payloads)

    @property
    def payload_sizes(self) -> tuple[int, ...]:
        """Original-vertex mass each vertex contributes, in index order."""
        return tuple(size for _, size in self._payloads)
