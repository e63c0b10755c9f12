"""The discrete chi-square statistic of the paper (Eq. 1 / Eq. 2).

For a subgraph with ``n`` vertices, observed label counts
``Y = (Y_1, ..., Y_l)`` and null model ``P = (p_1, ..., p_l)``::

    X^2 = sum_i (Y_i - n p_i)^2 / (n p_i)  =  sum_i Y_i^2 / (n p_i)  -  n

:func:`weighted_square_sum` is the one evaluation of ``W = sum_i Y_i^2 /
p_i``: every discrete statistic and bound (this module, the search
accumulators and bounds, and the numpy kernel) adds its terms in the
same order over the integer counts, so Eq. 2 is a function of the count
vector alone, whichever path computed it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.exceptions import LabelingError, ProbabilityError

__all__ = [
    "CountVector",
    "chi_square_statistic",
    "validate_probabilities",
    "weighted_square_sum",
]


def validate_probabilities(probabilities: Sequence[float]) -> tuple[float, ...]:
    """Validate a discrete null model ``P`` and return it as a tuple.

    Every ``p_i`` must be strictly inside (0, 1) — a zero-probability label
    makes Eq. 2 undefined — and the vector must sum to 1 (within floating
    point tolerance).
    """
    probs = tuple(float(p) for p in probabilities)
    if len(probs) < 2:
        raise ProbabilityError(
            f"need at least 2 labels for a meaningful null model, got {len(probs)}"
        )
    for i, p in enumerate(probs):
        if not 0.0 < p < 1.0:
            raise ProbabilityError(
                f"probability p_{i}={p} must lie strictly in (0, 1)"
            )
    total = math.fsum(probs)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ProbabilityError(f"probabilities sum to {total!r}, expected 1.0")
    return probs


def weighted_square_sum(
    counts: Sequence[int], probabilities: Sequence[float]
) -> float:
    """``W = sum_i Y_i^2 / p_i``, its terms added left to right from 0.0.

    Eq. 2 is ``W / n - n``; every discrete evaluation in the package uses
    this order, so equal count vectors give bit-equal statistics.
    """
    weighted = 0.0
    for count, p in zip(counts, probabilities):
        weighted += count * count / p
    return weighted


def chi_square_statistic(
    counts: Sequence[int], probabilities: Sequence[float]
) -> float:
    """Eq. 2 evaluated directly on a count vector.

    Returns 0.0 for the empty count vector (an empty subgraph deviates from
    nothing).
    """
    probs = validate_probabilities(probabilities)
    if len(counts) != len(probs):
        raise LabelingError(
            f"count vector has {len(counts)} entries but the null model has "
            f"{len(probs)} labels"
        )
    for count in counts:
        if count < 0:
            raise LabelingError(f"counts must be non-negative, got {count}")
    n = sum(counts)
    return weighted_square_sum(counts, probs) / n - n if n else 0.0


class CountVector:
    """A label count vector and its Eq. 2 statistic.

    Parameters
    ----------
    probabilities:
        The null model ``P``; validated once and shared by derived vectors.
    counts:
        Optional initial counts (defaults to all zeros).
    """

    __slots__ = ("_probs", "_counts", "_size")

    def __init__(
        self,
        probabilities: Sequence[float],
        counts: Sequence[int] | None = None,
    ) -> None:
        self._probs = validate_probabilities(probabilities)
        if counts is None:
            self._counts = [0] * len(self._probs)
        else:
            if len(counts) != len(self._probs):
                raise LabelingError(
                    f"count vector has {len(counts)} entries but the null "
                    f"model has {len(self._probs)} labels"
                )
            for c in counts:
                if c < 0:
                    raise LabelingError(f"counts must be non-negative, got {c}")
            self._counts = [int(c) for c in counts]
        self._size = sum(self._counts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def probabilities(self) -> tuple[float, ...]:
        """The null model this vector is measured against."""
        return self._probs

    @property
    def num_labels(self) -> int:
        """Number of labels ``l``."""
        return len(self._probs)

    @property
    def size(self) -> int:
        """Total number of vertices counted, ``n``."""
        return self._size

    @property
    def counts(self) -> tuple[int, ...]:
        """The observed counts ``Y`` as an immutable snapshot."""
        return tuple(self._counts)

    def count(self, label: int) -> int:
        """The observed count of a single label index."""
        self._check_label(label)
        return self._counts[label]

    def chi_square(self) -> float:
        """The chi-square statistic of the current counts (Eq. 2, O(l))."""
        n = self._size
        return weighted_square_sum(self._counts, self._probs) / n - n if n else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_label(self, label: int) -> None:
        if not 0 <= label < len(self._probs):
            raise LabelingError(
                f"label index {label} out of range for {len(self._probs)} labels"
            )

    def add(self, label: int, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` vertices of ``label`` (O(1))."""
        self._check_label(label)
        if multiplicity < 0:
            raise LabelingError(f"multiplicity must be >= 0, got {multiplicity}")
        self._counts[label] += multiplicity
        self._size += multiplicity

    def remove(self, label: int, multiplicity: int = 1) -> None:
        """Remove ``multiplicity`` vertices of ``label`` (O(1))."""
        self._check_label(label)
        if multiplicity < 0:
            raise LabelingError(f"multiplicity must be >= 0, got {multiplicity}")
        old = self._counts[label]
        if old < multiplicity:
            raise LabelingError(
                f"cannot remove {multiplicity} of label {label}: only {old} present"
            )
        self._counts[label] = old - multiplicity
        self._size -= multiplicity

    # ------------------------------------------------------------------
    # Combination (used when merging super-vertices)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CountVector") -> None:
        if self._probs != other._probs:
            raise LabelingError(
                "cannot combine count vectors measured against different null models"
            )

    def merged(self, other: "CountVector") -> "CountVector":
        """A new vector with element-wise summed counts (O(l))."""
        self._check_compatible(other)
        summed = [a + b for a, b in zip(self._counts, other._counts)]
        return CountVector(self._probs, summed)

    def copy(self) -> "CountVector":
        """An independent copy of this vector.

        The null model was validated when this vector was made, so the
        copy skips validation, which makes copying a zero vector the cheap
        way to start one vector per block.
        """
        clone = CountVector.__new__(CountVector)
        clone._probs = self._probs
        clone._counts = list(self._counts)
        clone._size = self._size
        return clone

    @classmethod
    def singleton(cls, probabilities: Sequence[float], label: int) -> "CountVector":
        """The count vector of a single vertex with the given label."""
        vector = cls(probabilities)
        vector.add(label)
        return vector

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountVector):
            return NotImplemented
        return self._probs == other._probs and self._counts == other._counts

    def __hash__(self) -> int:
        raise TypeError("CountVector objects are mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CountVector(counts={self._counts}, chi_square={self.chi_square():.4f})"
