"""Discrete vertex labelings (Problem 1 of the paper).

A :class:`DiscreteLabeling` binds three things together: an alphabet of
``l`` symbols, the null-model probability vector ``P = (p_1, ..., p_l)``
from which labels are assumed independently drawn, and the assignment of a
label to every vertex.  Labels are stored as integer indices into the
alphabet for speed; symbolic access is provided for reporting.
"""

from __future__ import annotations

import math
import random
from collections.abc import Hashable, Iterable, Mapping, Sequence

from repro.exceptions import LabelingError
from repro.graph.generators import resolve_rng
from repro.graph.graph import Graph
from repro.stats.chi_square import CountVector, validate_probabilities

__all__ = ["DiscreteLabeling", "empirical_probabilities", "uniform_probabilities"]


def uniform_probabilities(num_labels: int) -> tuple[float, ...]:
    """The uniform null model ``p_i = 1/l`` used throughout Section 5.4."""
    if num_labels < 2:
        raise LabelingError(f"need at least 2 labels, got {num_labels}")
    return (1.0 / num_labels,) * num_labels


def empirical_probabilities(
    labels: Iterable[int], num_labels: int, *, smoothing: float = 0.5
) -> tuple[float, ...]:
    """Estimate the null model from observed label frequencies.

    Section 2.1 allows ``p_0`` to be "empirically calculated as the fraction
    of number of occurrences over the whole space".  Additive (Laplace)
    smoothing keeps every probability strictly positive, as Eq. 2 requires.
    """
    if num_labels < 2:
        raise LabelingError(f"need at least 2 labels, got {num_labels}")
    if smoothing < 0:
        raise LabelingError(f"smoothing must be >= 0, got {smoothing}")
    counts = [0] * num_labels
    total = 0
    for label in labels:
        if not 0 <= label < num_labels:
            raise LabelingError(f"label {label} out of range for {num_labels} labels")
        counts[label] += 1
        total += 1
    if total == 0:
        raise LabelingError("cannot estimate probabilities from zero observations")
    if smoothing == 0 and any(c == 0 for c in counts):
        raise LabelingError(
            "a label never occurs; use smoothing > 0 to keep probabilities positive"
        )
    denominator = total + smoothing * num_labels
    return tuple((c + smoothing) / denominator for c in counts)


class DiscreteLabeling:
    """Assignment of one of ``l`` symbols to every vertex, plus a null model.

    Parameters
    ----------
    probabilities:
        The null model ``P``; must be strictly positive and sum to 1.
    assignment:
        Mapping from vertex to label *index* in ``range(l)``.
    symbols:
        Optional human-readable symbols (defaults to ``"0", "1", ...``).
    """

    __slots__ = ("_probs", "_assignment", "_symbols", "__weakref__")

    def __init__(
        self,
        probabilities: Sequence[float],
        assignment: Mapping[Hashable, int],
        *,
        symbols: Sequence[str] | None = None,
    ) -> None:
        self._probs = validate_probabilities(probabilities)
        l = len(self._probs)
        if symbols is None:
            self._symbols = tuple(str(i) for i in range(l))
        else:
            if len(symbols) != l:
                raise LabelingError(
                    f"{len(symbols)} symbols supplied for {l} labels"
                )
            if len(set(symbols)) != l:
                raise LabelingError("symbols must be distinct")
            self._symbols = tuple(symbols)
        checked: dict[Hashable, int] = {}
        for vertex, label in assignment.items():
            if not 0 <= label < l:
                raise LabelingError(
                    f"vertex {vertex!r} has label {label}, out of range for "
                    f"{l} labels"
                )
            checked[vertex] = int(label)
        self._assignment = checked

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        graph: Graph,
        probabilities: Sequence[float],
        *,
        seed: int | random.Random | None = None,
        symbols: Sequence[str] | None = None,
    ) -> "DiscreteLabeling":
        """Draw every vertex label i.i.d. from the null model itself.

        This is exactly the synthetic generation of Section 5.4 ("the labels
        are drawn uniformly randomly from the total number of
        possibilities" when ``probabilities`` is uniform).
        """
        probs = validate_probabilities(probabilities)
        rng = resolve_rng(seed)
        cumulative: list[float] = []
        acc = 0.0
        for p in probs:
            acc += p
            cumulative.append(acc)
        assignment: dict[Hashable, int] = {}
        for v in graph.vertices():
            r = rng.random()
            label = 0
            while label < len(cumulative) - 1 and r >= cumulative[label]:
                label += 1
            assignment[v] = label
        return cls(probs, assignment, symbols=symbols)

    @classmethod
    def from_symbols(
        cls,
        probabilities: Sequence[float],
        symbol_assignment: Mapping[Hashable, str],
        symbols: Sequence[str],
    ) -> "DiscreteLabeling":
        """Build from symbolic labels (e.g. the A-N codes of Table 1)."""
        index = {s: i for i, s in enumerate(symbols)}
        if len(index) != len(symbols):
            raise LabelingError("symbols must be distinct")
        assignment: dict[Hashable, int] = {}
        for vertex, symbol in symbol_assignment.items():
            if symbol not in index:
                raise LabelingError(
                    f"vertex {vertex!r} has unknown symbol {symbol!r}"
                )
            assignment[vertex] = index[symbol]
        return cls(probabilities, assignment, symbols=symbols)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def probabilities(self) -> tuple[float, ...]:
        """The null model ``P``."""
        return self._probs

    @property
    def num_labels(self) -> int:
        """Number of labels ``l``."""
        return len(self._probs)

    @property
    def symbols(self) -> tuple[str, ...]:
        """Human-readable label symbols."""
        return self._symbols

    @property
    def num_vertices(self) -> int:
        """Number of labeled vertices."""
        return len(self._assignment)

    def label_of(self, vertex: Hashable) -> int:
        """The label index of ``vertex``."""
        try:
            return self._assignment[vertex]
        except KeyError:
            raise LabelingError(f"vertex {vertex!r} is not labeled") from None

    def symbol_of(self, vertex: Hashable) -> str:
        """The label symbol of ``vertex``."""
        return self._symbols[self.label_of(vertex)]

    def vertices(self) -> Iterable[Hashable]:
        """The labeled vertices."""
        return self._assignment.keys()

    def as_dict(self) -> dict[Hashable, int]:
        """A copy of the vertex -> label-index mapping."""
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def count_vector(self, vertices: Iterable[Hashable]) -> CountVector:
        """The :class:`CountVector` of a vertex set under this labeling."""
        counts = [0] * len(self._probs)
        for v in vertices:
            counts[self.label_of(v)] += 1
        return CountVector(self._probs, counts)

    def chi_square(self, vertices: Iterable[Hashable]) -> float:
        """The chi-square statistic (Eq. 2) of a vertex set."""
        return self.count_vector(vertices).chi_square()

    def global_counts(self) -> tuple[int, ...]:
        """Counts of every label over all labeled vertices."""
        counts = [0] * self.num_labels
        for label in self._assignment.values():
            counts[label] += 1
        return tuple(counts)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_covers(self, graph: Graph) -> None:
        """Check that every graph vertex is labeled (raise otherwise)."""
        missing = [v for v in graph.vertices() if v not in self._assignment]
        if missing:
            raise LabelingError(
                f"{len(missing)} graph vertices are unlabeled, e.g. {missing[0]!r}"
            )

    def restricted_to(self, vertices: Iterable[Hashable]) -> "DiscreteLabeling":
        """The labeling restricted to a vertex subset (same null model)."""
        subset = {v: self.label_of(v) for v in vertices}
        return DiscreteLabeling(self._probs, subset, symbols=self._symbols)

    def expected_fraction(self, label: int) -> float:
        """Null-model probability of a single label index."""
        if not 0 <= label < self.num_labels:
            raise LabelingError(f"label {label} out of range")
        return self._probs[label]

    def surprise_of(self, vertices: Iterable[Hashable]) -> float:
        """log10 of 1/p-value of the subset — a readable significance scale."""
        from repro.stats.significance import discrete_p_value

        p = discrete_p_value(self.chi_square(vertices), self.num_labels)
        if p <= 0.0:
            return math.inf
        return -math.log10(p)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DiscreteLabeling(l={self.num_labels}, "
            f"vertices={self.num_vertices})"
        )
