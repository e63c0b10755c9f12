"""Continuous vertex labelings: k-dimensional z-scores (Problem 2).

A :class:`ContinuousLabeling` assigns every vertex a ``k``-dimensional
z-score vector, assumed i.i.d. standard normal per dimension under the null
hypothesis.  It can be constructed directly from z-scores, drawn randomly
(the Section 5.4 synthetic setting), or derived from raw attributes via the
Eq. 3 / Eq. 4 scaling-and-standardisation pipeline.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping, Sequence

from repro.exceptions import LabelingError
from repro.graph.generators import resolve_rng
from repro.graph.graph import Graph
from repro.stats.zscore import (
    RegionScore,
    neighborhood_scaled_values,
    standardize,
)

__all__ = ["ContinuousLabeling"]


class ContinuousLabeling:
    """Assignment of a ``k``-dimensional z-score vector to every vertex."""

    __slots__ = ("_scores", "_dimensions", "__weakref__")

    def __init__(self, scores: Mapping[Hashable, Sequence[float]]) -> None:
        if not scores:
            raise LabelingError("a continuous labeling needs at least one vertex")
        normalised: dict[Hashable, tuple[float, ...]] = {}
        dimensions: int | None = None
        for vertex, vector in scores.items():
            tup = tuple(float(z) for z in vector)
            if dimensions is None:
                dimensions = len(tup)
                if dimensions == 0:
                    raise LabelingError("z-score vectors need at least 1 dimension")
            elif len(tup) != dimensions:
                raise LabelingError(
                    f"vertex {vertex!r} has {len(tup)} dimensions, expected "
                    f"{dimensions}"
                )
            normalised[vertex] = tup
        assert dimensions is not None
        self._scores = normalised
        self._dimensions = dimensions

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        graph: Graph,
        dimensions: int = 1,
        *,
        seed: int | random.Random | None = None,
    ) -> "ContinuousLabeling":
        """Draw every coordinate i.i.d. from N(0, 1) — the null hypothesis.

        This is the synthetic setting of Section 5.4 ("the multi-dimensional
        z-scores for continuous labels are drawn from the N(0,1)
        distribution").
        """
        if dimensions < 1:
            raise LabelingError(f"need at least 1 dimension, got {dimensions}")
        rng = resolve_rng(seed)
        scores = {
            v: tuple(rng.gauss(0.0, 1.0) for _ in range(dimensions))
            for v in graph.vertices()
        }
        return cls(scores)

    @classmethod
    def from_attributes(
        cls,
        attributes: Mapping[Hashable, Sequence[float]],
        neighborhoods: Mapping[Hashable, Mapping[Hashable, float]],
    ) -> "ContinuousLabeling":
        """Derive z-scores from raw attributes via Eq. 3 then Eq. 4.

        Each attribute dimension is independently neighbourhood-scaled
        (subtracting the weighted neighbour average) and standardised with
        the sample mean/std, exactly as Section 2.2 prescribes.
        """
        vertices = list(attributes)
        if not vertices:
            raise LabelingError("need at least one vertex")
        k = len(attributes[vertices[0]])
        if k == 0:
            raise LabelingError("attributes need at least 1 dimension")
        per_dimension: list[dict[Hashable, float]] = []
        for j in range(k):
            raw = {}
            for v in vertices:
                vector = attributes[v]
                if len(vector) != k:
                    raise LabelingError(
                        f"vertex {v!r} has {len(vector)} attributes, expected {k}"
                    )
                raw[v] = float(vector[j])
            scaled = neighborhood_scaled_values(raw, neighborhoods)
            per_dimension.append(standardize(scaled))
        scores = {
            v: tuple(per_dimension[j][v] for j in range(k)) for v in vertices
        }
        return cls(scores)

    @classmethod
    def from_scalar(cls, values: Mapping[Hashable, float]) -> "ContinuousLabeling":
        """Wrap pre-computed one-dimensional z-scores."""
        return cls({v: (float(z),) for v, z in values.items()})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Dimensionality ``k``."""
        return self._dimensions

    @property
    def num_vertices(self) -> int:
        """Number of labeled vertices."""
        return len(self._scores)

    def z_score_of(self, vertex: Hashable) -> tuple[float, ...]:
        """The z-score vector of ``vertex``."""
        try:
            return self._scores[vertex]
        except KeyError:
            raise LabelingError(f"vertex {vertex!r} is not labeled") from None

    def vertices(self) -> Iterable[Hashable]:
        """The labeled vertices."""
        return self._scores.keys()

    def as_dict(self) -> dict[Hashable, tuple[float, ...]]:
        """A copy of the vertex -> z-vector mapping."""
        return dict(self._scores)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def region_score(self, vertices: Iterable[Hashable]) -> RegionScore:
        """The :class:`RegionScore` of a vertex set."""
        return RegionScore.from_vertices(self.z_score_of(v) for v in vertices)

    def chi_square(self, vertices: Iterable[Hashable]) -> float:
        """The chi-square statistic (Eq. 8) of a vertex set."""
        return self.region_score(vertices).chi_square()

    def vertex_chi_square(self, vertex: Hashable) -> float:
        """The chi-square of a single vertex (sum of squared coordinates)."""
        return sum(z * z for z in self.z_score_of(vertex))

    # ------------------------------------------------------------------
    # Validation / restriction
    # ------------------------------------------------------------------
    def validate_covers(self, graph: Graph) -> None:
        """Check that every graph vertex is labeled (raise otherwise)."""
        missing = [v for v in graph.vertices() if v not in self._scores]
        if missing:
            raise LabelingError(
                f"{len(missing)} graph vertices are unlabeled, e.g. {missing[0]!r}"
            )

    def restricted_to(self, vertices: Iterable[Hashable]) -> "ContinuousLabeling":
        """The labeling restricted to a vertex subset."""
        return ContinuousLabeling({v: self.z_score_of(v) for v in vertices})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ContinuousLabeling(k={self._dimensions}, "
            f"vertices={self.num_vertices})"
        )
