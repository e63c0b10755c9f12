"""Result types returned by the mining pipeline.

A :class:`SignificantSubgraph` describes one mined region in terms of the
*original* graph — its vertices, statistic, p-value, and its super-vertex
decomposition (the "Sizes"/"Labels" structure Table 2 of the paper reports,
which exposes bridge patterns).  A :class:`MiningResult` bundles the top-t
regions with a :class:`PipelineReport` of per-stage sizes and timings that
the scalability experiments (Figure 2) chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

__all__ = [
    "MiningResult",
    "PipelineReport",
    "SignificantSubgraph",
    "SubgraphComponent",
]


@dataclass(frozen=True, slots=True)
class SubgraphComponent:
    """One super-vertex inside a mined region.

    ``size`` counts original vertices; ``label`` is the shared label symbol
    for discrete minings (None for continuous); ``chi_square`` is the
    component's own statistic.  Components are listed in BFS order from an
    extremal super-vertex, so chains render as ``region-bridge-region``.
    """

    size: int
    label: str | None
    chi_square: float


@dataclass(frozen=True, slots=True)
class SignificantSubgraph:
    """A mined connected subgraph of the original graph."""

    vertices: frozenset[Hashable]
    chi_square: float
    p_value: float
    components: tuple[SubgraphComponent, ...] = ()
    z_score: tuple[float, ...] | None = None
    corrected_p_value: float | None = None
    """Tarone-corrected (FWER-adjusted) p-value, ``min(1, m * p_value)``
    over the ``m`` testable hypotheses — ``None`` unless the mining ran
    with ``correction="fwer"`` (see :mod:`repro.stats.correction`)."""

    @property
    def size(self) -> int:
        """Number of original vertices in the region."""
        return len(self.vertices)

    @property
    def component_sizes(self) -> tuple[int, ...]:
        """Sizes of the super-vertex components (Table 2's "Sizes" column)."""
        return tuple(c.size for c in self.components)

    @property
    def component_labels(self) -> tuple[str | None, ...]:
        """Labels of the super-vertex components (Table 2's "Labels" column)."""
        return tuple(c.label for c in self.components)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SignificantSubgraph(size={self.size}, "
            f"chi_square={self.chi_square:.4f}, p_value={self.p_value:.3g})"
        )


@dataclass(slots=True)
class PipelineReport:
    """Per-stage accounting of one end-to-end mining run.

    Construction/reduction/search timings are what Figure 2 of the paper
    stacks for the four large graphs; ``explored_subgraphs`` counts the
    connected sets the exhaustive stage visited (summed over top-t
    rounds).
    """

    num_vertices: int = 0
    num_edges: int = 0
    num_labels: int | None = None
    dimensions: int | None = None
    dense_enough: bool = False
    supergraph_vertices: int = 0
    supergraph_edges: int = 0
    reduced_vertices: int = 0
    contractions: int = 0
    explored_subgraphs: int = 0
    rounds: int = 0
    construction_seconds: float = 0.0
    reduction_seconds: float = 0.0
    search_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Wall time over the three pipeline stages."""
        return (
            self.construction_seconds
            + self.reduction_seconds
            + self.search_seconds
        )


@dataclass(frozen=True, slots=True)
class MiningResult:
    """The top-t significant subgraphs plus the pipeline report."""

    subgraphs: tuple[SignificantSubgraph, ...]
    report: PipelineReport = field(compare=False, default_factory=PipelineReport)
    correction: "object | None" = field(compare=False, default=None)
    """A :class:`repro.stats.correction.CorrectionReport` when the mining
    ran with ``correction="fwer"``; ``None`` otherwise."""

    @property
    def best(self) -> SignificantSubgraph:
        """The MSCS (first and highest-statistic region)."""
        if not self.subgraphs:
            raise ValueError("the mining produced no subgraphs")
        return self.subgraphs[0]

    def __len__(self) -> int:
        return len(self.subgraphs)

    def __iter__(self):
        return iter(self.subgraphs)

    def __getitem__(self, index: int) -> SignificantSubgraph:
        return self.subgraphs[index]
