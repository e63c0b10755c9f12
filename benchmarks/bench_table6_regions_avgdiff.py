"""Table 6: significant regions under the Average Difference approach.

Shape to match from the paper: DC alone on top, a negative multi-county
suburb region, and — the paper's highlighted third row — a coherent region
of individually-unremarkable counties (the New-York-area analogue) inside
the top regions, which node-level ranking could never surface.
"""

from __future__ import annotations

import pytest

from repro.datasets.wnv import DC_NAME, DC_RING_NAMES, wnv_dataset
from repro.outliers.regions import mine_outlier_regions

from conftest import emit


@pytest.fixture(scope="module")
def wnv():
    return wnv_dataset(seed=11)


def mine_regions(wnv):
    return mine_outlier_regions(
        wnv.units, method="avg_diff", top_t=5, n_theta=20
    )


def test_table6_regions(benchmark, wnv):
    regions, _ = benchmark(mine_regions, wnv)
    rows = [
        [
            ", ".join(sorted(r.units)[:7]) + ("..." if r.size > 7 else ""),
            r.size,
            round(r.z_score, 2),
            round(r.chi_square, 2),
        ]
        for r in regions
    ]
    emit(
        "table6_regions_avgdiff",
        "Table 6 (analogue): significant subgraphs, Avg Diff",
        ["Counties", "Size", "Z-score", "X^2"],
        rows,
    )
    assert regions[0].units == frozenset({DC_NAME})
    ring = set(DC_RING_NAMES)
    assert any(ring <= set(r.units) for r in regions[1:])


def test_region_mining_beats_node_ranking(benchmark, wnv):
    """The paper's point: multi-county regions are invisible to node
    ranking — the combined |z| of the best multi-county region exceeds
    every individual member's |z|."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    regions, _ = mine_outlier_regions(
        wnv.units, method="weighted_z", top_t=5, n_theta=20
    )
    multi = [r for r in regions if r.size >= 3]
    assert multi, "expected at least one multi-county region in the top 5"
    from repro.outliers.scoring import weighted_z_scores

    scores = weighted_z_scores(wnv.units)
    region = multi[0]
    assert abs(region.z_score) > max(abs(scores[u]) for u in region.units)
