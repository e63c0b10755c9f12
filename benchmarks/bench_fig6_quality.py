"""Figure 6: accuracy/time trade-off of super-graph reduction (ER, sparse).

The paper takes a sparse ER graph whose super-graph has ~22 vertices,
reduces it progressively down to 2, and plots — relative to the
unreduced optimum — the chi-square ratio (barely dropping: >= 99%
discrete, >= 96% continuous on their workloads) and the time ratio
(collapsing, since the naive stage is exponential in the super-graph
size).  Figure 6a is the discrete case; Figure 6b continuous.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import timed
from repro.graph.generators import gnm_random_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.construct_continuous import build_continuous_supergraph
from repro.core.construct_discrete import build_discrete_supergraph
from repro.core.solver import mine

from conftest import emit

N, M = 100, 700
REDUCTION_TARGETS = (20, 16, 12, 8, 5, 3, 2)


def quality_series(kind: str, seed: int):
    graph = gnm_random_graph(N, M, seed=seed)
    if kind == "discrete":
        labeling = DiscreteLabeling.random(
            graph, uniform_probabilities(5), seed=seed + 1
        )
        build = build_discrete_supergraph
    else:
        labeling = ContinuousLabeling.random(graph, 1, seed=seed + 1)
        build = build_continuous_supergraph

    base_supergraph = build(graph, labeling)
    n_rg = base_supergraph.num_super_vertices

    def run(n_theta: int):
        return mine(graph, labeling, n_theta=n_theta)

    optimal, optimal_seconds = timed(run, max(REDUCTION_TARGETS))
    optimal_chi = optimal.best.chi_square
    rows = []
    for target in REDUCTION_TARGETS:
        result, seconds = timed(run, target)
        rows.append(
            [
                kind,
                n_rg,
                min(target, n_rg),
                round(result.best.chi_square / optimal_chi, 4),
                round(seconds / optimal_seconds, 4),
            ]
        )
    return rows


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_fig6_quality(benchmark, kind):
    rows = benchmark.pedantic(
        quality_series, args=(kind, 3), rounds=1, iterations=1
    )
    emit(
        f"fig6_quality_{kind}",
        f"Figure 6 (analogue): reduction trade-off ({kind}, ER n={N} m={M})",
        ["case", "n_rg", "reduced to", "X^2 ratio", "time ratio"],
        rows,
    )
    chi_ratios = [row[3] for row in rows]
    time_ratios = [row[4] for row in rows]
    from repro.experiments import ascii_chart

    print("\n" + ascii_chart(
        {
            "X^2 ratio": [(row[1] - row[2], row[3]) for row in rows],
            "time ratio": [(row[1] - row[2], row[4]) for row in rows],
        },
        title=f"Figure 6 (analogue, {kind}): ratios vs vertices removed",
    ) + "\n")
    # Chi-square barely drops (the paper's 96-99% claim).
    assert min(chi_ratios) >= 0.9
    # Time collapses with the reduction target.
    assert time_ratios[-1] < 0.7 * time_ratios[0]
