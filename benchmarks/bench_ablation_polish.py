"""Ablation: the LMCS hill-climbing post-pass (``polish=True``).

The solver can refine each mined region with Definition 3's local search.
This benchmark measures what the pass buys at aggressive reduction levels
(where the pipeline's answer can drift from the optimum) and what it costs.
"""

from __future__ import annotations

from repro.experiments.harness import timed
from repro.graph.generators import gnm_random_graph
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities
from repro.core.solver import mine

from conftest import emit

N, M, L = 120, 260, 4
SEEDS = range(6)
N_THETA = 4       # aggressive reduction: room for the polish to matter
N_THETA_REF = 16  # reference run (kept exhaustive-search friendly)


def series():
    rows = []
    for seed in SEEDS:
        graph = gnm_random_graph(N, M, seed=seed)
        labeling = DiscreteLabeling.random(
            graph, uniform_probabilities(L), seed=seed + 100
        )
        plain, plain_seconds = timed(
            mine, graph, labeling, n_theta=N_THETA
        )
        polished, polished_seconds = timed(
            mine, graph, labeling, n_theta=N_THETA, polish=True
        )
        optimal = mine(graph, labeling, n_theta=N_THETA_REF).best.chi_square
        rows.append(
            [
                seed,
                round(plain.best.chi_square, 3),
                round(polished.best.chi_square, 3),
                round(optimal, 3),
                round(plain.best.chi_square / optimal, 3),
                round(polished.best.chi_square / optimal, 3),
                round(polished_seconds / max(plain_seconds, 1e-9), 2),
            ]
        )
    return rows


def test_polish_ablation(benchmark):
    rows = benchmark.pedantic(series, rounds=1, iterations=1)
    emit(
        "ablation_polish",
        f"Ablation: LMCS polish at n_theta={N_THETA} (ER n={N}, m={M}, l={L})",
        [
            "seed",
            "plain X^2",
            "polished X^2",
            "optimal X^2",
            "plain ratio",
            "polished ratio",
            "time factor",
        ],
        rows,
    )
    for row in rows:
        # Polish never hurts the statistic.  (It can exceed the "optimal"
        # column on instances where even n_theta=30 forced some reduction —
        # the reference is a ceiling only when no contraction happened.)
        assert row[2] >= row[1] - 1e-9
    mean_plain = sum(row[4] for row in rows) / len(rows)
    mean_polished = sum(row[5] for row in rows) / len(rows)
    assert mean_polished >= mean_plain
