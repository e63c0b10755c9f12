"""Differential properties of the Tarone FWER correction.

The correction layer's contract is *exactly* post-hoc filtering: mining
with ``correction="fwer"`` must return the same regions, in the same
order, as mining uncorrected and then keeping only the regions whose raw
p-value clears the Tarone threshold ``delta*``.  The correction reaches
the search only as a statistic floor that seeds the ``prune="bounds"``
incumbent, which is only admissible if it never changes which region a
round reports — these tests check that over 120+ seeded random
instances, across both prune modes and both search backends.  Under
``prune="none"`` the floor is not used, so a corrected run does exactly
the uncorrected run's search work.

Each instance compares, field by field: the surviving vertex sets and
raw p-values (identical to the filtered uncorrected list), the attached
``corrected_p_value`` (``min(1, m * p)`` with ``m`` the testable-family
size), and ``regions_filtered`` accounting.  The Tarone budget invariant
``m(delta*) * delta* <= alpha`` is asserted on every instance — it holds
by construction, so a violation means the regime scan is wrong, not that
the instance is unlucky.
"""

from __future__ import annotations

import random

import pytest

from repro.core.solver import mine
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.telemetry import names as metric
from repro.telemetry import telemetry_session

pytestmark = [pytest.mark.properties, pytest.mark.correction]

PROBS = (0.5, 0.25, 0.25)


def _instance(seed, *, n=12, extra_edges=6):
    """Random connected graph (spanning tree + chords) with skewed labels."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    graph = Graph.from_edges(edges, vertices=range(n))
    # Bias assignments toward the rare labels so some regions are
    # genuinely significant and the filter has survivors to keep.
    assignment = {
        v: rng.choices((0, 1, 2), weights=(2, 1, 2))[0] for v in range(n)
    }
    labeling = DiscreteLabeling(PROBS, assignment)
    return graph, labeling


def _post_hoc_filter(base, corrected):
    """The oracle: filter the uncorrected result at delta*."""
    report = corrected.correction
    assert report is not None
    if report.delta_star <= 0.0:
        return []
    return [s for s in base.subgraphs if s.p_value <= report.delta_star]


def _assert_equivalent(base, corrected, alpha):
    report = corrected.correction
    kept = _post_hoc_filter(base, corrected)
    assert [s.vertices for s in corrected.subgraphs] == [
        s.vertices for s in kept
    ]
    assert [s.p_value for s in corrected.subgraphs] == [
        s.p_value for s in kept
    ]
    for sub in corrected.subgraphs:
        assert sub.corrected_p_value == pytest.approx(
            min(1.0, report.num_testable * sub.p_value)
        )
    assert report.regions_filtered == len(base.subgraphs) - len(kept)
    # Tarone budget: holds by construction for every instance.
    assert report.num_testable * report.delta_star <= alpha


def _supergraph_cases():
    """(seed, backend, prune) cases; the bounds cases keep their
    pre-existing ``seed-backend`` ids."""
    for seed in range(40):
        for backend in ("python", "numpy"):
            for prune in ("bounds", "none"):
                suffix = "" if prune == "bounds" else f"-{prune}"
                yield pytest.param(
                    seed, backend, prune, id=f"{seed}-{backend}{suffix}"
                )


class TestPostHocEquivalence:
    """Corrected mining == uncorrected mining + filter, 120 instances."""

    @pytest.mark.parametrize("seed, backend, prune", _supergraph_cases())
    def test_supergraph_method(self, seed, backend, prune):
        graph, labeling = _instance(seed)
        kwargs = dict(top_t=3, prune=prune, backend=backend)
        base = mine(graph, labeling, **kwargs)
        corrected = mine(
            graph, labeling, correction="fwer", alpha=0.05, **kwargs
        )
        _assert_equivalent(base, corrected, 0.05)

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    @pytest.mark.parametrize("seed", range(10))
    def test_naive_method(self, seed, backend):
        graph, labeling = _instance(seed, n=9, extra_edges=4)
        kwargs = dict(top_t=2, method="naive", prune="bounds", backend=backend)
        base = mine(graph, labeling, **kwargs)
        corrected = mine(
            graph, labeling, correction="fwer", alpha=0.05, **kwargs
        )
        _assert_equivalent(base, corrected, 0.05)

    @pytest.mark.parametrize("alpha", (0.01, 0.05, 0.3))
    @pytest.mark.parametrize("seed", range(10))
    def test_alpha_sweep(self, seed, alpha):
        graph, labeling = _instance(seed + 500, n=14, extra_edges=8)
        base = mine(graph, labeling, top_t=3, prune="bounds")
        corrected = mine(
            graph, labeling, top_t=3, prune="bounds",
            correction="fwer", alpha=alpha,
        )
        _assert_equivalent(base, corrected, alpha)

    @pytest.mark.parametrize("seed", range(10))
    def test_with_polish(self, seed):
        """Polish runs before the final value test, same as uncorrected."""
        graph, labeling = _instance(seed + 900)
        base = mine(graph, labeling, top_t=2, polish=True, prune="bounds")
        corrected = mine(
            graph, labeling, top_t=2, polish=True, prune="bounds",
            correction="fwer", alpha=0.05,
        )
        _assert_equivalent(base, corrected, 0.05)


class TestTestabilityPruningFires:
    """Guard: the floor cuts actually remove states on dense regimes."""

    def test_testability_cuts_counted(self):
        graph, labeling = _instance(42, n=14, extra_edges=10)
        with telemetry_session() as (_, metrics):
            mine(
                graph, labeling, top_t=2, prune="bounds",
                correction="fwer", alpha=0.05,
            )
            snap = metrics.snapshot()
        assert snap.get(metric.SEARCH_TESTABILITY_CUTS, 0) > 0
        assert snap[metric.CORRECTION_DELTA_STAR] > 0.0
        assert snap[metric.CORRECTION_TESTABLE_HYPOTHESES] > 0

    def test_cuts_counted_on_numpy_backend(self):
        graph, labeling = _instance(42, n=14, extra_edges=10)
        with telemetry_session() as (_, metrics):
            mine(
                graph, labeling, top_t=2, prune="bounds", backend="numpy",
                correction="fwer", alpha=0.05,
            )
            snap = metrics.snapshot()
        assert snap.get(metric.SEARCH_TESTABILITY_CUTS, 0) > 0


class TestExhaustiveModeIsPostHoc:
    """Under ``prune="none"`` correction changes no search work at all."""

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_same_states_and_search_calls(self, backend):
        graph, labeling = _instance(0)
        kwargs = dict(top_t=3, prune="none", backend=backend)
        runs = []
        for extra in ({}, dict(correction="fwer", alpha=0.05)):
            with telemetry_session() as (_, metrics):
                result = mine(graph, labeling, **kwargs, **extra)
                snap = metrics.snapshot()
            runs.append((result, snap[metric.SEARCH_STATES_PER_CALL]["count"]))
        (base, base_calls), (corrected, corrected_calls) = runs
        # The instance has filtered rounds, where a search-side cut would
        # have to be undone by a second search.
        assert corrected.correction.regions_filtered > 0
        assert (
            corrected.report.explored_subgraphs
            == base.report.explored_subgraphs
        )
        assert corrected_calls == base_calls == base.report.rounds
        assert metric.SEARCH_TESTABILITY_CUTS not in snap


class TestCorrectionValidation:
    def test_unknown_method_rejected(self):
        graph, labeling = _instance(0)
        with pytest.raises(GraphError):
            mine(graph, labeling, correction="fdr")

    @pytest.mark.parametrize("alpha", (0.0, 1.0, -0.5))
    def test_alpha_out_of_range_rejected(self, alpha):
        graph, labeling = _instance(0)
        with pytest.raises(GraphError):
            mine(graph, labeling, correction="fwer", alpha=alpha)

    def test_continuous_labeling_rejected(self):
        rng = random.Random(3)
        graph = Graph.path(5)
        labeling = ContinuousLabeling(
            {v: (rng.gauss(0, 1),) for v in range(5)}
        )
        with pytest.raises(GraphError):
            mine(graph, labeling, correction="fwer")

    def test_none_correction_attaches_no_report(self):
        graph, labeling = _instance(0)
        result = mine(graph, labeling)
        assert result.correction is None
        assert all(s.corrected_p_value is None for s in result.subgraphs)
