"""Unit tests for the Tarone-bound correction subsystem."""

from __future__ import annotations

import pytest

from repro.enumerate.bitset import BitsetGraph
from repro.graph.graph import Graph
from repro.stats.correction import (
    CorrectionReport,
    TaroneResult,
    conservative_statistic_floor,
    corrected_p_value,
    exact_hypothesis_counts,
    hypothesis_count_envelope,
    tarone_threshold,
)
from repro.stats.correction import TestabilityEnvelope as Envelope
from repro.stats.distributions import chi2_sf

pytestmark = pytest.mark.correction


class TestTestabilityEnvelope:
    def test_max_statistic_all_mass_on_rarest_label(self):
        env = Envelope((0.8, 0.2))
        # n vertices all on the p=0.2 label: X^2 = n^2/(n*0.2) - n = 4n.
        assert env.max_statistic(3) == pytest.approx(3 * (1 / 0.2 - 1))

    def test_min_p_value_matches_sf_of_max_statistic(self):
        env = Envelope((0.6, 0.3, 0.1))
        for n in (1, 2, 5, 10):
            assert env.min_p_value(n) == pytest.approx(
                chi2_sf(env.max_statistic(n), 2)
            )

    def test_psi_strictly_decreasing(self):
        env = Envelope((0.7, 0.3))
        values = [env.min_p_value(n) for n in range(0, 30)]
        assert values[0] == 1.0
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_mass_rejected(self):
        env = Envelope((0.5, 0.5))
        with pytest.raises(ValueError):
            env.max_statistic(-1)
        with pytest.raises(ValueError):
            env.min_p_value(-1)


def _census(graph: Graph) -> tuple[int, ...]:
    return exact_hypothesis_counts(BitsetGraph(graph).adjacency)


class TestHypothesisCounts:
    def test_exact_census_path(self):
        # Path on 4 vertices: connected sets are the 10 sub-paths.
        counts = _census(Graph.path(4))
        assert counts == (0, 4, 3, 2, 1)

    def test_exact_census_triangle(self):
        counts = _census(Graph.from_edges([(0, 1), (1, 2), (0, 2)]))
        assert counts == (0, 3, 3, 1)

    def test_envelope_dominates_exact(self):
        for graph in (
            Graph.path(6),
            Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        ):
            exact = _census(graph)
            max_degree = max(graph.degree(v) for v in graph.vertices())
            envelope = hypothesis_count_envelope(
                graph.num_vertices, max_degree
            )
            assert len(envelope) == len(exact)
            assert all(e >= x for e, x in zip(envelope, exact))

    def test_envelope_isolated_vertices(self):
        assert hypothesis_count_envelope(5, 0) == (0, 5, 0, 0, 0, 0)

    def test_envelope_empty_graph(self):
        assert hypothesis_count_envelope(0, 0) == (0,)

    def test_envelope_huge_graph_no_overflow(self):
        counts = hypothesis_count_envelope(200, 150)
        assert all(c >= 0 for c in counts)
        assert counts[200] == 1  # binomial bound wins at full mass

    def test_envelope_invalid(self):
        with pytest.raises(ValueError):
            hypothesis_count_envelope(-1, 0)
        with pytest.raises(ValueError):
            hypothesis_count_envelope(3, -1)


class TestTaroneThreshold:
    def test_budget_invariant(self):
        env = Envelope((0.7, 0.3))
        for alpha in (0.01, 0.05, 0.2):
            for n, d in ((8, 3), (20, 5), (40, 8)):
                result = tarone_threshold(
                    env, hypothesis_count_envelope(n, d), alpha
                )
                assert result.num_testable * result.delta_star <= alpha

    def test_delta_star_inside_its_regime(self):
        # m(delta*) must really equal num_testable: delta* stays strictly
        # below psi(K-1), the point where mass K-1 would become testable.
        env = Envelope((0.7, 0.3))
        result = tarone_threshold(env, hypothesis_count_envelope(30, 4), 0.05)
        k = result.testable_min_size
        assert env.min_p_value(k) <= result.delta_star < env.min_p_value(k - 1)

    def test_recovers_bonferroni_when_everything_testable(self):
        # A tiny family with a rare label: even singletons are testable at
        # alpha/m, so delta* is exactly the Bonferroni threshold.
        env = Envelope((0.01, 0.99))
        counts = (0, 2, 1)  # m_1 = 3
        result = tarone_threshold(env, counts, 0.05)
        assert result.testable_min_size == 1
        assert result.num_testable == 3
        assert result.delta_star == pytest.approx(0.05 / 3)

    def test_gains_power_over_bonferroni(self):
        # Many hypotheses, balanced labels: Tarone discards untestable
        # small masses and ends with a larger threshold than alpha/total.
        env = Envelope((0.5, 0.5))
        counts = hypothesis_count_envelope(40, 6)
        result = tarone_threshold(env, counts, 0.05)
        assert result.testable_min_size > 1
        assert result.delta_star > 0.05 / sum(counts)

    def test_infeasible_returns_zero(self):
        # Balanced two-label model on isolated vertices: psi(1) ~ 0.317
        # but only singletons exist, so no regime fits alpha = 0.05.
        env = Envelope((0.5, 0.5))
        result = tarone_threshold(env, (0, 10, 0, 0), 0.05)
        assert result.delta_star == 0.0
        assert result.num_testable == 0
        assert not result.passes(0.0)

    def test_empty_counts(self):
        env = Envelope((0.5, 0.5))
        result = tarone_threshold(env, (0,), 0.05)
        assert result.delta_star == 0.0

    def test_invalid_alpha(self):
        env = Envelope((0.5, 0.5))
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                tarone_threshold(env, (0, 1), alpha)

    def test_negative_counts_rejected(self):
        env = Envelope((0.5, 0.5))
        with pytest.raises(ValueError):
            tarone_threshold(env, (0, -1), 0.05)

    def test_big_int_counts_do_not_overflow(self):
        """Envelope counts on large graphs exceed float range (exact
        big ints); the regime scan must degrade conservatively, not
        raise OverflowError."""
        env = Envelope((0.1, 0.9))
        counts = hypothesis_count_envelope(1200, 20)
        assert any(c > 10**308 for c in counts)
        result = tarone_threshold(env, counts, 0.05)
        assert result.delta_star >= 0.0
        if result.delta_star > 0.0:
            assert float(result.num_testable) * result.delta_star <= 0.05


class TestCorrectedPValue:
    def test_bonferroni_scaling_and_clamp(self):
        assert corrected_p_value(0.001, 10) == pytest.approx(0.01)
        assert corrected_p_value(0.5, 10) == 1.0

    def test_result_helpers(self):
        result = TaroneResult(
            alpha=0.05, delta_star=0.01, num_testable=5, testable_min_size=3
        )
        assert result.passes(0.01)
        assert not result.passes(0.011)

    def test_invalid_num_testable(self):
        with pytest.raises(ValueError):
            corrected_p_value(0.1, -1)

    def test_big_int_family_clamps(self):
        assert corrected_p_value(0.5, 10**400) == 1.0
        assert corrected_p_value(0.0, 10**400) == 0.0


class TestConservativeStatisticFloor:
    @pytest.mark.parametrize("df", [1, 2, 5, 20])
    @pytest.mark.parametrize("delta", [0.3, 1e-3, 1e-9, 1e-15])
    def test_floor_is_on_failing_side(self, df, delta):
        tau = conservative_statistic_floor(delta, df)
        assert chi2_sf(tau, df) > delta

    def test_floor_is_tight(self):
        # Within bisection tolerance of the exact threshold: a nudge up
        # crosses to the passing side.
        tau = conservative_statistic_floor(1e-6, 3)
        assert chi2_sf(tau * (1 + 1e-9) + 1e-9, 3) <= 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            conservative_statistic_floor(0.0, 2)
        with pytest.raises(ValueError):
            conservative_statistic_floor(1.0, 2)
        with pytest.raises(ValueError):
            conservative_statistic_floor(0.05, 0)


class TestCorrectionReport:
    def test_fields(self):
        report = CorrectionReport(
            method="fwer", alpha=0.05, delta_star=1e-4, num_testable=12,
            testable_min_size=4, counts_mode="envelope", regions_filtered=2,
        )
        assert report.method == "fwer"
        assert report.regions_filtered == 2
