"""Property-based tests for the discrete chi-square statistic (Eq. 2)."""

from __future__ import annotations

import pytest

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.stats.chi_square import CountVector, chi_square_statistic

pytestmark = pytest.mark.properties



@st.composite
def probability_vectors(draw, min_labels=2, max_labels=6):
    l = draw(st.integers(min_labels, max_labels))
    raw = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False), min_size=l, max_size=l
        )
    )
    total = math.fsum(raw)
    return tuple(x / total for x in raw)


@st.composite
def counts_for(draw, probs):
    return draw(
        st.lists(
            st.integers(0, 50), min_size=len(probs), max_size=len(probs)
        )
    )


@st.composite
def instances(draw):
    probs = draw(probability_vectors())
    counts = draw(counts_for(probs))
    return probs, counts


class TestChiSquareProperties:
    @given(instances())
    def test_non_negative(self, instance):
        probs, counts = instance
        assert chi_square_statistic(counts, probs) >= -1e-9

    @given(instances())
    def test_equation2_identity(self, instance):
        """sum Y^2/(n p) - n  ==  sum (Y - n p)^2 / (n p)."""
        probs, counts = instance
        n = sum(counts)
        if n == 0:
            return
        direct = math.fsum(
            (c - n * p) ** 2 / (n * p) for c, p in zip(counts, probs)
        )
        assert chi_square_statistic(counts, probs) == (
            __import__("pytest").approx(direct, rel=1e-9, abs=1e-9)
        )

    @given(instances())
    def test_zero_iff_exact_expectation(self, instance):
        probs, counts = instance
        n = sum(counts)
        value = chi_square_statistic(counts, probs)
        if all(abs(c - n * p) < 1e-12 for c, p in zip(counts, probs)):
            assert value < 1e-9

    @given(instances(), st.integers(0, 5))
    def test_scaling_counts_scales_statistic(self, instance, factor):
        """X^2 of k-fold scaled counts is k times the original (Eq. 2)."""
        import pytest

        probs, counts = instance
        if sum(counts) == 0 or factor == 0:
            return
        base = chi_square_statistic(counts, probs)
        scaled = chi_square_statistic([factor * c for c in counts], probs)
        assert scaled == pytest.approx(factor * base, rel=1e-8, abs=1e-8)


class TestCountVectorProperties:
    @given(instances())
    def test_incremental_equals_direct(self, instance):
        import pytest

        probs, counts = instance
        cv = CountVector(probs)
        for label, count in enumerate(counts):
            for _ in range(count):
                cv.add(label)
        assert cv.chi_square() == pytest.approx(
            chi_square_statistic(counts, probs), rel=1e-8, abs=1e-8
        )

    @given(instances(), st.data())
    def test_add_remove_roundtrip(self, instance, data):
        import pytest

        probs, counts = instance
        cv = CountVector(probs, counts)
        before = cv.chi_square()
        label = data.draw(st.integers(0, len(probs) - 1))
        cv.add(label)
        cv.remove(label)
        assert cv.counts == tuple(counts)
        assert cv.chi_square() == pytest.approx(before, rel=1e-8, abs=1e-8)

    @given(instances(), instances())
    def test_merge_commutative(self, a, b):
        probs_a, counts_a = a
        probs_b, counts_b = b
        # Force a shared null model for mergeability.
        probs = probs_a
        counts_b = counts_b[: len(probs)] + [0] * max(
            0, len(probs) - len(counts_b)
        )
        x = CountVector(probs, counts_a)
        y = CountVector(probs, counts_b)
        assert x.merged(y) == y.merged(x)

    @given(instances())
    def test_lemma8_subadditivity_discrete(self, instance):
        """Lemma 8: X^2(merged) <= X^2(a) + X^2(b) for discrete payloads."""
        probs, counts = instance
        if sum(counts) == 0:
            return
        # Split the counts arbitrarily into two halves.
        half_a = [c // 2 for c in counts]
        half_b = [c - h for c, h in zip(counts, half_a)]
        if sum(half_a) == 0 or sum(half_b) == 0:
            return
        a = CountVector(probs, half_a)
        b = CountVector(probs, half_b)
        merged = a.merged(b)
        assert merged.chi_square() <= a.chi_square() + b.chi_square() + 1e-7
