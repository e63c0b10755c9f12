"""Unit tests for the discrete chi-square statistic and CountVector."""

from __future__ import annotations

import pytest

from repro.exceptions import LabelingError, ProbabilityError
from repro.stats.chi_square import (
    CountVector,
    chi_square_statistic,
    validate_probabilities,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


class TestValidateProbabilities:
    def test_valid(self):
        assert validate_probabilities([0.25, 0.75]) == (0.25, 0.75)

    def test_single_label_rejected(self):
        with pytest.raises(ProbabilityError):
            validate_probabilities([1.0])

    def test_zero_probability_rejected(self):
        with pytest.raises(ProbabilityError):
            validate_probabilities([0.0, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(ProbabilityError):
            validate_probabilities([-0.1, 1.1])

    def test_sum_not_one_rejected(self):
        with pytest.raises(ProbabilityError, match="sum"):
            validate_probabilities([0.5, 0.6])


class TestChiSquareStatistic:
    def test_expected_counts_give_zero(self):
        # 10 vertices distributed exactly as the null: X^2 = 0.
        assert chi_square_statistic([5, 5], (0.5, 0.5)) == pytest.approx(0.0)

    def test_textbook_value(self):
        # counts (8, 2), p = (0.5, 0.5): X^2 = (8-5)^2/5 + (2-5)^2/5 = 3.6.
        assert chi_square_statistic([8, 2], (0.5, 0.5)) == pytest.approx(3.6)

    def test_equation2_identity(self):
        # sum Y_i^2 / (n p_i) - n equals the (O-E)^2/E form.
        counts, probs = [7, 1, 4], UNIFORM3
        n = sum(counts)
        direct = sum(
            (c - n * p) ** 2 / (n * p) for c, p in zip(counts, probs)
        )
        assert chi_square_statistic(counts, probs) == pytest.approx(direct)

    def test_empty_counts_zero(self):
        assert chi_square_statistic([0, 0], (0.5, 0.5)) == 0.0

    def test_rare_label_dominates(self):
        rare = chi_square_statistic([0, 5], (0.9, 0.1))
        common = chi_square_statistic([5, 0], (0.9, 0.1))
        assert rare > common

    def test_negative_count_rejected(self):
        with pytest.raises(LabelingError):
            chi_square_statistic([-1, 2], (0.5, 0.5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LabelingError):
            chi_square_statistic([1, 2, 3], (0.5, 0.5))

    def test_scipy_oracle(self):
        from scipy.stats import chisquare

        counts = [12, 3, 9]
        n = sum(counts)
        expected = [n / 3] * 3
        ours = chi_square_statistic(counts, UNIFORM3)
        theirs = chisquare(counts, expected).statistic
        assert ours == pytest.approx(theirs)


class TestCountVector:
    def test_starts_empty(self):
        cv = CountVector((0.5, 0.5))
        assert cv.size == 0
        assert cv.chi_square() == 0.0
        assert cv.counts == (0, 0)

    def test_initial_counts(self):
        cv = CountVector(UNIFORM3, [2, 0, 1])
        assert cv.size == 3
        assert cv.chi_square() == pytest.approx(
            chi_square_statistic([2, 0, 1], UNIFORM3)
        )

    def test_add_matches_direct(self):
        cv = CountVector(UNIFORM3)
        for label in [0, 0, 1, 2, 0]:
            cv.add(label)
        assert cv.counts == (3, 1, 1)
        assert cv.chi_square() == pytest.approx(
            chi_square_statistic([3, 1, 1], UNIFORM3)
        )

    def test_add_with_multiplicity(self):
        cv = CountVector((0.5, 0.5))
        cv.add(0, 4)
        assert cv.counts == (4, 0)
        assert cv.size == 4

    def test_remove_inverts_add(self):
        cv = CountVector(UNIFORM3, [3, 2, 1])
        before = cv.chi_square()
        cv.add(1)
        cv.remove(1)
        assert cv.counts == (3, 2, 1)
        assert cv.chi_square() == pytest.approx(before)

    def test_remove_too_many_rejected(self):
        cv = CountVector((0.5, 0.5), [1, 0])
        with pytest.raises(LabelingError):
            cv.remove(0, 2)

    def test_bad_label_index(self):
        cv = CountVector((0.5, 0.5))
        with pytest.raises(LabelingError):
            cv.add(5)

    def test_negative_multiplicity_rejected(self):
        cv = CountVector((0.5, 0.5))
        with pytest.raises(LabelingError):
            cv.add(0, -1)

    def test_merged(self):
        a = CountVector(UNIFORM3, [2, 0, 0])
        b = CountVector(UNIFORM3, [0, 3, 1])
        merged = a.merged(b)
        assert merged.counts == (2, 3, 1)
        assert a.counts == (2, 0, 0)  # operands untouched

    def test_incompatible_models_rejected(self):
        a = CountVector((0.5, 0.5))
        b = CountVector((0.4, 0.6))
        with pytest.raises(LabelingError):
            a.merged(b)

    def test_singleton(self):
        cv = CountVector.singleton((0.2, 0.8), 0)
        assert cv.counts == (1, 0)
        assert cv.chi_square() == pytest.approx(
            chi_square_statistic([1, 0], (0.2, 0.8))
        )

    def test_copy_independent(self):
        cv = CountVector((0.5, 0.5), [1, 1])
        clone = cv.copy()
        clone.add(0)
        assert cv.counts == (1, 1)

    def test_statistic_is_a_function_of_the_counts(self):
        # An incrementally maintained sum over these updates would differ
        # in the last bit from one recomputed from the counts.
        probs = (0.1, 0.2, 0.3, 0.4)
        cv = CountVector(probs)
        for label, multiplicity in ((0, 2), (2, 9), (3, 2), (2, 9), (2, 2)):
            cv.add(label, multiplicity)
        cv.add(1, 3)
        cv.remove(1, 3)
        value = chi_square_statistic(cv.counts, probs)
        assert CountVector(probs, cv.counts).chi_square() == value
        assert cv.chi_square() == value
        assert cv.copy().chi_square() == value

    def test_equality(self):
        a = CountVector((0.5, 0.5), [1, 2])
        b = CountVector((0.5, 0.5), [1, 2])
        assert a == b
        b.add(0)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CountVector((0.5, 0.5)))

    def test_count_vector_length_mismatch(self):
        with pytest.raises(LabelingError):
            CountVector((0.5, 0.5), [1, 2, 3])
