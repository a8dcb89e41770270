"""Tests for trapezoidal membership, classification, and vocabulary checks."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmine import (
    FuzzyInterval,
    Vocabulary,
    classify,
    membership,
    validate_vocabulary,
)
from fuzzmine.validation import ERROR, INFO, has_errors

from common import timing_vocab, volume_vocab
from strategies import quarters, ruspini_vocabs

MEDIUM = FuzzyInterval("Medium Volume", 3, 6, 9, 12)
LARGE = FuzzyInterval("Large Volume", 9, 12, 15, 15)
SMALL = FuzzyInterval("Small Volume", 0, 0, 3, 6)
GENERIC = FuzzyInterval("Example", 2, 4, 6, 8)


class TestMembership:
    def test_split_classification_point(self):
        # 10.5 sits on the overlap of the two upper volume sets.
        assert membership(MEDIUM, 10.5) == pytest.approx(0.5, abs=1e-12)
        assert membership(LARGE, 10.5) == pytest.approx(0.5, abs=1e-12)

    def test_outside_support_is_zero(self):
        assert membership(GENERIC, GENERIC.a - 1) == 0.0
        assert membership(GENERIC, GENERIC.d + 1) == 0.0

    def test_left_ramp_midpoint_is_half(self):
        x = GENERIC.a + (GENERIC.b - GENERIC.a) / 2
        assert membership(GENERIC, x) == 0.5

    def test_right_shoulder_plateau_reaches_edge(self):
        # c == d: the plateau governs the right edge of the support.
        assert membership(LARGE, 15) == 1.0

    def test_left_shoulder_plateau_reaches_edge(self):
        assert membership(SMALL, 0) == 1.0

    def test_plateau_is_exactly_one(self):
        for x in (4, 5, 5.5, 6):
            assert membership(GENERIC, x) == 1.0

    def test_ramp_values(self):
        assert membership(GENERIC, 2) == 0.0
        assert membership(GENERIC, 3) == 0.5
        assert membership(GENERIC, 7) == 0.5
        assert membership(GENERIC, 8) == 0.0

    def test_point_interval(self):
        point = FuzzyInterval("spike", 5, 5, 5, 5)
        assert membership(point, 5) == 1.0
        assert membership(point, 5 - 1e-9) == 0.0
        assert membership(point, 5 + 1e-9) == 0.0

    def test_nan_is_outside_every_support(self):
        # LARGE's right ramp is empty (c == d): a NaN must not reach it.
        for iv in (MEDIUM, LARGE, SMALL, GENERIC):
            assert membership(iv, math.nan) == 0.0

    @given(x=st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_degree_always_within_unit_interval(self, x):
        for iv in (MEDIUM, LARGE, SMALL, GENERIC):
            assert 0.0 <= membership(iv, x) <= 1.0

    @given(x=quarters(0, 15))
    def test_classify_reports_membership_degree(self, x):
        degrees = dict(classify(volume_vocab(), x))
        assert degrees.get("Medium Volume", 0.0) == membership(MEDIUM, x)


class TestClassify:
    def test_value_in_two_sets(self):
        result = classify(volume_vocab(), 10.5)
        assert result == (("Medium Volume", 0.5), ("Large Volume", 0.5))

    def test_value_in_single_plateau(self):
        result = classify(volume_vocab(), 8)
        assert result == (("Medium Volume", 1.0),)

    def test_value_below_all_sets(self):
        result = classify(volume_vocab(), -1)
        assert result == ()
        assert not result

    def test_nan_gets_no_labels(self):
        assert classify(volume_vocab(), math.nan) == ()
        assert classify(timing_vocab(), math.nan) == ()

    def test_pairs_give_labels_and_degrees(self):
        result = classify(volume_vocab(), 10.5)
        assert tuple(label for label, _ in result) == ("Medium Volume", "Large Volume")
        assert dict(result)["Large Volume"] == 0.5
        assert "Small Volume" not in dict(result)
        assert len(result) == 2

    @given(x=quarters(-5, 20))
    def test_no_zero_degrees_ever_reported(self, x):
        for vocab in (volume_vocab(), timing_vocab()):
            result = classify(vocab, x)
            labels = [label for label, _ in result]
            assert all(degree > 0.0 for _, degree in result)
            assert len(set(labels)) == len(labels)

    @given(vocab=ruspini_vocabs("v", 0, 12), x=quarters(0, 12))
    def test_ruspini_degrees_sum_to_one(self, vocab, x):
        total = sum(degree for _, degree in classify(vocab, x))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_classification_coerces_to_tuple(self):
        assert isinstance(classify(volume_vocab(), 10.5), tuple)
        assert isinstance(classify(volume_vocab(), -1), tuple)


class TestValidateVocabulary:
    def test_quickstart_volume_vocabulary_is_clean(self):
        findings = validate_vocabulary(volume_vocab())
        assert not has_errors(findings)
        infos = [f for f in findings if f.severity == INFO]
        assert any(f.code == "ruspini" and "[0, 15]" in f.message for f in infos)

    def test_quickstart_timing_vocabulary_is_clean(self):
        findings = validate_vocabulary(timing_vocab())
        assert not has_errors(findings)
        assert any(f.code == "ruspini" and "[0, 10]" in f.message for f in findings)

    def test_corner_order_violation(self):
        vocab = Vocabulary("v", (FuzzyInterval("bad", 5, 3, 9, 12),))
        findings = validate_vocabulary(vocab)
        assert any(f.severity == ERROR and f.code == "interval-corners"
                   for f in findings)

    def test_duplicate_labels(self):
        vocab = Vocabulary("v", (
            FuzzyInterval("Small", 0, 0, 1, 2),
            FuzzyInterval("Small", 2, 3, 4, 5),
        ))
        findings = validate_vocabulary(vocab)
        assert any(f.code == "duplicate-label" for f in findings)

    def test_empty_vocabulary(self):
        findings = validate_vocabulary(Vocabulary("v", ()))
        assert any(f.code == "vocabulary-empty" for f in findings)

    def test_empty_label(self):
        vocab = Vocabulary("v", (FuzzyInterval("", 0, 1, 2, 3),))
        assert any(f.code == "interval-label" for f in validate_vocabulary(vocab))

    def test_non_finite_corner(self):
        vocab = Vocabulary("v", (FuzzyInterval("inf", 0, 1, 2, math.inf),))
        findings = validate_vocabulary(vocab)
        assert any(f.severity == ERROR and f.code == "interval-corners"
                   for f in findings)

    @pytest.mark.parametrize("corners", [
        (-1.5e308, 1.5e308, 1.6e308, 1.7e308),
        (-1.7e308, -1.6e308, -1.5e308, 1.5e308),
    ], ids=["up-ramp", "down-ramp"])
    def test_ramp_wider_than_float_range_is_an_error(self, corners):
        # b - a or d - c overflows to inf, so membership() would give nan or 0
        # where the ramp is half way up: the interval cannot be evaluated.
        vocab = Vocabulary("v", (FuzzyInterval("X", *corners),))
        findings = validate_vocabulary(vocab)
        assert [f.code for f in findings if f.severity == ERROR] == ["interval-span"]

    def test_widest_ramp_that_fits_is_legal(self):
        vocab = Vocabulary("v", (FuzzyInterval("X", -8e307, 8e307, 9e307, 1e308),))
        assert not has_errors(validate_vocabulary(vocab))
        assert classify(vocab, 0.0) == (("X", 0.5),)

    def test_partition_spanning_the_float_range_is_recognised(self):
        # The probe between two corners more than the float range apart
        # must lie between them, not at inf.
        whole = Vocabulary("v", (FuzzyInterval("all", -1.7e308, -1.7e308,
                                               1.7e308, 1.7e308),))
        assert [f.code for f in validate_vocabulary(whole)] == ["ruspini"]
        ends = Vocabulary("v", (FuzzyInterval("low", -1.7e308, -1.7e308, -1.7e308, 0),
                                FuzzyInterval("high", 1, 1.7e308, 1.7e308, 1.7e308)))
        assert "not-ruspini" in [f.code for f in validate_vocabulary(ends)]

    def test_coverage_gap_reported(self):
        vocab = Vocabulary("v", (
            FuzzyInterval("low", 0, 1, 2, 3),
            FuzzyInterval("high", 5, 6, 7, 8),
        ))
        findings = validate_vocabulary(vocab)
        gap = [f for f in findings if f.code == "coverage-gap"]
        assert len(gap) == 1 and "(3, 5)" in gap[0].message
        assert any(f.code == "not-ruspini" for f in findings)

    def test_overlapping_sets_are_legal(self):
        vocab = Vocabulary("v", (
            FuzzyInterval("one", 0, 0, 4, 8),
            FuzzyInterval("two", 0, 2, 6, 8),
            FuzzyInterval("three", 0, 4, 8, 8),
        ))
        assert not has_errors(validate_vocabulary(vocab))

    @given(vocab=ruspini_vocabs("v", 0, 10))
    def test_generated_partitions_are_recognised(self, vocab):
        findings = validate_vocabulary(vocab)
        assert not has_errors(findings)
        assert any(f.code == "ruspini" for f in findings)
