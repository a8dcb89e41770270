"""Tests for trapezoidal degrees, classification, and vocabulary checks."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzmine import (
    FuzzyInterval,
    MiningConfig,
    Vocabulary,
    classify,
    mine,
    render_ascii,
    render_dot,
    render_table,
    validate_vocabulary,
)
from fuzzmine.validation import ERROR, INFO, Finding

from common import degree, json_report, quickstart_bundle, rendered, timing_vocab, volume_vocab
from strategies import quarters, ruspini_vocabs

# Corners of valid vocabularies, signed zeros, subnormals and huge ones included.
CORNERS = st.one_of(quarters(-3, 3), st.sampled_from([0, -0.0, 5e-324, -1e300, 1e300]))


@st.composite
def valid_vocabs(draw):
    corners = draw(st.lists(st.lists(CORNERS, min_size=4, max_size=4), min_size=1, max_size=5))
    return Vocabulary("v", [FuzzyInterval(f"L{i}", *sorted(c)) for i, c in enumerate(corners)])


# Any label, and any number corner that constructs, that a vocabulary built
# in code might hold: NaN, infinities and the float maximum's neighbours too.
LABELS = st.one_of(st.text(), st.text(st.characters(categories=("Cc", "Cs", "Ll")), max_size=3),
                   st.sampled_from(["a", "b"]), st.integers(), st.none(),
                   st.lists(st.integers(), max_size=1))
BIGGEST = int(sys.float_info.max)
WILD_CORNERS = st.one_of(st.floats(), st.integers(-BIGGEST, BIGGEST), st.fractions(),
                         st.decimals(places=2, allow_nan=False))

# Exact numbers, each a corner that becomes the float nearest it.
EXACT = st.one_of(st.integers(-2, 16), st.fractions(-2, 16, max_denominator=7),
                  st.decimals(-2, 16, places=2))


@st.composite
def wild_vocabs(draw):
    """Up to four intervals of any labels and corners, the corners mostly
    sorted; about half the labels and corners are tame, so some pass."""
    intervals = []
    for i in range(draw(st.integers(0, 4))):
        corners = draw(st.lists(st.one_of(quarters(-1, 16), WILD_CORNERS),
                                min_size=4, max_size=4))
        if draw(st.sampled_from(["sort", "sort", "sort", "keep"])) == "sort":
            corners.sort(key=float)   # as the constructor converts them
        intervals.append(FuzzyInterval(draw(st.one_of(st.just(f"L{i}"), LABELS)), *corners))
    return Vocabulary("v", intervals)


def reach_sweep_gaps(vocab):
    """Coverage gaps by an independent sweep: intervals by their start, each
    gap between the furthest end reached so far and the next start."""
    spans = sorted((iv.a, iv.d) for iv in vocab.intervals)
    gaps, (_, reach) = [], spans[0]
    for lo, hi in spans[1:]:
        if lo > reach:
            gaps.append(f"{vocab.name}: no interval covers ({reach:g}, {lo:g})")
        reach = max(reach, hi)
    return gaps


def unsigned_zero(message):
    return message.replace("(-0,", "(0,").replace(", -0)", ", 0)")

MEDIUM = FuzzyInterval("Medium Volume", 3, 6, 9, 12)
LARGE = FuzzyInterval("Large Volume", 9, 12, 15, 15)
SMALL = FuzzyInterval("Small Volume", 0, 0, 3, 6)
GENERIC = FuzzyInterval("Example", 2, 4, 6, 8)


class TestMembership:
    def test_split_classification_point(self):
        # 10.5 sits on the overlap of the two upper volume sets.
        assert degree(MEDIUM, 10.5) == pytest.approx(0.5, abs=1e-12)
        assert degree(LARGE, 10.5) == pytest.approx(0.5, abs=1e-12)

    def test_outside_support_is_zero(self):
        assert degree(GENERIC, GENERIC.a - 1) == 0.0
        assert degree(GENERIC, GENERIC.d + 1) == 0.0

    def test_left_ramp_midpoint_is_half(self):
        x = GENERIC.a + (GENERIC.b - GENERIC.a) / 2
        assert degree(GENERIC, x) == 0.5

    def test_right_shoulder_plateau_reaches_edge(self):
        # c == d: the plateau governs the right edge of the support.
        assert degree(LARGE, 15) == 1.0

    def test_left_shoulder_plateau_reaches_edge(self):
        assert degree(SMALL, 0) == 1.0

    def test_plateau_is_exactly_one(self):
        for x in (4, 5, 5.5, 6):
            assert degree(GENERIC, x) == 1.0

    def test_ramp_values(self):
        assert degree(GENERIC, 2) == 0.0
        assert degree(GENERIC, 3) == 0.5
        assert degree(GENERIC, 7) == 0.5
        assert degree(GENERIC, 8) == 0.0

    def test_point_interval(self):
        point = FuzzyInterval("spike", 5, 5, 5, 5)
        assert degree(point, 5) == 1.0
        assert degree(point, 5 - 1e-9) == 0.0
        assert degree(point, 5 + 1e-9) == 0.0

    def test_nan_is_outside_every_support(self):
        # LARGE's right ramp is empty (c == d): a NaN must not reach it.
        for iv in (MEDIUM, LARGE, SMALL, GENERIC):
            assert degree(iv, math.nan) == 0.0

    @given(x=st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_degree_always_within_unit_interval(self, x):
        for iv in (MEDIUM, LARGE, SMALL, GENERIC):
            assert 0.0 <= degree(iv, x) <= 1.0

    @given(x=quarters(0, 15))
    def test_classify_reports_membership_degree(self, x):
        degrees = dict(classify(volume_vocab(), x))
        assert degrees.get("Medium Volume", 0.0) == degree(MEDIUM, x)


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

    @given(corners=st.tuples(*[st.floats()] * 4), x=st.floats())
    @example(corners=(0, math.nan, 5, 5), x=5)
    def test_any_float_corners_give_degrees_in_unit_interval(self, corners, x):
        # The ramps are tested before the plateau, so a NaN corner divides
        # by no zero-width ramp; a NaN degree is dropped like a zero one.
        result = classify(Vocabulary("v", (FuzzyInterval("x", *corners),)), x)
        assert all(0.0 < d <= 1.0 for _, d in result)

    def test_classification_coerces_to_tuple(self):
        assert isinstance(classify(volume_vocab(), 10.5), tuple)
        assert isinstance(classify(volume_vocab(), -1), tuple)


class TestFuzzyInterval:
    @pytest.mark.parametrize("corners", [
        (0, 0, 1, 10**400), (0, 0, 1, Fraction(10**400)), (0, 0, 1, 10**5000),
        (math.nan, 0, 1, 10**5000), (-10**400, 0, 1, 2), (0, 0, 1, Decimal("1e400")),
        (Decimal("-1e400"), 0, 1, 2),
    ], ids=["int", "fraction", "huge-int", "nan-and-int", "minus-int", "decimal",
            "minus-decimal"])
    def test_corner_past_the_float_range_raises(self, corners):
        # Not OverflowError: ValueError naming the interval, not the corner,
        # which may be an int of more than 4,300 digits, too long to print.
        with pytest.raises(ValueError, match="^interval 'x' has a corner that is not finite$"):
            FuzzyInterval("x", *corners)

    def test_signalling_nan_corner_raises(self):
        with pytest.raises(ValueError, match="^interval 'x' has a corner that is not finite$"):
            FuzzyInterval("x", 0, 0, 1, Decimal("sNaN"))

    @pytest.mark.parametrize("corners", [
        ("0", "0", "1", "2"), (0, None, 1, 2), (0, 0, 1, [2]),
    ], ids=["str", "none", "list"])
    def test_corner_that_is_not_a_number_raises(self, corners):
        with pytest.raises(TypeError, match=r"^interval 'x' needs real numbers as its corners "
                                            r"\(must be real number, not "):
            FuzzyInterval("x", *corners)

    @settings(max_examples=50)
    @given(corners=st.lists(st.lists(EXACT, min_size=4, max_size=4), min_size=1, max_size=3))
    def test_exact_corners_mine_as_their_float_twins(self, corners):
        # Corners are floats from construction, so a vocabulary built from
        # exact numbers is checked and mined as its float twin is.
        corners = [sorted(four) for four in corners]
        exact = Vocabulary("v", [FuzzyInterval(f"L{i}", *four) for i, four in enumerate(corners)])
        twin = Vocabulary("v", [FuzzyInterval(f"L{i}", *map(float, four))
                                for i, four in enumerate(corners)])
        assert all(type(v) is float for iv in exact.intervals for v in iv[1:])
        assert validate_vocabulary(exact) == validate_vocabulary(twin)

        def config(vocab):
            names = ("trigger1", "trigger2", "delta_t", "consequence")
            return MiningConfig(10, 10, *(Vocabulary(name, vocab.intervals) for name in names))
        assert mine(quickstart_bundle(), config(exact)) == mine(quickstart_bundle(), config(twin))


class TestVocabulary:
    def test_plain_tuples_become_checked_intervals(self):
        # So validate_vocabulary, which reads interval fields by name, never
        # raises on a vocabulary built from tuples.
        vocab = Vocabulary("v", [("x", 0, 0, 1, Fraction(2)), ("y", 1, 2, 3, 3)])
        built = Vocabulary("v", [FuzzyInterval("x", 0, 0, 1, 2), FuzzyInterval("y", 1, 2, 3, 3)])
        assert vocab == built and vocab.labels == ("x", "y")
        assert all(type(iv) is FuzzyInterval for iv in vocab.intervals)
        assert all(type(v) is float for iv in vocab.intervals for v in iv[1:])
        assert validate_vocabulary(vocab) == validate_vocabulary(built)
        with pytest.raises(ValueError, match="^interval 'x' has a corner that is not finite$"):
            Vocabulary("v", [("x", 0, 0, 1, 10**400)])

    @pytest.mark.parametrize("interval, message", [
        (None, r"argument after \* must be an iterable, not NoneType$"),
        (("x", 0, 1, 2), r"missing 1 required positional argument: 'd'$"),
        (("x", 0, 0, 1, "2"), r"^interval 'x' needs real numbers as its corners "
                              r"\(must be real number, not str\)$"),
    ], ids=["none", "four-fields", "str-corner"])
    def test_what_is_not_an_interval_raises_type_error(self, interval, message):
        with pytest.raises(TypeError, match=message):
            Vocabulary("v", [interval])


class TestValidateVocabulary:
    def test_quickstart_volume_vocabulary_is_clean(self):
        findings = validate_vocabulary(volume_vocab())
        assert ERROR not in {f.severity for f in findings}
        infos = [f for f in findings if f.severity == INFO]
        assert any(f.code == "ruspini" and "[0, 15]" in f.message for f in infos)

    def test_quickstart_timing_vocabulary_is_clean(self):
        findings = validate_vocabulary(timing_vocab())
        assert ERROR not in {f.severity for f in findings}
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

    def test_empty_vocabulary_name(self):
        vocab = Vocabulary("", (FuzzyInterval("x", 0, 0, 1, 1),))
        assert validate_vocabulary(vocab) == [
            Finding(ERROR, "vocabulary-name", "vocabulary name is empty")]

    def test_empty_vocabulary(self):
        findings = validate_vocabulary(Vocabulary("v", ()))
        assert any(f.code == "vocabulary-empty" for f in findings)

    def test_empty_label(self):
        vocab = Vocabulary("v", (FuzzyInterval("", 0, 1, 2, 3),))
        assert any(f.code == "interval-label" for f in validate_vocabulary(vocab))

    @pytest.mark.parametrize("label, rule", [
        (None, "must be a non-empty string"),
        (5, "must be a non-empty string"),
        (["x"], "must be a non-empty string"),
        ("a\nb", "has a control character"),
        ("\ud800", "has an unpaired surrogate"),
        ("\ud83d\ude00", "has an unpaired surrogate"),   # a pair only JSON would join
    ], ids=["none", "int", "list", "newline", "lone-surrogate", "surrogate-pair"])
    def test_label_rules(self, label, rule):
        vocab = Vocabulary("v", (FuzzyInterval(label, 0, 0, 1, 1),
                                 FuzzyInterval("Big", 1, 1, 2, 2)))
        assert validate_vocabulary(vocab) == [
            Finding(ERROR, "interval-label", f"v[0]: label {rule}, got {label!r}")]

    # The first st.text() of a run builds Hypothesis's Unicode table (about
    # 1.7 s) unless a .hypothesis directory already caches it, as on a fresh
    # checkout it does not: that draw alone would fail the too_slow check.
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(vocab=wild_vocabs())
    @example(vocab=Vocabulary("v", (FuzzyInterval(["x"], 0, 0, 1, 1),)))
    @example(vocab=Vocabulary("v", (FuzzyInterval("x", -10**308, 10**308, 10**308, 10**308),)))
    @example(vocab=Vocabulary("v", (FuzzyInterval(5, 0, 0, 10, 10),
                                    FuzzyInterval("Big", 10, 10, 20, 20))))
    @example(vocab=Vocabulary("v", (FuzzyInterval("a\nb", 0, 0, 20, 20),)))
    @example(vocab=Vocabulary("v", (FuzzyInterval("\ud800", 0, 0, 20, 20),)))
    @example(vocab=Vocabulary("v", (FuzzyInterval("x", *map(Decimal, (0, 10, 10, 20))),)))
    @example(vocab=Vocabulary("v", (FuzzyInterval("x", math.nan, 0, 1, -math.inf),)))
    # The int just below the float maximum's rounding edge becomes that maximum.
    @example(vocab=Vocabulary("v", (FuzzyInterval("x", -1, *[int(sys.float_info.max)
                                                             + 2**970 - 1] * 3),)))
    def test_a_vocabulary_without_errors_mines_and_renders(self, vocab):
        # Validators never raise, and what they pass the pipeline takes.
        findings = validate_vocabulary(vocab)
        if ERROR in {f.severity for f in findings}:
            return
        names = ("trigger1", "trigger2", "delta_t", "consequence")
        cfg = MiningConfig(10, 10,
                           *(Vocabulary(name, vocab.intervals) for name in names))
        ruleset = mine(quickstart_bundle(), cfg)
        for text in (rendered(render_table, ruleset), json_report(ruleset, True),
                     rendered(render_ascii, ruleset), rendered(render_dot, ruleset)):
            text.encode("utf-8")

    def test_non_finite_corner(self):
        vocab = Vocabulary("v", (FuzzyInterval("inf", 0, 1, 2, math.inf),))
        assert validate_vocabulary(vocab) == [
            Finding(ERROR, "interval-corners",
                    "v[0] ('inf'): corners must be finite, got (0.0, 1.0, 2.0, inf)")]

    @pytest.mark.parametrize("corners, message", [
        ((math.nan, 0, 1, -math.inf), "corners must be finite, got (nan, 0.0, 1.0, -inf)"),
        ((Decimal("NaN"), 0, 1, Decimal("-Infinity")),
         "corners must be finite, got (nan, 0.0, 1.0, -inf)"),
    ], ids=["floats", "decimals"])
    def test_corner_past_the_float_range_is_a_finding(self, corners, message):
        # Corners past the float range raise at construction; infinities
        # and a quiet NaN, float or Decimal, stay a finding.
        vocab = Vocabulary("v", (FuzzyInterval("x", *corners),))
        assert validate_vocabulary(vocab) == [
            Finding(ERROR, "interval-corners", f"v[0] ('x'): {message}")]

    def test_fraction_corners_are_formatted(self):
        # Corners are floats from construction, so they format as floats do.
        bad = Vocabulary("v", (FuzzyInterval("x", Fraction(3), 0, 1, 2),))
        assert [f.message for f in validate_vocabulary(bad)] == [
            "v[0] ('x'): requires a <= b <= c <= d, got (3, 0, 1, 2)"]
        gap = Vocabulary("v", (FuzzyInterval("x", 0, 0, Fraction(1, 2), Fraction(1, 2)),
                               FuzzyInterval("y", Fraction(3, 4), 1, 1, 1)))
        assert [f.message for f in validate_vocabulary(gap)] == [
            "v: no interval covers (0.5, 0.75)",
            "v: membership degrees do not sum to 1 everywhere on [0, 1]"]

    @pytest.mark.parametrize("corners", [
        (-1.5e308, 1.5e308, 1.6e308, 1.7e308),
        (-1.7e308, -1.6e308, -1.5e308, 1.5e308),
    ], ids=["up-ramp", "down-ramp"])
    def test_ramp_wider_than_float_range_is_an_error(self, corners):
        # b - a or d - c overflows to inf, so classify() would drop the label
        # where the ramp is half way up: the interval cannot be evaluated.
        vocab = Vocabulary("v", (FuzzyInterval("X", *corners),))
        findings = validate_vocabulary(vocab)
        assert [f.code for f in findings if f.severity == ERROR] == ["interval-span"]

    def test_widest_ramp_that_fits_is_legal(self):
        vocab = Vocabulary("v", (FuzzyInterval("X", -8e307, 8e307, 9e307, 1e308),))
        assert ERROR not in {f.severity for f in validate_vocabulary(vocab)}
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
        assert ERROR not in {f.severity for f in validate_vocabulary(vocab)}

    @given(vocab=ruspini_vocabs("v", 0, 10))
    def test_generated_partitions_are_recognised(self, vocab):
        findings = validate_vocabulary(vocab)
        assert ERROR not in {f.severity for f in findings}
        assert any(f.code == "ruspini" for f in findings)

    @given(vocab=valid_vocabs())
    @example(vocab=Vocabulary("v", (FuzzyInterval("c", 0, 1, 1, 1),
                                    FuzzyInterval("b", -0.0, -0.0, -0.0, -0.0),
                                    FuzzyInterval("a", -1, -1, -1, -1))))
    def test_coverage_gaps_match_a_reach_sweep(self, vocab):
        # A gap edge at zero may print as -0 or 0, as the corner set kept it.
        findings = validate_vocabulary(vocab)
        assert ERROR not in {f.severity for f in findings}
        gaps = [unsigned_zero(f.message) for f in findings if f.code == "coverage-gap"]
        assert gaps == [unsigned_zero(gap) for gap in reach_sweep_gaps(vocab)]
        assert findings[-1].code in ("ruspini", "not-ruspini")
