"""Tests for window semantics, label expansion, rule totals and metrics.

All of it runs through mine(), the one mining entry point, and is
checked against the independent oracle where the oracle has an answer.
"""

import gc
import math
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fuzzmine.mining
from fuzzmine import (
    EventStream,
    FuzzyInterval,
    MiningConfig,
    StreamBundle,
    Vocabulary,
    classify,
    load_config,
    mine,
    parse_streams_csv,
)

from common import (
    QUICKSTART_RULES,
    oracle_config,
    points,
    quickstart_bundle,
    quickstart_mining_config,
    stream,
    write_workload,
)
from oracle import brute_force_associations, brute_force_rule_table, trapezoid_degree
from strategies import (
    STREAM_NAMES,
    arbitrary_settings,
    bundles,
    ruspini_settings,
    tenths,
    tenths_bundles,
)

WINDOWS = (10, 10)   # (trigger_window, consequence_window)

# Exact numbers a caller may put in a stream built in code, among them
# thirds, fifths and sevenths, which no float equals.
EXACT = st.one_of(st.integers(0, 30), st.fractions(0, 30, max_denominator=7))

# One label covering every value and elapsed time the tests produce.
ANY = Vocabulary("any", (FuzzyInterval("any", -1e9, -1e9, 1e9, 1e9),))


def mined_triples(bundle, windows):
    """(Counter of (v1, v2, delta_t, v3), total_weight) as mine() finds them.

    Point labels on every value and every elapsed time in the bundle make
    each window triple add exactly 1 to the rule named by its readings,
    so total_weight is the triple count.
    """
    t1, t2, c = (s.events for s in (bundle.trigger1, bundle.trigger2,
                                    bundle.consequence))
    cfg = MiningConfig(
        *windows, points("t1", [e.value for e in t1]),
        points("t2", [e.value for e in t2]),
        points("dt", [e3.timestamp - e2.timestamp for e2 in t2 for e3 in c]),
        points("c", [e.value for e in c]))
    ruleset = mine(bundle, cfg)
    found = Counter({tuple(map(float, r[:4])): r.weight for r in ruleset.rules})
    return found, ruleset.total_weight


def rule_table(ruleset):
    """label tuple -> (weight, support, confidence), the oracle's table form."""
    return {r[:4]: (r.weight, r.support, r.confidence) for r in ruleset.rules}


def oracle_fold(bundle, cfg):
    """The total weight added up one instance at a time in the oracle's
    order: triples in (t1, t2, t3) order, then intervals in vocabulary
    order, each product taken left to right."""
    total = 0.0
    dims = (cfg.vocab_t1, cfg.vocab_t2, cfg.vocab_dt, cfg.vocab_c)
    triples = brute_force_associations(bundle, cfg.trigger_window, cfg.consequence_window)
    for v1, v2, dt, v3, *_ in triples:
        for ivs in product(*(vocab.intervals for vocab in dims)):
            weight = 1.0
            for iv, x in zip(ivs, (v1, v2, dt, v3)):
                weight *= trapezoid_degree(iv.a, iv.b, iv.c, iv.d, x)
            if weight > 0.0:
                total += weight
    return total


def one_triple_rules(e1, e2, e3):
    """(labels, weight) of the quickstart rules mined from a single triple."""
    bundle = StreamBundle(*(stream(name, [event])
                            for name, event in zip(STREAM_NAMES, (e1, e2, e3))))
    return [(r[:4], r.weight) for r in mine(bundle, quickstart_mining_config()).rules]


def same_streams(events, windows, vocabs):
    """Three streams holding the same (timestamp, value) events."""
    bundle = StreamBundle(*(stream(name, events) for name in STREAM_NAMES))
    return bundle, MiningConfig(*windows, *vocabs)


def ramps(name, top):
    """Two labels splitting [0, top] linearly: inexact degrees almost anywhere,
    so a change in the order of the float operations shows in the low bits."""
    return Vocabulary(name, (FuzzyInterval("low", 0, 0, 0, top),
                             FuzzyInterval("high", 0, top, top, top)))


# Every stream has events at 0, 2 and 5, so triples tie across streams and
# land on both closed window boundaries (2 after t1, 3 after t2).
BOUNDARY_TIES = same_streams(
    [(0, 4), (2, 5), (2, 10), (5, 7.25), (5, 11)], (2, 3),
    (ramps("t1", 12), ramps("t2", 12), ramps("dt", 3), ramps("c", 12)))

# a == b == c == d: the point set has degree 1 at its corner and 0 elsewhere.
POINT = Vocabulary("point", (FuzzyInterval("at5", 5, 5, 5, 5),
                             FuzzyInterval("near5", 2, 5, 5, 8)))
ZERO_WIDTH = same_streams(
    [(0, 5), (0, 4.5), (1, 5), (1, 6)], (1, 1),
    (POINT, POINT, Vocabulary("dt", (FuzzyInterval("now", 0, 0, 0, 0),
                                     FuzzyInterval("soon", 0, 1, 1, 1))), POINT))

# Ramps 3e160 wide give degrees near 1e-160: two such factors make a
# subnormal product, three or four underflow to 0.0.
FAINT = Vocabulary("faint", (FuzzyInterval("faint", 0, 3e160, 3e160, 6e160),
                             FuzzyInterval("plain", 0, 12, 12, 12)))
SUBNORMAL = same_streams(
    [(0, 2.5), (1, 0.75), (2, 11), (3, 6.5)], (2, 2),
    (FAINT, FAINT, FAINT, FAINT))

# Labels z, m, a in reverse lexicographic order with crisp degrees, so many
# rules tie on weight and only the label text may order them.
ZMA = Vocabulary("zma", (FuzzyInterval("z", 0, 0, 1, 1), FuzzyInterval("m", 1, 1, 2, 2),
                         FuzzyInterval("a", 2, 2, 3, 3)))
REVERSE_LEX_TIES = same_streams(
    [(0, 0.5), (1, 1.5), (1, 2.5), (2, 0.5), (3, 2.5), (4, 1.5)], (2, 2),
    (ZMA, ZMA, Vocabulary("dt", (FuzzyInterval("z", 0, 0, 1, 1),
                                 FuzzyInterval("a", 1.25, 1.25, 2, 2))), ZMA))

# A vocabulary built in code may repeat a label: its intervals share one rule,
# summed in the same order as distinct labels would be.
REPEATED = Vocabulary("repeated", (
    FuzzyInterval("low", 0, 0, 0, 12), FuzzyInterval("high", 0, 12, 12, 12),
    FuzzyInterval("low", 0, 0, 6, 9), FuzzyInterval("mid", 3, 6, 6, 9),
    FuzzyInterval("high", 6, 12, 12, 12)))
DUPLICATE_LABELS = same_streams(
    [(0, 1), (0.5, 4.5), (1, 7), (1.5, 10.5), (2, 11.75)], (1.5, 1.5),
    (REPEATED, REPEATED, ramps("dt", 1.5), REPEATED))

# Shaped like a sparse stream: most trigger windows hold nothing, one
# trigger-2 event has no consequence in reach, and each dimension gets
# values no label covers (20, 30 and 40 past ramps(12); delta_t 9.5 and
# 10.5 past "soon").
SPARSE_SHAPE = (
    StreamBundle(
        stream("alpha", [(0, 4), (1, 20), (50, 5),
                              (100, 6), (119, 3)]),
        stream("beta", [(2, 7), (3, 30), (120, 2)]),
        stream("gamma", [(4, 9), (5, 40), (12.5, 3),
                              (200, 1)])),
    MiningConfig(2, 10, ramps("t1", 12), ramps("t2", 12),
                 Vocabulary("dt", (FuzzyInterval("soon", 0, 0, 2, 4),)), ramps("c", 12)))


class TestWindows:
    """Window semantics, seen through mine(): point labels turn each window
    triple into one unit of weight in the rule named by its readings."""

    def test_quickstart_associations(self):
        found, total = mined_triples(quickstart_bundle(), WINDOWS)
        assert found == Counter({(2, 8, 4, 10.5): 1, (2, 8, 10, 15): 1,
                                 (7, 2, 10, 7): 1})
        assert total == 3.0

    def test_empty_trigger2_yields_nothing(self):
        bundle = StreamBundle(stream("a", [(0, 1)]),
                              EventStream("b"),
                              stream("c", [(1, 1)]))
        assert mined_triples(bundle, WINDOWS) == (Counter(), 0.0)

    def test_window_boundaries_are_closed(self):
        bundle = StreamBundle(stream("a", [(0, 1)]),
                              stream("b", [(10, 2)]),
                              stream("c", [(20, 3)]))
        assert mined_triples(bundle, WINDOWS) == (Counter({(1, 2, 10, 3): 1}), 1.0)

    def test_just_beyond_window_is_excluded(self):
        bundle = StreamBundle(stream("a", [(0, 1)]),
                              stream("b", [(10.25, 2)]),
                              stream("c", [(20, 3)]))
        assert mined_triples(bundle, WINDOWS) == (Counter(), 0.0)

    def test_triggers_may_coincide_and_delta_may_be_zero(self):
        bundle = StreamBundle(stream("a", [(5, 1)]),
                              stream("b", [(5, 2)]),
                              stream("c", [(5, 3)]))
        assert mined_triples(bundle, WINDOWS) == (Counter({(1, 2, 0, 3): 1}), 1.0)

    def test_consequence_before_trigger2_is_excluded(self):
        bundle = StreamBundle(stream("a", [(0, 1)]),
                              stream("b", [(5, 2)]),
                              stream("c", [(4, 3)]))
        assert mined_triples(bundle, WINDOWS) == (Counter(), 0.0)

    def test_one_event_can_join_many_associations(self):
        bundle = StreamBundle(stream("a", [(0, 1), (1, 2)]),
                              stream("b", [(2, 3)]),
                              stream("c", [(3, 4), (4, 5)]))
        found, total = mined_triples(bundle, WINDOWS)
        assert sum(found.values()) == total == 4.0

    def test_output_sorted_by_timestamps(self):
        # Triples are folded in (t1, t2, t3) order: with inexact degrees a
        # different order would show in the low bits of the sums.
        bundle = StreamBundle(
            stream("a", [(1, 5), (0, 1)]),
            stream("b", [(2, 7), (1, 2)]),
            stream("c", [(3, 11), (2, 3)]),
        )
        cfg = MiningConfig(*WINDOWS, ramps("t1", 12), ramps("t2", 12),
                           ramps("dt", 10), ramps("c", 12))
        assert rule_table(mine(bundle, cfg)) == brute_force_rule_table(bundle, oracle_config(cfg))

    @given(bundle=bundles(max_events=12),
           w=st.tuples(st.integers(1, 48), st.integers(1, 48)))
    def test_matches_brute_force_enumeration(self, bundle, w):
        windows = (w[0] / 4, w[1] / 4)
        slow = brute_force_associations(bundle, *windows)
        found, total = mined_triples(bundle, windows)
        assert found == Counter(t[:4] for t in slow)
        assert total == len(slow)

    # On tenths t + window rounds either way: 0.1 + 0.2 lands above 0.3, so
    # t2 = 0.3 is in the window of 0.2 after t1 = 0.1; 0.7 + 0.1 lands below
    # 0.8, so t3 = 0.8 is not in the window of 0.1 after t2 = 0.7. The
    # oracle adds the same floats.
    @given(bundle=tenths_bundles(),
           windows=st.tuples(*[tenths(0, 3).filter(bool)] * 2))
    @example(bundle=StreamBundle(stream("a", [(0.1, 1), (0.6, 2)]),
                                 stream("b", [(0.3, 3), (0.7, 4)]),
                                 stream("c", [(0.3, 5), (0.8, 6)])),
             windows=(0.2, 0.1))
    @example(bundle=StreamBundle(stream("a", [(0.6, 1), (0.6, 2), (2.5, 3)]),
                                 stream("b", [(0.8, 4), (0.8, 5), (0.8, 6)]),
                                 stream("c", [(0.8, 7), (0.9, 8), (1.1, 9)])),
             windows=(0.2, 0.3))
    def test_matches_brute_force_on_tenths(self, bundle, windows):
        # Runs of equal timestamps, and trigger-2 events that stop before
        # the trigger-1 events do, walk the window indices past each end.
        slow = brute_force_associations(bundle, *windows)
        found, total = mined_triples(bundle, windows)
        assert found == Counter(t[:4] for t in slow)
        assert total == len(slow)

    @given(bundle=bundles(max_events=10),
           w=st.tuples(st.integers(1, 20), st.integers(1, 20)),
           grow=st.tuples(st.integers(0, 20), st.integers(0, 20)))
    def test_enlarging_windows_never_drops_associations(self, bundle, w, grow):
        small = (w[0] / 4, w[1] / 4)
        large = ((w[0] + grow[0]) / 4, (w[1] + grow[1]) / 4)
        found_small, _ = mined_triples(bundle, small)
        found_large, _ = mined_triples(bundle, large)
        assert all(found_large[k] >= n for k, n in found_small.items())

    @given(bundle=bundles(max_events=10), shift=st.integers(0, 100))
    def test_uniform_time_shift_changes_nothing(self, bundle, shift):
        def shifted(moving):
            return EventStream(moving.name, [t + shift for t in moving.timestamps],
                               moving.values)

        moved = StreamBundle(shifted(bundle.trigger1), shifted(bundle.trigger2),
                             shifted(bundle.consequence))
        assert mined_triples(moved, WINDOWS) == mined_triples(bundle, WINDOWS)


class TestLabelExpansion:
    """Label expansion of one window triple, seen through mine()."""

    def test_split_consequence_produces_two_instances(self):
        assert one_triple_rules((0, 2), (3, 8), (7, 10.5)) == [
            (("Small Volume", "Medium Volume", "Short Time After", "Large Volume"),
             0.5),
            (("Small Volume", "Medium Volume", "Short Time After", "Medium Volume"),
             0.5),
        ]

    def test_fully_contained_association(self):
        assert one_triple_rules((1000, 7), (1003, 2), (1013, 7)) == [
            (("Medium Volume", "Small Volume", "Long Time After", "Medium Volume"),
             1.0),
        ]

    def test_value_outside_all_sets_annihilates(self):
        assert one_triple_rules((0, -5), (3, 8), (7, 10.5)) == []

    def test_instance_count_is_product_of_classification_sizes(self):
        # 10.5 splits on both volume dimensions; 6 splits the timing sets.
        rules = one_triple_rules((0, 10.5), (0, 10.5), (6, 10.5))
        assert len(rules) == 2 * 2 * 2 * 2
        assert sum(weight for _, weight in rules) == pytest.approx(1.0, abs=1e-12)


class TestRuleTotals:
    """Folding instances into rule totals, seen through mine()."""

    def test_quickstart_weights(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        assert len(ruleset.rules) == 4
        assert ruleset.total_weight == pytest.approx(3.0, abs=1e-9)
        by_labels = {r[:4]: r for r in ruleset.rules}
        for labels, (weight, _, _) in QUICKSTART_RULES.items():
            assert by_labels[labels].weight == pytest.approx(weight, abs=1e-9)

    def test_identical_tuples_merge(self):
        # Two triples read as (Small, Small, Long, Small) with degree 1 each.
        bundle = StreamBundle(stream("a", [(0, 1), (1, 1)]),
                              stream("b", [(2, 1)]),
                              stream("c", [(12, 1)]))
        ruleset = mine(bundle, quickstart_mining_config())
        assert [(r[:4], r.weight) for r in ruleset.rules] == [
            (("Small Volume", "Small Volume", "Long Time After", "Small Volume"), 2.0)]

    def test_empty_input(self):
        bundle = StreamBundle(EventStream("a"), EventStream("b"), EventStream("c"))
        ruleset = mine(bundle, quickstart_mining_config())
        assert len(ruleset.rules) == 0
        assert ruleset.total_weight == 0.0

    def test_zero_weight_instances_are_skipped(self):
        # An underflowed degree product adds no rule, trigger pair or total,
        # so no metric divides by zero.
        bundle, cfg = SUBNORMAL
        ruleset = mine(bundle, cfg)
        assert ruleset.rules and all(r.weight > 0.0 for r in ruleset.rules)
        assert all(0.0 < r.confidence <= 1.0 for r in ruleset.rules)
        assert not any(r[:4].count("faint") >= 3 for r in ruleset.rules)
        # Values 100 only read as faint (degree ~3e-159), so every product
        # of the one triple underflows to 0.0.
        faint, _ = same_streams([(0, 100), (1, 100)], (1, 1),
                                (FAINT, FAINT, FAINT, FAINT))
        empty = StreamBundle(EventStream("a"), EventStream("b"), EventStream("c"))
        assert mine(faint, cfg) == mine(empty, cfg)

    def test_ordering_descending_weight_then_lexicographic(self):
        # Ties are broken by label text, not by the labels' vocabulary order.
        bundle = StreamBundle(
            stream("a", [(0, 0.5), (0.5, 0.5), (1, 1.5),
                              (1.5, 2.5)]),
            stream("b", [(2, 0.5)]),
            stream("c", [(3, 0.5)]))
        cfg = MiningConfig(*WINDOWS, ZMA, ZMA, ANY, ZMA)
        assert [(r[:4], r.weight) for r in mine(bundle, cfg).rules] == [
            (("z", "z", "any", "z"), 2.0),
            (("a", "z", "any", "z"), 1.0),
            (("m", "z", "any", "z"), 1.0)]

    @given(settings_pair=arbitrary_settings(max_events=6))
    @settings(max_examples=40)
    def test_total_weight_is_plain_sum(self, settings_pair):
        bundle, cfg = settings_pair
        ruleset = mine(bundle, cfg)
        assert ruleset.total_weight == oracle_fold(bundle, cfg)
        assert sum(r.weight for r in ruleset.rules) == pytest.approx(
            ruleset.total_weight, abs=1e-9)


class TestMetrics:
    def test_quickstart_support_and_confidence(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        by_labels = {r[:4]: r for r in ruleset.rules}
        for labels, (weight, sup, conf) in QUICKSTART_RULES.items():
            rule = by_labels[labels]
            assert rule.weight == pytest.approx(weight, abs=1e-9)
            assert rule.weight / ruleset.total_weight == pytest.approx(sup, abs=1e-9)
            assert rule.support == pytest.approx(sup, abs=1e-9)
            assert rule.confidence == pytest.approx(conf, abs=1e-9)

    def test_single_rule_set_self_normalizes(self):
        # One triple, one label per reading, degrees 0.5 * 1 * 1 * 0.5.
        bundle = StreamBundle(stream("a", [(0, 1.5)]),
                              stream("b", [(1, 6)]),
                              stream("c", [(2, 1.5)]))
        half = Vocabulary("half", (FuzzyInterval("half", 0, 3, 3, 3),))
        ruleset = mine(bundle, MiningConfig(*WINDOWS, half, ANY, ANY, half))
        rule, = ruleset.rules
        assert rule.weight == 0.25
        assert rule.support == 1.0
        assert rule.confidence == 1.0


class TestThresholds:
    """Pruning by min_support and min_confidence, seen through mine()."""

    def test_quickstart_min_support_filters_to_two_rules(self):
        pruned = mine(quickstart_bundle(), quickstart_mining_config(min_support=0.3))
        kept = {r[:4] for r in pruned.rules}
        assert kept == {
            ("Small Volume", "Medium Volume", "Long Time After", "Large Volume"),
            ("Medium Volume", "Small Volume", "Long Time After", "Medium Volume"),
        }

    def test_zero_thresholds_are_identity(self):
        # At zero thresholds mine() keeps every rule, with the oracle's metrics.
        ruleset = mine(quickstart_bundle(), quickstart_mining_config(0.0, 0.0))
        assert rule_table(ruleset) == brute_force_rule_table(
            quickstart_bundle(), oracle_config(quickstart_mining_config()))

    def test_full_thresholds_empty_the_set(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config(1.0, 1.0))
        assert len(ruleset.rules) == 0
        assert ruleset.total_weight == 3.0

    def test_metrics_keep_pre_pruning_denominators(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        pruned = mine(quickstart_bundle(), quickstart_mining_config(min_support=0.3))
        assert pruned.total_weight == ruleset.total_weight
        # Each kept rule keeps the support and confidence it has unpruned.
        assert set(pruned.rules) < set(ruleset.rules)
        rule = {r[:4]: r for r in pruned.rules}[
            ("Small Volume", "Medium Volume", "Long Time After", "Large Volume")]
        assert rule.support == pytest.approx(1 / 3, abs=1e-9)
        assert rule.confidence == pytest.approx(0.5, abs=1e-9)

    @given(case=arbitrary_settings(max_events=6), data=st.data())
    def test_thresholds_filter_the_unthresholded_rules_in_order(self, case, data):
        # Thresholds drawn from the rules' own metrics land on the boundary,
        # where a rule meeting one exactly is kept.
        bundle, cfg = case
        full = mine(bundle, cfg)
        metrics = st.sampled_from([0.0, 1.0, *(value for rule in full.rules
                                                for value in (rule.support, rule.confidence))])
        min_support, min_confidence = data.draw(st.tuples(metrics, metrics))
        pruned = mine(bundle, MiningConfig(*cfg[:6], min_support, min_confidence))
        assert pruned.rules == tuple(rule for rule in full.rules
                                     if rule.support >= min_support
                                     and rule.confidence >= min_confidence)
        assert pruned.total_weight == full.total_weight


class TestMine:
    def test_quickstart_end_to_end(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        assert len(ruleset.rules) == 4
        assert {r[:4] for r in ruleset.rules} == set(QUICKSTART_RULES)

    def test_thresholds_flow_through_config(self):
        cfg = quickstart_mining_config(min_support=0.3)
        assert len(mine(quickstart_bundle(), cfg).rules) == 2

    def test_empty_bundle(self):
        bundle = StreamBundle(EventStream("a"), EventStream("b"), EventStream("c"))
        ruleset = mine(bundle, quickstart_mining_config())
        assert len(ruleset.rules) == 0
        assert ruleset.total_weight == 0.0

    @given(bundle=bundles(max_events=5),
           corners=st.lists(st.tuples(*[st.floats()] * 4), min_size=4, max_size=4))
    @example(bundle=quickstart_bundle(), corners=[(0, math.nan, 15, 15)] * 4)
    def test_any_float_corners_mine_without_raising(self, bundle, corners):
        # A hand-built config meets no validator: whatever its corners,
        # including NaN, infinite and unordered ones, mine() completes.
        vocabs = (Vocabulary(name, (FuzzyInterval(name, *four),))
                  for name, four in zip(("t1", "t2", "dt", "c"), corners))
        ruleset = mine(bundle, MiningConfig(*WINDOWS, *vocabs))
        assert all(rule.weight > 0.0 for rule in ruleset.rules)

    @given(parts=st.lists(st.lists(st.tuples(EXACT, EXACT), max_size=8),
                          min_size=3, max_size=3))
    def test_ints_and_fractions_mine_as_their_float_twins(self, parts):
        # Columns hold floats, so a stream built from exact numbers mines
        # with the floats nearest them, not with exact window arithmetic.
        exact = StreamBundle(*map(stream, STREAM_NAMES, parts))
        twin = StreamBundle(*(stream(name, [(float(t), float(v)) for t, v in part])
                              for name, part in zip(STREAM_NAMES, parts)))
        cfg = quickstart_mining_config()
        assert mine(exact, cfg) == mine(twin, cfg)

    @given(settings_pair=arbitrary_settings(max_events=6))
    @settings(max_examples=40)
    def test_metric_invariants_at_zero_thresholds(self, settings_pair):
        bundle, cfg = settings_pair
        ruleset = mine(bundle, cfg)
        if not ruleset.rules:
            return
        assert sum(r.support for r in ruleset.rules) == pytest.approx(1.0, abs=1e-9)
        for rule in ruleset.rules:
            assert rule.confidence >= rule.support - 1e-9
        by_pair = {}
        for rule in ruleset.rules:
            by_pair.setdefault((rule.l1, rule.l2), []).append(rule)
        for rules in by_pair.values():
            assert sum(r.confidence for r in rules) == pytest.approx(1.0, abs=1e-9)

    @given(case=st.one_of(arbitrary_settings(max_events=8),
                          ruspini_settings(max_events=8)))
    @example(case=BOUNDARY_TIES)
    @example(case=ZERO_WIDTH)
    @example(case=SUBNORMAL)
    @example(case=REVERSE_LEX_TIES)
    @example(case=DUPLICATE_LABELS)
    @example(case=SPARSE_SHAPE)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rule_table_equals_oracle_exactly(self, case):
        # The oracle adds the same products in the same order, so every
        # weight and metric must agree to the last bit, not within a tolerance.
        bundle, cfg = case
        ruleset = mine(bundle, cfg)
        expected = brute_force_rule_table(bundle, oracle_config(cfg))
        assert rule_table(ruleset) == expected
        assert [r[:4] for r in ruleset.rules] == sorted(
            expected, key=lambda labels: (-expected[labels][0], labels))
        assert ruleset.total_weight == oracle_fold(bundle, cfg)

    def test_classifies_only_what_its_windows_reach(self, tmp_path, monkeypatch):
        # On sparse, 19,950 of the 25,000 trigger-2 events lie in no trigger
        # window. A trigger value is classified once; a consequence's value
        # and its elapsed time once for each trigger-2 event that reaches it.
        csv_path, config_path = write_workload(tmp_path, "sparse", 1)
        cfg = load_config(config_path)
        with open(csv_path, "rb") as handle:
            bundle = parse_streams_csv(handle, cfg.roles)
        calls = Counter()

        def counted(vocab, x):
            calls[vocab.name] += 1
            return classify(vocab, x)
        monkeypatch.setattr(fuzzmine.mining, "classify", counted)
        mine(bundle, cfg.mining)
        assert calls == {"trigger1": 1_022, "trigger2": 1_017,
                         "consequence": 1_023, "delta_t": 1_023}


def aligned_bundle(n, seed=1):
    """Three streams of ``n`` events each, sharing one timestamp per row,
    with gaps uniform in [0, 100] (a mean of 5 times the quickstart
    windows) and values uniform over the quickstart volume labels."""
    rng = random.Random(seed)
    t, times = 0.0, []
    for _ in range(n):
        t += rng.uniform(0, 100)
        times.append(t)
    return StreamBundle(*(stream(name, [(t, rng.uniform(0, 15)) for t in times])
                          for name in STREAM_NAMES))


class TestMemory:
    """Beyond the streams, mine() holds only what its trigger window
    reaches and one row of totals per (l1, l2) pair, so doubling the
    streams leaves its traced peak where it was (about 41 KB here). A
    list with one slot per event would add at least 20 KB between the two."""

    def test_peak_does_not_grow_with_the_streams(self):
        cfg, peaks = quickstart_mining_config(), []
        for n in (2_500, 5_000):
            bundle = aligned_bundle(n)
            gc.collect()
            tracemalloc.start()
            try:
                mine(bundle, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 10_000

    def test_peak_stays_near_the_rule_set_it_returns(self, tmp_path):
        # On wide-vocab (6,445 rules) the result is most of what mine()
        # allocates, and the peak is about 1.13 times it. Anything kept per
        # rule beside the rules while they are made and sorted, such as a
        # sort key each, takes it past 1.5.
        csv_path, config_path = write_workload(tmp_path, "wide-vocab", 1)
        cfg = load_config(config_path)
        streams = parse_streams_csv(Path(csv_path).read_text(encoding="utf-8"), cfg.roles)
        gc.collect()
        tracemalloc.start()
        try:
            ruleset = mine(streams, cfg.mining)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ruleset.rules) == 6_445
        assert peak <= 1.25 * size

    def test_thresholds_bound_what_it_builds(self, tmp_path):
        # On wide-vocab these thresholds keep 781 of the 6,445 rules. A rule
        # under one is never made, so the peak follows the kept rules (about
        # 0.41 MB against 1.41 MB with none kept out); building every rule
        # and filtering afterwards leaves it where it was.
        csv_path, config_path = write_workload(tmp_path, "wide-vocab", 1)
        cfg = load_config(config_path)
        streams = parse_streams_csv(Path(csv_path).read_text(encoding="utf-8"), cfg.roles)
        thresholded = MiningConfig(*cfg.mining[:6], min_support=2e-4, min_confidence=0.02)
        peaks, kept = [], []
        for mining in (cfg.mining, thresholded):
            gc.collect()
            tracemalloc.start()
            try:
                kept.append(len(mine(streams, mining).rules))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert kept == [6_445, 781]
        assert peaks[1] <= peaks[0] / 2


class TestConfigTypes:
    def test_window_config_rejects_non_positive(self):
        vocabs = quickstart_mining_config()[2:6]
        with pytest.raises(ValueError):
            MiningConfig(0, 10, *vocabs)
        with pytest.raises(ValueError):
            MiningConfig(10, -1, *vocabs)
        with pytest.raises(ValueError):
            MiningConfig(float("inf"), 1, *vocabs)
        with pytest.raises(ValueError):
            MiningConfig(math.nan, 1, *vocabs)
        with pytest.raises(ValueError):   # not OverflowError
            MiningConfig(1, 10**400, *vocabs)

    def test_rejection_names_the_field_not_the_value(self):
        # str() of an int past the 4,300-digit limit raises its own
        # ValueError, which would name no field.
        with pytest.raises(ValueError, match=r"^consequence_window must be a "
                                             r"positive finite number$"):
            MiningConfig(1, 10**5000, *quickstart_mining_config()[2:6])
        with pytest.raises(ValueError, match=r"^min_support must be a number in \[0, 1\]$"):
            quickstart_mining_config(min_support=10**5000)

    def test_mining_config_rejects_out_of_range_thresholds(self):
        with pytest.raises(ValueError):
            quickstart_mining_config(min_support=1.5)
        with pytest.raises(ValueError):
            quickstart_mining_config(min_confidence=-0.1)
        with pytest.raises(ValueError):
            quickstart_mining_config(min_confidence=math.nan)

    def test_decimal_numbers_mine_as_their_float_twins(self):
        vocabs = quickstart_mining_config()[2:6]
        exact = MiningConfig(Decimal("10"), Decimal("7.5"), *vocabs, Decimal("0.1"), Decimal(0))
        twin = MiningConfig(10.0, 7.5, *vocabs, 0.1, 0.0)
        assert all(type(v) is float for v in exact[:2] + exact[6:])
        assert mine(quickstart_bundle(), exact) == mine(quickstart_bundle(), twin)

    @pytest.mark.parametrize("field", ["trigger_window", "min_confidence"])
    def test_number_that_is_not_a_number_raises_type_error_naming_the_field(self, field):
        given = quickstart_mining_config()._asdict()
        given[field] = "10"
        with pytest.raises(TypeError, match=f"^{field} needs real numbers as its values "
                                            r"\(must be real number, not str\)$"):
            MiningConfig(**given)

    @pytest.mark.parametrize("number", ["NaN", "sNaN"])
    @pytest.mark.parametrize("field", ["consequence_window", "min_support"])
    def test_decimal_nan_raises_value_error_naming_the_field(self, field, number):
        # Not decimal.InvalidOperation, which a Decimal NaN raises when compared.
        given = quickstart_mining_config()._asdict()
        given[field] = Decimal(number)
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            MiningConfig(**given)
