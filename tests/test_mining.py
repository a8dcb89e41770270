"""Tests for association extraction, fuzzification, and rule metrics."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzmine import (
    Event,
    EventStream,
    FuzzyInterval,
    MiningConfig,
    StreamBundle,
    Vocabulary,
    WindowConfig,
    aggregate,
    apply_thresholds,
    classify,
    extract_numerical,
    mine,
)

from common import QUICKSTART_RULES, quickstart_bundle, quickstart_mining_config
from oracle import brute_force_associations, brute_force_rule_table
from strategies import STREAM_NAMES, arbitrary_settings, bundles, ruspini_settings

WINDOWS = WindowConfig(trigger_window=10, consequence_window=10)


def as_value_tuples(triples):
    """(v1, v2, delta_t, v3, t1, t2, t3) per triple, as the oracle gives them."""
    return [(e1.value, e2.value, e3.timestamp - e2.timestamp, e3.value,
             e1.timestamp, e2.timestamp, e3.timestamp) for e1, e2, e3 in triples]


def one_triple_rules(e1, e2, e3):
    """(labels, weight) of the quickstart rules mined from a single triple."""
    bundle = StreamBundle(*(EventStream(name, (Event(*event),))
                            for name, event in zip(STREAM_NAMES, (e1, e2, e3))))
    return [(r.labels, r.weight) for r in mine(bundle, quickstart_mining_config())]


def same_streams(events, windows, vocabs):
    """Three streams holding the same (timestamp, value) events."""
    bundle = StreamBundle(*(EventStream(name, [Event(*e) for e in events])
                            for name in STREAM_NAMES))
    return bundle, MiningConfig(windows, *vocabs)


def ramps(name, top):
    """Two labels splitting [0, top] linearly: inexact degrees almost anywhere,
    so a change in the order of the float operations shows in the low bits."""
    return Vocabulary(name, (FuzzyInterval("low", 0, 0, 0, top),
                             FuzzyInterval("high", 0, top, top, top)))


# Every stream has events at 0, 2 and 5, so triples tie across streams and
# land on both closed window boundaries (2 after t1, 3 after t2).
BOUNDARY_TIES = same_streams(
    [(0, 4), (2, 5), (2, 10), (5, 7.25), (5, 11)], WindowConfig(2, 3),
    (ramps("t1", 12), ramps("t2", 12), ramps("dt", 3), ramps("c", 12)))

# a == b == c == d: the point set has degree 1 at its corner and 0 elsewhere.
POINT = Vocabulary("point", (FuzzyInterval("at5", 5, 5, 5, 5),
                             FuzzyInterval("near5", 2, 5, 5, 8)))
ZERO_WIDTH = same_streams(
    [(0, 5), (0, 4.5), (1, 5), (1, 6)], WindowConfig(1, 1),
    (POINT, POINT, Vocabulary("dt", (FuzzyInterval("now", 0, 0, 0, 0),
                                     FuzzyInterval("soon", 0, 1, 1, 1))), POINT))

# Ramps 3e160 wide give degrees near 1e-160: two such factors make a
# subnormal product, three or four underflow to 0.0.
FAINT = Vocabulary("faint", (FuzzyInterval("faint", 0, 3e160, 3e160, 6e160),
                             FuzzyInterval("plain", 0, 12, 12, 12)))
SUBNORMAL = same_streams(
    [(0, 2.5), (1, 0.75), (2, 11), (3, 6.5)], WindowConfig(2, 2),
    (FAINT, FAINT, FAINT, FAINT))


class TestExtractNumerical:
    def test_quickstart_associations(self):
        found = extract_numerical(quickstart_bundle(), WINDOWS)
        assert as_value_tuples(found) == [
            (2, 8, 4, 10.5, 0, 3, 7),
            (2, 8, 10, 15, 0, 3, 13),
            (7, 2, 10, 7, 1000, 1003, 1013),
        ]

    def test_empty_trigger2_yields_nothing(self):
        bundle = StreamBundle(EventStream("a", (Event(0, 1),)),
                              EventStream("b"),
                              EventStream("c", (Event(1, 1),)))
        assert list(extract_numerical(bundle, WINDOWS)) == []

    def test_window_boundaries_are_closed(self):
        bundle = StreamBundle(EventStream("a", (Event(0, 1),)),
                              EventStream("b", (Event(10, 2),)),
                              EventStream("c", (Event(20, 3),)))
        found = as_value_tuples(extract_numerical(bundle, WINDOWS))
        assert len(found) == 1
        assert found[0][2] == 10

    def test_just_beyond_window_is_excluded(self):
        bundle = StreamBundle(EventStream("a", (Event(0, 1),)),
                              EventStream("b", (Event(10.25, 2),)),
                              EventStream("c", (Event(20, 3),)))
        assert list(extract_numerical(bundle, WINDOWS)) == []

    def test_triggers_may_coincide_and_delta_may_be_zero(self):
        bundle = StreamBundle(EventStream("a", (Event(5, 1),)),
                              EventStream("b", (Event(5, 2),)),
                              EventStream("c", (Event(5, 3),)))
        found = as_value_tuples(extract_numerical(bundle, WINDOWS))
        assert len(found) == 1
        assert found[0][2] == 0

    def test_consequence_before_trigger2_is_excluded(self):
        bundle = StreamBundle(EventStream("a", (Event(0, 1),)),
                              EventStream("b", (Event(5, 2),)),
                              EventStream("c", (Event(4, 3),)))
        assert list(extract_numerical(bundle, WINDOWS)) == []

    def test_one_event_can_join_many_associations(self):
        bundle = StreamBundle(EventStream("a", (Event(0, 1), Event(1, 2))),
                              EventStream("b", (Event(2, 3),)),
                              EventStream("c", (Event(3, 4), Event(4, 5))))
        assert len(list(extract_numerical(bundle, WINDOWS))) == 4

    def test_output_sorted_by_timestamps(self):
        bundle = StreamBundle(
            EventStream("a", (Event(0, 1), Event(1, 1))),
            EventStream("b", (Event(1, 2), Event(2, 2))),
            EventStream("c", (Event(2, 3), Event(3, 3))),
        )
        keys = [(e1.timestamp, e2.timestamp, e3.timestamp)
                for e1, e2, e3 in extract_numerical(bundle, WINDOWS)]
        assert keys == sorted(keys)

    @given(bundle=bundles(max_events=12),
           w=st.tuples(st.integers(1, 48), st.integers(1, 48)))
    def test_matches_brute_force_enumeration(self, bundle, w):
        windows = WindowConfig(w[0] / 4, w[1] / 4)
        fast = extract_numerical(bundle, windows)
        slow = brute_force_associations(bundle, windows.trigger_window,
                                        windows.consequence_window)
        assert Counter(as_value_tuples(fast)) == Counter(slow)

    @given(bundle=bundles(max_events=10),
           w=st.tuples(st.integers(1, 20), st.integers(1, 20)),
           grow=st.tuples(st.integers(0, 20), st.integers(0, 20)))
    def test_enlarging_windows_never_drops_associations(self, bundle, w, grow):
        small = WindowConfig(w[0] / 4, w[1] / 4)
        large = WindowConfig((w[0] + grow[0]) / 4, (w[1] + grow[1]) / 4)
        found_small = Counter(as_value_tuples(extract_numerical(bundle, small)))
        found_large = Counter(as_value_tuples(extract_numerical(bundle, large)))
        assert all(found_large[k] >= n for k, n in found_small.items())

    @given(bundle=bundles(max_events=10), shift=st.integers(0, 100))
    def test_uniform_time_shift_changes_nothing(self, bundle, shift):
        def shifted(stream):
            return EventStream(stream.name, tuple(
                Event(e.timestamp + shift, e.value) for e in stream.events))

        moved = StreamBundle(shifted(bundle.trigger1), shifted(bundle.trigger2),
                             shifted(bundle.consequence))
        original = as_value_tuples(extract_numerical(bundle, WINDOWS))
        after = as_value_tuples(extract_numerical(moved, WINDOWS))
        assert Counter(t[:4] for t in original) == Counter(t[:4] for t in after)


class TestFuzzify:
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


class TestAggregate:
    def test_quickstart_weights(self):
        cfg = quickstart_mining_config()
        # aggregate consumes any iterable, here a lazy stream of instances.
        instances = (
            (l1, l2, l_dt, l3, m1 * m2 * m_dt * m3)
            for e1, e2, e3 in extract_numerical(quickstart_bundle(), cfg.windows)
            for (l1, m1), (l2, m2), (l_dt, m_dt), (l3, m3) in product(
                classify(cfg.vocab_t1, e1.value), classify(cfg.vocab_t2, e2.value),
                classify(cfg.vocab_dt, e3.timestamp - e2.timestamp),
                classify(cfg.vocab_c, e3.value))
        )
        ruleset = aggregate(instances)
        assert len(ruleset) == 4
        assert ruleset.total_weight == pytest.approx(3.0, abs=1e-9)
        by_labels = {r.labels: r for r in ruleset}
        for labels, (weight, _, _) in QUICKSTART_RULES.items():
            assert by_labels[labels].weight == pytest.approx(weight, abs=1e-9)

    def test_identical_tuples_merge(self):
        instances = [("a", "b", "t", "c", 0.5),
                     ("a", "b", "t", "c", 0.5)]
        ruleset = aggregate(instances)
        assert len(ruleset) == 1
        assert ruleset.rules[0].weight == 1.0

    def test_empty_input(self):
        ruleset = aggregate([])
        assert len(ruleset) == 0
        assert ruleset.total_weight == 0.0
        assert ruleset.trigger_weights == {}

    def test_zero_weight_instances_are_skipped(self):
        # An underflowed degree product adds no rule, trigger pair or total,
        # so no metric divides by zero.
        instances = [("a", "b", "t", "c", 0.0),
                     ("x", "y", "t", "c", 0.5),
                     ("x", "y", "t", "d", 0.0)]
        ruleset = aggregate(instances)
        assert [r.labels for r in ruleset] == [("x", "y", "t", "c")]
        assert ruleset.total_weight == 0.5
        assert ruleset.trigger_weights == {("x", "y"): 0.5}
        assert aggregate(instances[:1]) == aggregate([])

    def test_ordering_descending_weight_then_lexicographic(self):
        instances = [("b", "b", "t", "c", 0.5),
                     ("a", "b", "t", "c", 0.5),
                     ("a", "a", "t", "c", 1.0)]
        ruleset = aggregate(instances)
        assert [r.labels for r in ruleset] == [
            ("a", "a", "t", "c"), ("a", "b", "t", "c"), ("b", "b", "t", "c")]

    @given(weights=st.lists(st.integers(1, 40).map(lambda k: k / 8), max_size=30),
           keys=st.integers(1, 4))
    def test_total_weight_is_plain_sum(self, weights, keys):
        instances = [
            (f"l{i % keys}", "x", "t", "y", w)
            for i, w in enumerate(weights)
        ]
        ruleset = aggregate(instances)
        assert ruleset.total_weight == pytest.approx(sum(weights), abs=1e-9)
        assert sum(r.weight for r in ruleset) == pytest.approx(sum(weights), abs=1e-9)

    @given(settings_pair=arbitrary_settings(max_events=6))
    @settings(max_examples=40)
    def test_trigger_weights_are_consistent(self, settings_pair):
        bundle, cfg = settings_pair
        ruleset = mine(bundle, cfg)
        for pair, total in ruleset.trigger_weights.items():
            rules = [r for r in ruleset if (r.l1, r.l2) == pair]
            assert sum(r.weight for r in rules) == pytest.approx(total, abs=1e-9)


class TestMetrics:
    def test_quickstart_support_and_confidence(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        by_labels = {r.labels: r for r in ruleset}
        for labels, (weight, sup, conf) in QUICKSTART_RULES.items():
            rule = by_labels[labels]
            assert rule.weight == pytest.approx(weight, abs=1e-9)
            assert rule.weight / ruleset.total_weight == pytest.approx(sup, abs=1e-9)
            assert (rule.weight / ruleset.trigger_weights[labels[:2]]
                    == pytest.approx(conf, abs=1e-9))
            assert rule.support == pytest.approx(sup, abs=1e-9)
            assert rule.confidence == pytest.approx(conf, abs=1e-9)

    def test_single_rule_set_self_normalizes(self):
        ruleset = aggregate([("a", "b", "t", "c", 0.25)])
        rule = ruleset.rules[0]
        assert rule.support == 1.0
        assert rule.confidence == 1.0


class TestApplyThresholds:
    def test_quickstart_min_support_filters_to_two_rules(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        pruned = apply_thresholds(ruleset, 0.3, 0.0)
        kept = {r.labels for r in pruned}
        assert kept == {
            ("Small Volume", "Medium Volume", "Long Time After", "Large Volume"),
            ("Medium Volume", "Small Volume", "Long Time After", "Medium Volume"),
        }

    def test_zero_thresholds_are_identity(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        assert apply_thresholds(ruleset, 0.0, 0.0) == ruleset

    def test_full_thresholds_empty_the_set(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        assert len(apply_thresholds(ruleset, 1.0, 1.0)) == 0

    def test_metrics_keep_pre_pruning_denominators(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        pruned = apply_thresholds(ruleset, 0.3, 0.0)
        assert pruned.total_weight == ruleset.total_weight
        assert pruned.trigger_weights == ruleset.trigger_weights
        rule = {r.labels: r for r in pruned}[
            ("Small Volume", "Medium Volume", "Long Time After", "Large Volume")]
        assert rule.support == pytest.approx(1 / 3, abs=1e-9)
        assert rule.confidence == pytest.approx(0.5, abs=1e-9)


class TestMine:
    def test_quickstart_end_to_end(self):
        ruleset = mine(quickstart_bundle(), quickstart_mining_config())
        assert len(ruleset) == 4
        assert {r.labels for r in ruleset} == set(QUICKSTART_RULES)

    def test_thresholds_flow_through_config(self):
        cfg = quickstart_mining_config(min_support=0.3)
        assert len(mine(quickstart_bundle(), cfg)) == 2

    def test_empty_bundle(self):
        bundle = StreamBundle(EventStream("a"), EventStream("b"), EventStream("c"))
        ruleset = mine(bundle, quickstart_mining_config())
        assert len(ruleset) == 0
        assert ruleset.total_weight == 0.0

    @given(settings_pair=arbitrary_settings(max_events=6))
    @settings(max_examples=40)
    def test_metric_invariants_at_zero_thresholds(self, settings_pair):
        bundle, cfg = settings_pair
        ruleset = mine(bundle, cfg)
        if not ruleset.rules:
            return
        assert sum(r.support for r in ruleset) == pytest.approx(1.0, abs=1e-9)
        for rule in ruleset:
            assert rule.confidence >= rule.support - 1e-9
        by_pair = {}
        for rule in ruleset:
            by_pair.setdefault((rule.l1, rule.l2), []).append(rule)
        for rules in by_pair.values():
            assert sum(r.confidence for r in rules) == pytest.approx(1.0, abs=1e-9)

    @given(case=st.one_of(arbitrary_settings(max_events=8),
                          ruspini_settings(max_events=8)))
    @example(case=BOUNDARY_TIES)
    @example(case=ZERO_WIDTH)
    @example(case=SUBNORMAL)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rule_table_equals_oracle_exactly(self, case):
        # The oracle adds the same products in the same order, so every
        # weight and metric must agree to the last bit, not within a tolerance.
        bundle, cfg = case
        found = {r.labels: (r.weight, r.support, r.confidence)
                 for r in mine(bundle, cfg)}
        assert found == brute_force_rule_table(bundle, cfg)


class TestConfigTypes:
    def test_window_config_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WindowConfig(0, 10)
        with pytest.raises(ValueError):
            WindowConfig(10, -1)
        with pytest.raises(ValueError):
            WindowConfig(float("inf"), 1)

    def test_mining_config_rejects_out_of_range_thresholds(self):
        with pytest.raises(ValueError):
            quickstart_mining_config(min_support=1.5)
        with pytest.raises(ValueError):
            quickstart_mining_config(min_confidence=-0.1)
