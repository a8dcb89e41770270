"""Acceptance suite: every exit criterion at its stated tolerance.

Each test is tagged with the criterion it checks; the conftest hook
prints one consolidated PASS/FAIL line per criterion after the run.
Golden values come from the quickstart example, property checks from
randomized inputs compared against the independent oracles.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from fuzzmine import (
    FuzzyInterval,
    MiningConfig,
    build_tree,
    mine,
    render_dot,
)
from fuzzmine.cli import main

from common import (
    QUICKSTART_CONFIG,
    QUICKSTART_CSV,
    QUICKSTART_RULES,
    degree,
    oracle_config,
    points,
    rendered,
)
from dot_grammar import check_dot
from oracle import brute_force_associations, brute_force_rule_table, crisp_rule_counts
from strategies import arbitrary_settings, crisp_settings, ruspini_settings

CSV = str(QUICKSTART_CSV)
CONFIG = str(QUICKSTART_CONFIG)

@pytest.mark.criterion(1, "golden extraction")
def test_golden_extraction_is_exact(quickstart_bundle):
    # One point label per value and per elapsed time that occurs: each
    # window triple then weighs exactly 1 in the rule that spells its readings.
    cfg = MiningConfig(10, 10, points("t1", (2, 7)), points("t2", (8, 2)),
                       points("dt", (4, 10)), points("c", (10.5, 15, 7)))
    ruleset = mine(quickstart_bundle, cfg)
    assert sorted((r[:4], r.weight) for r in ruleset.rules) == [
        (("2.0", "8.0", "10.0", "15.0"), 1.0),
        (("2.0", "8.0", "4.0", "10.5"), 1.0),
        (("7.0", "2.0", "10.0", "7.0"), 1.0),
    ]


@pytest.mark.criterion(2, "golden rule set")
def test_golden_rule_set(quickstart_bundle, quickstart_config):
    ruleset = mine(quickstart_bundle, quickstart_config.mining)
    assert len(ruleset.rules) == 4
    assert ruleset.total_weight == pytest.approx(3.0, abs=1e-9)
    by_labels = {r[:4]: r for r in ruleset.rules}
    for labels, (weight, support, confidence) in QUICKSTART_RULES.items():
        rule = by_labels.get(labels)
        assert rule is not None, labels
        assert rule.weight == pytest.approx(weight, abs=1e-9)
        assert rule.support == pytest.approx(support, abs=1e-9)
        assert rule.confidence == pytest.approx(confidence, abs=1e-9)


@pytest.mark.criterion(3, "membership spot-checks")
def test_membership_anchor_points():
    medium = FuzzyInterval("Medium Volume", 3, 6, 9, 12)
    large = FuzzyInterval("Large Volume", 9, 12, 15, 15)
    assert degree(medium, 10.5) == pytest.approx(0.5, abs=1e-12)
    assert degree(large, 10.5) == pytest.approx(0.5, abs=1e-12)
    generic = FuzzyInterval("Example", 2, 4, 6, 8)
    assert degree(generic, generic.a - 1) == 0.0
    assert degree(generic, generic.a + (generic.b - generic.a) / 2) == 0.5


@pytest.mark.criterion(4, "normalization properties")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=ruspini_settings(max_events=16))
def test_normalization_properties(case):
    bundle, cfg = case
    associations = brute_force_associations(bundle, cfg.trigger_window, cfg.consequence_window)
    ruleset = mine(bundle, cfg)
    assert ruleset.total_weight == pytest.approx(len(associations), abs=1e-9)
    if not ruleset.rules:
        return
    assert sum(r.support for r in ruleset.rules) == pytest.approx(1.0, abs=1e-9)
    by_pair = {}
    for rule in ruleset.rules:
        assert rule.confidence >= rule.support - 1e-9
        by_pair.setdefault((rule.l1, rule.l2), []).append(rule)
    for rules in by_pair.values():
        assert sum(r.confidence for r in rules) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.criterion(5, "oracle equivalence")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=arbitrary_settings(max_events=8))
def test_pipeline_matches_brute_force_oracle(case):
    bundle, cfg = case
    ruleset = mine(bundle, cfg)
    expected = brute_force_rule_table(bundle, oracle_config(cfg))
    assert {r[:4] for r in ruleset.rules} == set(expected)
    for rule in ruleset.rules:
        weight, support, confidence = expected[rule[:4]]
        assert rule.weight == pytest.approx(weight, abs=1e-9)
        assert rule.support == pytest.approx(support, abs=1e-9)
        assert rule.confidence == pytest.approx(confidence, abs=1e-9)


@pytest.mark.criterion(6, "crisp reduction")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=crisp_settings(max_events=8))
def test_crisp_vocabularies_reduce_to_counting(case):
    bundle, cfg = case
    ruleset = mine(bundle, cfg)
    expected = crisp_rule_counts(bundle, oracle_config(cfg))
    assert {r[:4] for r in ruleset.rules} == set(expected)
    for rule in ruleset.rules:
        count, support, confidence = expected[rule[:4]]
        assert rule.weight == float(count)
        assert rule.support == support
        assert rule.confidence == confidence


@pytest.mark.criterion(7, "tree integrity")
def test_golden_tree_shape_and_metrics(quickstart_bundle, quickstart_config):
    tree = build_tree(mine(quickstart_bundle, quickstart_config.mining))
    leaf_metrics = _collect_leaves(tree)
    assert len(leaf_metrics) == 4
    for labels, (_, support, confidence) in QUICKSTART_RULES.items():
        assert leaf_metrics[labels][0] == pytest.approx(support, abs=1e-9)
        assert leaf_metrics[labels][1] == pytest.approx(confidence, abs=1e-9)
    dot_text = rendered(render_dot, tree)
    node_count = sum("[label=" in line for line in dot_text.splitlines())
    edge_count = sum(" -> " in line for line in dot_text.splitlines())
    assert node_count == 12
    assert edge_count == 11
    assert check_dot(dot_text)


@pytest.mark.criterion(7, "tree integrity")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=arbitrary_settings(max_events=8))
def test_leaves_biject_with_rules_on_random_cases(case):
    bundle, cfg = case
    ruleset = mine(bundle, cfg)
    leaf_metrics = _collect_leaves(build_tree(ruleset))
    assert len(leaf_metrics) == len(ruleset.rules)
    for rule in ruleset.rules:
        assert leaf_metrics[rule[:4]] == (rule.support, rule.confidence)


@pytest.mark.criterion(8, "deterministic reports")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_repeated_cli_runs_are_byte_identical(fmt, tmp_path):
    reports = []
    for i in range(2):
        out = tmp_path / f"report-{fmt}-{i}"
        code = main(["mine", "--input", CSV, "--config", CONFIG,
                     "--format", fmt, "--tree", "ascii", "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    if fmt == "json":
        assert json.loads(reports[0])["total_weight"] == 3.0


def _collect_leaves(tree, prefix=()):
    """Map from label path to leaf metrics."""
    if "support" in tree:
        return {prefix + (tree["label"],): (tree["support"], tree["confidence"])}
    next_prefix = prefix if tree["level"] == "root" else prefix + (tree["label"],)
    found = {}
    for child in tree["children"]:
        found.update(_collect_leaves(child, next_prefix))
    return found
