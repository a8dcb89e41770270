"""Tests for report rendering: table layout and JSON document."""

import json

from fuzzmine import (
    build_tree,
    mine,
    render_json,
    render_table,
)

from common import quickstart_bundle, quickstart_mining_config, ruleset_of


def quickstart_ruleset():
    return mine(quickstart_bundle(), quickstart_mining_config())


class TestReportDocument:
    def test_rule_entries_carry_all_fields(self):
        report = json.loads(render_json(quickstart_ruleset()))
        assert set(report) == {"rules", "total_weight"}
        for entry in report["rules"]:
            assert set(entry) == {"trigger1", "trigger2", "delta_t", "consequence",
                                  "weight", "support", "confidence"}

    def test_tree_is_attached_when_given(self):
        ruleset = quickstart_ruleset()
        tree = build_tree(ruleset)
        report = json.loads(render_json(ruleset, tree))
        assert report["tree"] == tree

    def test_json_keeps_full_precision(self):
        ruleset = quickstart_ruleset()
        parsed = json.loads(render_json(ruleset))
        originals = {rule.labels: rule.support for rule in ruleset}
        assert len(parsed["rules"]) == len(originals)
        for entry in parsed["rules"]:
            key = (entry["trigger1"], entry["trigger2"], entry["delta_t"],
                   entry["consequence"])
            assert entry["support"] == originals[key]
        assert parsed["total_weight"] == ruleset.total_weight

    def test_json_rendering_is_deterministic(self):
        ruleset = quickstart_ruleset()
        tree = build_tree(ruleset)
        assert render_json(ruleset, tree) == render_json(ruleset, tree)


class TestTableRendering:
    def test_six_significant_digits(self):
        text = render_table(quickstart_ruleset())
        assert "0.166667" in text
        assert "0.333333" in text

    def test_summary_line(self):
        text = render_table(quickstart_ruleset())
        assert text.rstrip().endswith("4 rules, total weight 3")

    def test_empty_rule_set_renders_header_only(self):
        text = render_table(ruleset_of([]))
        lines = text.splitlines()
        assert lines[0].startswith("trigger1")
        assert "0 rules, total weight 0" in text

    def test_columns_align_to_longest_cell(self):
        ruleset = ruleset_of([
            ("a-very-long-label", "b", "t", "c", 1.0),
            ("x", "y", "t", "c", 1.0),
        ])
        header, separator, first, *_ = render_table(ruleset).splitlines()
        assert len(separator.split("  ")[0]) == len("a-very-long-label")
