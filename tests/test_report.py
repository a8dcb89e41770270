"""Tests for report rendering: table layout and JSON document."""

import json

from fuzzmine import (
    aggregate,
    build_tree,
    mine,
    render_json,
    render_table,
    ruleset_to_report,
    tree_to_structured,
)

from common import quickstart_bundle, quickstart_mining_config


def quickstart_ruleset():
    return mine(quickstart_bundle(), quickstart_mining_config())


class TestReportDocument:
    def test_rule_entries_carry_all_fields(self):
        report = ruleset_to_report(quickstart_ruleset())
        assert set(report) == {"rules", "total_weight"}
        for entry in report["rules"]:
            assert set(entry) == {"trigger1", "trigger2", "delta_t", "consequence",
                                  "weight", "support", "confidence"}

    def test_tree_is_attached_when_given(self):
        ruleset = quickstart_ruleset()
        doc = tree_to_structured(build_tree(ruleset))
        report = ruleset_to_report(ruleset, doc)
        assert report["tree"] == doc

    def test_json_keeps_full_precision(self):
        report = ruleset_to_report(quickstart_ruleset())
        parsed = json.loads(render_json(report))
        originals = {(r["trigger1"], r["trigger2"], r["delta_t"], r["consequence"]):
                     r["support"] for r in report["rules"]}
        for entry in parsed["rules"]:
            key = (entry["trigger1"], entry["trigger2"], entry["delta_t"],
                   entry["consequence"])
            assert entry["support"] == originals[key]

    def test_json_rendering_is_deterministic(self):
        report = ruleset_to_report(quickstart_ruleset())
        assert render_json(report) == render_json(report)


class TestTableRendering:
    def test_six_significant_digits(self):
        text = render_table(quickstart_ruleset())
        assert "0.166667" in text
        assert "0.333333" in text

    def test_summary_line(self):
        text = render_table(quickstart_ruleset())
        assert text.rstrip().endswith("4 rules, total weight 3")

    def test_empty_rule_set_renders_header_only(self):
        text = render_table(aggregate([]))
        lines = text.splitlines()
        assert lines[0].startswith("trigger1")
        assert "0 rules, total weight 0" in text

    def test_columns_align_to_longest_cell(self):
        ruleset = aggregate([
            ("a-very-long-label", "b", "t", "c", 1.0),
            ("x", "y", "t", "c", 1.0),
        ])
        header, separator, first, *_ = render_table(ruleset).splitlines()
        assert len(separator.split("  ")[0]) == len("a-very-long-label")
