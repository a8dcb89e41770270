"""Tests for report rendering: table layout, JSON report, and the pieces
every renderer passes to ``write``."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzmine import (
    FuzzyRule,
    RuleSet,
    load_config,
    mine,
    parse_streams_csv,
    render_ascii,
    render_dot,
    render_json,
    render_table,
)

from common import (
    json_report,
    quickstart_bundle,
    quickstart_mining_config,
    reference_tree,
    rendered,
    ruleset_of,
    write_workload,
)

PIECE = 64 * 1024   # the size of the pieces each renderer passes to ``write``


def quickstart_ruleset():
    return mine(quickstart_bundle(), quickstart_mining_config())


class TestReportDocument:
    def test_rule_entries_carry_all_fields(self):
        report = json.loads(json_report(quickstart_ruleset()))
        assert set(report) == {"rules", "total_weight"}
        for entry in report["rules"]:
            assert set(entry) == {"trigger1", "trigger2", "delta_t", "consequence",
                                  "weight", "support", "confidence"}

    def test_tree_is_attached_when_given(self):
        ruleset = quickstart_ruleset()
        report = json.loads(json_report(ruleset, True))
        assert report["tree"] == reference_tree(ruleset)

    def test_json_keeps_full_precision(self):
        ruleset = quickstart_ruleset()
        parsed = json.loads(json_report(ruleset))
        originals = {rule[:4]: rule.support for rule in ruleset.rules}
        assert len(parsed["rules"]) == len(originals)
        for entry in parsed["rules"]:
            key = (entry["trigger1"], entry["trigger2"], entry["delta_t"],
                   entry["consequence"])
            assert entry["support"] == originals[key]
        assert parsed["total_weight"] == ruleset.total_weight

    def test_json_rendering_is_deterministic(self):
        ruleset = quickstart_ruleset()
        assert json_report(ruleset, True) == json_report(ruleset, True)

    def test_empty_rule_set_bytes(self):
        ruleset = RuleSet(rules=(), total_weight=0.0, trigger_weights={})
        assert json_report(ruleset) == (
            '{\n'
            '  "rules": [],\n'
            '  "total_weight": 0.0\n'
            '}\n')
        assert json_report(ruleset, True) == (
            '{\n'
            '  "rules": [],\n'
            '  "total_weight": 0.0,\n'
            '  "tree": {\n'
            '    "children": [],\n'
            '    "label": "",\n'
            '    "level": "root"\n'
            '  }\n'
            '}\n')


@pytest.fixture(scope="module")
def wide_vocab_ruleset(tmp_path_factory):
    """The rule set of the ``wide-vocab`` benchmark workload at seed 1:
    6,445 rules, a 3.3 MB report with its tree."""
    csv_path, config_path = write_workload(tmp_path_factory.mktemp("wide-vocab"),
                                           "wide-vocab", 1)
    cfg = load_config(config_path)
    streams = parse_streams_csv(Path(csv_path).read_text(encoding="utf-8"), cfg.roles)
    return mine(streams, cfg.mining)


# Each report of a rule set, as its renderer and the arguments before ``write``:
# the JSON report without and with its tree, the table, and each text tree.
REPORTS = {
    "rules": lambda ruleset: (render_json, ruleset, False),
    "tree": lambda ruleset: (render_json, ruleset, True),
    "table": lambda ruleset: (render_table, ruleset),
    "ascii": lambda ruleset: (render_ascii, ruleset),
    "dot": lambda ruleset: (render_dot, ruleset),
}
EVERY_REPORT = pytest.mark.parametrize("report", REPORTS)


def streamed(report, ruleset):
    """The pieces the renderer of ``report`` passes to ``write``."""
    render, *args = REPORTS[report](ruleset)
    pieces = []
    assert render(*args, pieces.append) is None
    return pieces


class TestStreamedReport:
    @EVERY_REPORT
    def test_large_report_arrives_in_pieces_of_about_64_kib(self, wide_vocab_ruleset, report):
        pieces = streamed(report, wide_vocab_ruleset)
        assert len(pieces) > 1
        assert all(PIECE <= len(piece) <= 2 * PIECE for piece in pieces[:-1])
        assert len(pieces[-1]) <= 2 * PIECE

    @EVERY_REPORT
    def test_small_report_is_one_piece(self, report):
        assert len(streamed(report, quickstart_ruleset())) == 1

    @EVERY_REPORT
    def test_empty_rule_set_is_one_piece(self, report):
        ruleset = RuleSet(rules=(), total_weight=0.0, trigger_weights={})
        assert len(streamed(report, ruleset)) == 1


def dumped_report(ruleset, tree):
    """The JSON report as json.dumps writes it, the reference render_json
    must match byte for byte."""
    report = {
        "rules": [
            {"trigger1": rule.l1, "trigger2": rule.l2, "delta_t": rule.l_dt,
             "consequence": rule.l3, "weight": rule.weight,
             "support": rule.support, "confidence": rule.confidence}
            for rule in ruleset.rules
        ],
        "total_weight": ruleset.total_weight,
    }
    if tree is not None:
        report["tree"] = tree
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Characters JSON must escape or may pass through, astral ones and lone
# surrogates among them, mixed with arbitrary code points.
LABELS = st.text(st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\x85", "\xa0",
                     "é", "\u2028", "\U0001d11e", "\ud800", "\udfff"]),
    st.characters(categories=["Cs"]),
    st.characters()), max_size=4)
# A few labels per dimension, so rules share tree prefixes.
SHARED_LABELS = st.lists(LABELS, min_size=1, max_size=3)
METRICS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, float("nan"),
                     float("inf"), float("-inf")]),
    st.floats())


@st.composite
def rulesets(draw):
    l1, l2, l_dt, l3 = (draw(SHARED_LABELS) for _ in range(4))
    rules = draw(st.lists(st.builds(
        FuzzyRule, st.sampled_from(l1), st.sampled_from(l2), st.sampled_from(l_dt),
        st.sampled_from(l3), METRICS, METRICS, METRICS), max_size=6))
    return RuleSet(rules=tuple(rules), total_weight=draw(METRICS), trigger_weights={})


class TestReportBytes:
    @settings(max_examples=150, deadline=2000)
    @given(ruleset=rulesets())
    # The shapes the JSON tree's stack of closing texts must close: one rule,
    # after whose leaf four nodes close; rules apart at trigger-1, between
    # whose leaves three inner nodes close; and rules apart only at the
    # consequence, sibling leaves with nothing closed between them.
    @example(ruleset=ruleset_of([("a", "b", "t", "c", 1.0)]))
    @example(ruleset=ruleset_of([("a", "b", "t", "c", 2.0), ("x", "b", "t", "c", 1.0)]))
    @example(ruleset=ruleset_of([("a", "b", "t", "c", 2.0), ("a", "b", "t", "x", 1.0)]))
    def test_render_json_matches_json_dumps(self, ruleset):
        assert json_report(ruleset) == dumped_report(ruleset, None)
        assert json_report(ruleset, True) == dumped_report(ruleset, reference_tree(ruleset))


class TestTableRendering:
    def test_six_significant_digits(self):
        text = rendered(render_table, quickstart_ruleset())
        assert "0.166667" in text
        assert "0.333333" in text

    def test_summary_line(self):
        text = rendered(render_table, quickstart_ruleset())
        assert text.rstrip().endswith("4 rules, total weight 3")

    def test_empty_rule_set_renders_header_only(self):
        text = rendered(render_table, ruleset_of([]))
        lines = text.splitlines()
        assert lines[0].startswith("trigger1")
        assert "0 rules, total weight 0" in text

    def test_columns_align_to_longest_cell(self):
        ruleset = ruleset_of([
            ("a-very-long-label", "b", "t", "c", 1.0),
            ("x", "y", "t", "c", 1.0),
        ])
        header, separator, first, *_ = rendered(render_table, ruleset).splitlines()
        assert len(separator.split("  ")[0]) == len("a-very-long-label")
