"""Tests for the rule-tree view and its renderings."""

import re

import pyparsing
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmine import (
    FuzzyRule,
    RuleSet,
    mine,
    render_ascii,
    render_dot,
)

from common import (
    quickstart_bundle,
    quickstart_mining_config,
    reference_tree,
    rendered,
    reported_tree,
    ruleset_of,
)
from dot_grammar import check_dot

GOLDEN_ASCII = """\
(root)
  Small Volume
    Medium Volume
      Long Time After
        Large Volume [sup=0.3333, conf=0.5000]
      Short Time After
        Large Volume [sup=0.1667, conf=0.2500]
        Medium Volume [sup=0.1667, conf=0.2500]
  Medium Volume
    Small Volume
      Long Time After
        Medium Volume [sup=0.3333, conf=1.0000]
"""


def quickstart_ruleset():
    return mine(quickstart_bundle(), quickstart_mining_config())


def leaves(node):
    if "support" in node:
        return [node]
    found = []
    for child in node["children"]:
        found.extend(leaves(child))
    return found


def rule_paths(node, prefix=()):
    """(label path, (support, confidence)) pairs, one per leaf."""
    if "support" in node:
        yield prefix + (node["label"],), (node["support"], node["confidence"])
        return
    next_prefix = prefix if node["level"] == "root" else prefix + (node["label"],)
    for child in node["children"]:
        yield from rule_paths(child, next_prefix)


def preorder(node, depth=0):
    """(depth, label, leaf metrics as drawn or None) of every node of a
    reported tree, in pre-order; the root shows as ``(root)``."""
    metrics = (f"[sup={node['support']:.4f}, conf={node['confidence']:.4f}]"
               if "support" in node else None)
    yield depth, node["label"] if depth else "(root)", metrics
    for child in node["children"]:
        yield from preorder(child, depth + 1)


DOT_STRING = r'"((?:[^"\\]|\\.)*)"'
DOT_NODE = re.compile(rf"  {DOT_STRING} \[label={DOT_STRING}\];")
DOT_EDGE = re.compile(rf"  {DOT_STRING} -> {DOT_STRING};")


def dot_unescape(text):
    """A DOT string's characters, with its ``\\n`` line breaks as newlines."""
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text)


def assert_views_agree(ruleset):
    """The text and DOT trees of ``ruleset`` draw the (depth, label, leaf
    metrics) pre-order of the tree its JSON report embeds, and the DOT
    edges join each node to the nearest node above it one level up."""
    walk = list(preorder(reported_tree(ruleset)))
    assert rendered(render_ascii, ruleset) == "".join(
        "  " * depth + label + (f" {metrics}" if metrics else "") + "\n"
        for depth, label, metrics in walk)
    lines = rendered(render_dot, ruleset).splitlines()
    nodes = [node.groups() for node in map(DOT_NODE.fullmatch, lines) if node]
    assert [dot_unescape(shown) for _, shown in nodes] == [
        label if metrics is None else f"{label}\n{metrics}" for _, label, metrics in walk]
    above, edges = {}, []   # the latest node at each depth, and the edges that implies
    for (ident, _), (depth, _, _) in zip(nodes, walk):
        above[depth] = ident
        if depth:
            edges.append((above[depth - 1], ident))
    assert [edge.groups() for edge in map(DOT_EDGE.fullmatch, lines) if edge] == edges


def small_rulesets():
    label = st.sampled_from(["p", "q", "r"])
    instance = st.tuples(label, label, label, label,
                         st.integers(1, 16).map(lambda k: k / 4))
    return st.lists(instance, min_size=1, max_size=25).map(ruleset_of)


def hand_built_rulesets():
    """Rule sets drawn directly, as code may build them: rules in any order,
    repeated label paths and zero weights, with metrics and a total
    weight of their own."""
    label = st.sampled_from(["p", "q"])   # 16 label paths: repeats are common
    quarter = st.integers(0, 16).map(lambda k: k / 4)
    rules = st.lists(st.builds(FuzzyRule, label, label, label, label, quarter, quarter, quarter),
                     max_size=25)
    return rules.map(lambda rules: RuleSet(tuple(rules), 4.0 * len(rules)))


# Labels with the characters DOT and the node paths escape, sharing prefixes.
AWKWARD = ruleset_of([
    ('la "bel', "x/y", "t\\u", "c", 1.0),
    ("la ", '"bel', "x/y", "t\\u", 1.0),
    ("la ", '"bel', "x/y", "a\\nb/\\", 0.5),
])

# AWKWARD's DOT text, written by hand. An id joins the labels to "root"
# with slashes, each label with its backslashes and slashes escaped by a
# backslash; the whole id is then DOT-escaped, its backslashes doubled
# again and its double quotes escaped.
AWKWARD_DOT = r"""digraph rules {
  node [shape=box];
  "root" [label="(root)"];
  "root/la " [label="la "];
  "root/la /\"bel" [label="\"bel"];
  "root/la /\"bel/x\\/y" [label="x/y"];
  "root/la /\"bel/x\\/y/t\\\\u" [label="t\\u\n[sup=0.4000, conf=0.6667]"];
  "root/la /\"bel/x\\/y/a\\\\nb\\/\\\\" [label="a\\nb/\\\n[sup=0.2000, conf=0.3333]"];
  "root/la \"bel" [label="la \"bel"];
  "root/la \"bel/x\\/y" [label="x/y"];
  "root/la \"bel/x\\/y/t\\\\u" [label="t\\u"];
  "root/la \"bel/x\\/y/t\\\\u/c" [label="c\n[sup=0.4000, conf=1.0000]"];
  "root" -> "root/la ";
  "root/la " -> "root/la /\"bel";
  "root/la /\"bel" -> "root/la /\"bel/x\\/y";
  "root/la /\"bel/x\\/y" -> "root/la /\"bel/x\\/y/t\\\\u";
  "root/la /\"bel/x\\/y" -> "root/la /\"bel/x\\/y/a\\\\nb\\/\\\\";
  "root" -> "root/la \"bel";
  "root/la \"bel" -> "root/la \"bel/x\\/y";
  "root/la \"bel/x\\/y" -> "root/la \"bel/x\\/y/t\\\\u";
  "root/la \"bel/x\\/y/t\\\\u" -> "root/la \"bel/x\\/y/t\\\\u/c";
}
"""


class TestBuildTree:
    def test_quickstart_structure(self):
        tree = reported_tree(quickstart_ruleset())
        assert tree["level"] == "root" and tree["label"] == ""
        assert [c["label"] for c in tree["children"]] == ["Small Volume", "Medium Volume"]
        small_medium = tree["children"][0]["children"][0]
        assert small_medium["label"] == "Medium Volume"
        assert [c["label"] for c in small_medium["children"]] == [
            "Long Time After", "Short Time After"]
        assert len(leaves(tree)) == 4

    def test_heavier_branches_come_first(self):
        tree = reported_tree(quickstart_ruleset())
        # (Small, Medium, *) carries weight 2.0 vs 1.0 for (Medium, Small, *).
        assert tree["children"][0]["label"] == "Small Volume"

    def test_leaf_metrics(self):
        tree = reported_tree(quickstart_ruleset())
        by_path = dict(rule_paths(tree))
        sup, conf = by_path[("Medium Volume", "Small Volume",
                             "Long Time After", "Medium Volume")]
        assert sup == pytest.approx(1 / 3, abs=1e-9)
        assert conf == pytest.approx(1.0, abs=1e-9)

    def test_one_leaf_for_repeated_labels_carries_the_first_rules_metrics(self):
        # A rule set built in code may repeat a label path. Its leaf is the
        # first such rule's in rule-set order, not the heavier one's.
        labels = ("p", "q", "r", "s")
        ruleset = RuleSet((FuzzyRule(*labels, 1.0, 0.25, 0.5),
                           FuzzyRule(*labels, 2.0, 0.5, 1.0)), 4.0)
        tree = reported_tree(ruleset)
        assert leaves(tree) == [{"level": "consequence", "label": "s", "children": [],
                                 "support": 0.25, "confidence": 0.5}]
        assert list(rule_paths(tree)) == [(labels, (0.25, 0.5))]
        assert tree == reference_tree(ruleset)

    def test_empty_ruleset_gives_bare_root(self):
        tree = reported_tree(ruleset_of([]))
        assert tree["level"] == "root"
        assert tree["children"] == []
        assert "support" not in tree and "confidence" not in tree

    def test_single_rule_is_a_path_of_depth_four(self):
        tree = reported_tree(ruleset_of([("a", "b", "t", "c", 1.0)]))
        levels = []
        node = tree
        while True:
            levels.append(node["level"])
            if not node["children"]:
                break
            assert len(node["children"]) == 1
            node = node["children"][0]
        assert levels == ["root", "trigger1", "trigger2", "delta_t", "consequence"]
        assert (node["support"], node["confidence"]) == (1.0, 1.0)

    @given(ruleset=small_rulesets())
    def test_leaves_biject_with_rules(self, ruleset):
        tree = reported_tree(ruleset)
        found = {path: metrics for path, metrics in rule_paths(tree)}
        assert len(found) == len(ruleset.rules)
        for rule in ruleset.rules:
            assert found[rule[:4]] == (rule.support, rule.confidence)

    @given(ruleset=small_rulesets())
    def test_leaf_supports_sum_like_rule_supports(self, ruleset):
        tree = reported_tree(ruleset)
        leaf_sum = sum(metrics[0] for _, metrics in rule_paths(tree))
        rule_sum = sum(rule.support for rule in ruleset.rules)
        assert leaf_sum == pytest.approx(rule_sum, abs=1e-9)

    @given(ruleset=small_rulesets())
    def test_trigger1_children_match_distinct_labels(self, ruleset):
        tree = reported_tree(ruleset)
        assert len(tree["children"]) == len({rule.l1 for rule in ruleset.rules})


class TestRenderAscii:
    def test_quickstart_render(self):
        assert rendered(render_ascii, quickstart_ruleset()) == GOLDEN_ASCII

    def test_contains_full_confidence_leaf(self):
        text = rendered(render_ascii, quickstart_ruleset())
        assert "Medium Volume [sup=0.3333, conf=1.0000]" in text

    def test_empty_tree(self):
        assert rendered(render_ascii, ruleset_of([])) == "(root)\n"

    @given(rulesets=st.lists(small_rulesets(), min_size=2, max_size=6))
    def test_distinct_trees_render_distinctly(self, rulesets):
        trees = [reference_tree(rs) for rs in rulesets]
        renders = [rendered(render_ascii, rs) for rs in rulesets]
        for i, tree_a in enumerate(trees):
            for j, tree_b in enumerate(trees):
                if tree_a != tree_b:
                    assert renders[i] != renders[j]


class TestRenderDot:
    def test_quickstart_counts(self):
        text = rendered(render_dot, quickstart_ruleset())
        node_lines = [l for l in text.splitlines() if "[label=" in l]
        edge_lines = [l for l in text.splitlines() if " -> " in l]
        assert len(node_lines) == 12
        assert len(edge_lines) == 11

    def test_quickstart_passes_grammar_check(self):
        assert check_dot(rendered(render_dot, quickstart_ruleset()))

    def test_empty_tree_is_one_node_no_edges(self):
        text = rendered(render_dot, ruleset_of([]))
        assert check_dot(text)
        assert len([l for l in text.splitlines() if "[label=" in l]) == 1
        assert " -> " not in text

    def test_output_is_byte_deterministic(self):
        ruleset = quickstart_ruleset()
        assert rendered(render_dot, ruleset) == rendered(render_dot, ruleset)

    def test_leaf_labels_carry_metrics(self):
        text = rendered(render_dot, quickstart_ruleset())
        assert "[sup=0.3333, conf=1.0000]" in text

    def test_awkward_labels_stay_valid_and_distinct(self):
        text = rendered(render_dot, AWKWARD)
        assert check_dot(text)
        ids = [l.split(" [label=")[0].strip()
               for l in text.splitlines() if "[label=" in l]
        assert len(ids) == len(set(ids))

    def test_awkward_labels_give_the_escaped_ids(self):
        assert rendered(render_dot, AWKWARD) == AWKWARD_DOT

    def test_awkward_labels_draw_the_reported_tree(self):
        assert_views_agree(AWKWARD)

    @given(ruleset=small_rulesets())
    def test_random_trees_always_parse(self, ruleset):
        assert check_dot(rendered(render_dot, ruleset))

    def test_grammar_checker_rejects_garbage(self):
        for bad in ('digraph { a -> }', 'digraph { "x" -> "y" ',
                    'digraph { a [label=] }', 'nonsense { }'):
            with pytest.raises(pyparsing.ParseBaseException):
                check_dot(bad)


class TestStructuredTree:
    """The tree a JSON report embeds is the reference tree, and the text
    trees draw it node for node."""

    def test_round_trip_is_byte_identical(self):
        assert_views_agree(quickstart_ruleset())

    def test_round_trip_restores_equal_tree(self):
        ruleset = quickstart_ruleset()
        assert reported_tree(ruleset) == reference_tree(ruleset)

    def test_empty_tree_shape(self):
        tree = reported_tree(ruleset_of([]))
        assert tree == {"level": "root", "label": "", "children": []}

    def test_metrics_keep_full_precision(self):
        ruleset = ruleset_of([("a", "b", "t", "c", 0.1),
                             ("a", "b", "t", "d", 0.2)])
        path_metrics = dict(rule_paths(reported_tree(ruleset)))
        for rule in ruleset.rules:
            assert path_metrics[rule[:4]] == (rule.support, rule.confidence)

    @given(ruleset=small_rulesets() | hand_built_rulesets())
    def test_round_trip_on_random_trees(self, ruleset):
        assert reported_tree(ruleset) == reference_tree(ruleset)

    @given(ruleset=small_rulesets() | hand_built_rulesets())
    def test_text_trees_draw_the_reported_tree(self, ruleset):
        assert_views_agree(ruleset)
