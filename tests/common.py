"""Shared fixture data: the quickstart example in code and on disk, streams
built from event pairs, hand-made rule sets for the renderers, the config
shape the oracle reads, and the rule tree the JSON report must embed."""

import importlib.util
import json
import sys
from functools import reduce
from operator import add
from pathlib import Path
from types import SimpleNamespace

from fuzzmine import (
    EventStream,
    FuzzyInterval,
    FuzzyRule,
    MiningConfig,
    RuleSet,
    StreamBundle,
    Vocabulary,
    classify,
    render_json,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
QUICKSTART_CSV = REPO_ROOT / "quickstart" / "streams.csv"
QUICKSTART_CONFIG = REPO_ROOT / "quickstart" / "config.json"

# The quickstart rule set, keyed by label tuple:
# (trigger1, trigger2, delta_t, consequence) -> (weight, support, confidence)
QUICKSTART_RULES = {
    ("Small Volume", "Medium Volume", "Short Time After", "Medium Volume"):
        (0.5, 1 / 6, 0.25),
    ("Small Volume", "Medium Volume", "Short Time After", "Large Volume"):
        (0.5, 1 / 6, 0.25),
    ("Small Volume", "Medium Volume", "Long Time After", "Large Volume"):
        (1.0, 1 / 3, 0.5),
    ("Medium Volume", "Small Volume", "Long Time After", "Medium Volume"):
        (1.0, 1 / 3, 1.0),
}


def volume_vocab(name="volume"):
    return Vocabulary(name, (
        FuzzyInterval("Small Volume", 0, 0, 3, 6),
        FuzzyInterval("Medium Volume", 3, 6, 9, 12),
        FuzzyInterval("Large Volume", 9, 12, 15, 15),
    ))


def timing_vocab(name="timing"):
    return Vocabulary(name, (
        FuzzyInterval("Immediately After", 0, 0, 1, 3),
        FuzzyInterval("Short Time After", 1, 3, 5, 7),
        FuzzyInterval("Long Time After", 5, 7, 10, 10),
    ))


def degree(interval, x):
    """The degree of ``x`` in ``interval`` alone, as classify gives it:
    0.0 where classify lists no label."""
    return dict(classify(Vocabulary("one", (interval,)), x)).get(interval.label, 0.0)


def stream(name, pairs=()):
    """An EventStream of (timestamp, value) pairs, given in any order."""
    return EventStream(name, *zip(*pairs))


def quickstart_bundle():
    """The quickstart streams, built in code (independent of the CSV)."""
    return StreamBundle(
        trigger1=stream("stream1", [(0, 2), (1000, 7)]),
        trigger2=stream("stream2", [(3, 8), (1003, 2)]),
        consequence=stream("stream3", [(7, 10.5), (13, 15), (1013, 7)]),
    )


def quickstart_mining_config(min_support=0.0, min_confidence=0.0):
    return MiningConfig(
        trigger_window=10,
        consequence_window=10,
        vocab_t1=volume_vocab("trigger1"),
        vocab_t2=volume_vocab("trigger2"),
        vocab_dt=timing_vocab("delta_t"),
        vocab_c=volume_vocab("consequence"),
        min_support=min_support,
        min_confidence=min_confidence,
    )


def oracle_config(cfg):
    """A MiningConfig as ``tests/oracle.py`` reads it: plain attributes with
    the windows nested, as ``perfbench/run.py`` ``oracle_inputs`` builds it."""
    return SimpleNamespace(
        windows=SimpleNamespace(trigger_window=cfg.trigger_window,
                                consequence_window=cfg.consequence_window),
        vocab_t1=cfg.vocab_t1, vocab_t2=cfg.vocab_t2,
        vocab_dt=cfg.vocab_dt, vocab_c=cfg.vocab_c)


def points(name, values):
    """One label per distinct value, named by its repr, with degree 1 there
    and 0 everywhere else: mining with these spells out each triple."""
    return Vocabulary(name, tuple(FuzzyInterval(repr(float(v)), v, v, v, v)
                                  for v in sorted(set(values))))


def ruleset_of(rows):
    """A hand-made RuleSet from (l1, l2, l_dt, l3, weight) rows.

    Rows sharing a label tuple merge into one rule; rules are scored and
    ordered as mine() does (descending weight, then label tuple). For
    tree and report fixtures that need no streams behind them.
    """
    weights, pairs = {}, {}
    for *labels, weight in rows:
        key = tuple(labels)
        weights[key] = weights.get(key, 0.0) + weight
        pairs[key[:2]] = pairs.get(key[:2], 0.0) + weight
    total = sum(weights.values())
    rules = tuple(
        FuzzyRule(*key, weight=w, support=w / total, confidence=w / pairs[key[:2]])
        for key, w in sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    )
    return RuleSet(rules=rules, total_weight=total)


def rendered(render, *args):
    """A report as one string: the pieces ``render(*args, write)`` passes
    to ``write``, joined."""
    pieces = []
    assert render(*args, pieces.append) is None
    return "".join(pieces)


def json_report(ruleset, tree=False):
    """The JSON report as one string, with the tree if ``tree``."""
    return rendered(render_json, ruleset, tree)


def reported_tree(ruleset):
    """The tree as a reader of the JSON report gets it back."""
    return json.loads(json_report(ruleset, True))["tree"]


TREE_LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")


def reference_tree(ruleset):
    """The rule tree as the JSON report must embed it, built apart from the
    renderers: one dict per node, with ``level``, ``label`` and ``children``,
    and at a leaf its label path's first rule's ``support`` and
    ``confidence``. At every level children go by descending weight (their
    rules' weights added left to right from 0.0), then by label."""
    return _subtree(0, "", ruleset.rules)


def _subtree(depth, label, rules):
    groups = {}
    for rule in rules:
        groups.setdefault(rule[depth], []).append(rule)   # the rule's label at depth
    ordered = sorted(groups.items(), key=lambda item: (-reduce(add, [r[4] for r in item[1]], 0.0),
                                                       item[0]))
    if depth == len(TREE_LEVELS) - 2:   # leaves, each with its group's first rule's metrics
        children = [{"level": TREE_LEVELS[-1], "label": lab, "children": [],
                     "support": group[0].support, "confidence": group[0].confidence}
                    for lab, group in ordered]
    else:
        children = [_subtree(depth + 1, lab, group) for lab, group in ordered]
    return {"level": TREE_LEVELS[depth], "label": label, "children": children}


def load_workloads():
    """``perfbench/workloads.py`` as a module, no ``__pycache__`` written."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def write_workload(root, name, seed):
    """Write the CSV and config of the benchmark workload ``name`` at
    ``seed`` into the directory ``root``; returns their paths as strings."""
    workloads = load_workloads()
    spec = workloads.SPECS[name]
    csv_path, config_path = root / f"{name}-{seed}.csv", root / f"{name}.json"
    workloads.write_csv(csv_path, workloads.generate(spec, seed), spec.layout)
    workloads.write_config(config_path, spec)
    return str(csv_path), str(config_path)
