"""Correctness gate for the reports the benchmark collects.

Every check returns a list of problems; an empty list passes. Numbers
are compared at the acceptance tests' tolerance of 1e-9: absolute for
quantities of order one (sums of supports and confidences, oracle
metrics), relative for derived ratios and for totals that grow with the
input, where an absolute 1e-9 would be below float rounding.
"""

import json
import math
import re

TOL = 1e-9


def rel_close(a, b):
    return math.isclose(a, b, rel_tol=TOL, abs_tol=0.0)


def abs_close(a, b):
    return abs(a - b) <= TOL


def check_report(doc, triples=None):
    """Internal consistency of a JSON report.

    Supports sum to 1 and confidences sum to 1 within each trigger pair;
    each rule's support and confidence are its weight over the total and
    over its trigger pair's weight; the weights add up to the total. With
    ``triples`` (Ruspini vocabularies) the total must equal that count.
    """
    rules = doc["rules"]
    total = doc["total_weight"]
    problems = []
    if triples is not None and not rel_close(total, triples):
        problems.append(f"total_weight {total!r} != triple count {triples}")
    if not rules:
        return problems
    if not rel_close(math.fsum(r["weight"] for r in rules), total):
        problems.append("rule weights do not add up to total_weight")
    if not abs_close(math.fsum(r["support"] for r in rules), 1.0):
        problems.append("supports do not sum to 1")
    pairs = {}
    for r in rules:
        pairs.setdefault((r["trigger1"], r["trigger2"]), []).append(r)
    for pair, members in pairs.items():
        pair_weight = math.fsum(r["weight"] for r in members)
        if not abs_close(math.fsum(r["confidence"] for r in members), 1.0):
            problems.append(f"confidences of trigger pair {pair} do not sum to 1")
        for r in members:
            if not rel_close(r["support"], r["weight"] / total):
                problems.append(f"support of {_labels(r)} is not weight/total")
            if not rel_close(r["confidence"], r["weight"] / pair_weight):
                problems.append(f"confidence of {_labels(r)} is not weight/pair weight")
    return problems[:10]


def check_oracle(doc, expected):
    """Agreement with ``brute_force_rule_table`` on the same input."""
    got = {_labels(r): (r["weight"], r["support"], r["confidence"])
           for r in doc["rules"]}
    if set(got) != set(expected):
        return [f"rule sets differ: {len(set(got) ^ set(expected))} tuples "
                "in only one of program and oracle"]
    return [f"{key} differs from the oracle: {got[key]} vs {expected[key]}"
            for key in sorted(got)
            if not all(map(abs_close, got[key], expected[key]))][:10]


def check_table(text, doc):
    """The table report agrees with the JSON report of the same input.

    The table rounds to 6 significant digits, so each cell must equal the
    JSON value printed that way; the labels must match exactly.
    """
    lines = text.rstrip("\n").split("\n")
    rows = [re.split(r" {2,}", line) for line in lines[2:-2]]
    expected = [[r["trigger1"], r["trigger2"], r["delta_t"], r["consequence"],
                 f"{r['weight']:.6g}", f"{r['support']:.6g}", f"{r['confidence']:.6g}"]
                for r in doc["rules"]]
    footer = f"{len(doc['rules'])} rules, total weight {doc['total_weight']:.6g}"
    problems = []
    if rows != expected:
        problems.append("table rows differ from the JSON report")
    if lines[-1] != footer:
        problems.append(f"table footer {lines[-1]!r} != {footer!r}")
    return problems


def check_repeat(out, reference):
    """A repeated run must reproduce the reference report byte for byte."""
    return [] if out == reference else ["report differs from the first run"]


def check_empty(text, fmt):
    """A header-only input yields an empty rule set."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except ValueError:
            return ["report is not valid JSON"]
        ok = doc.get("rules") == [] and doc.get("total_weight") == 0
    else:
        ok = text.rstrip("\n").split("\n")[-1] == "0 rules, total weight 0"
    return [] if ok else ["header-only input did not give an empty report"]


def _labels(rule):
    return (rule["trigger1"], rule["trigger2"], rule["delta_t"], rule["consequence"])


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.failures)
