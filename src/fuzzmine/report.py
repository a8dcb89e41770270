"""Rule-set reports: the JSON document and the plain-text table.

Both renderings are deterministic: identical rule sets produce
byte-identical output. The JSON document keeps full float precision;
the table rounds to 6 significant digits for reading.
"""

import json

_COLUMNS = ("trigger1", "trigger2", "delta_t", "consequence",
            "weight", "support", "confidence")


def render_json(ruleset, tree=None):
    """The JSON report: rules, total weight and, if given, the tree
    document of :func:`fuzzmine.tree.build_tree`."""
    report = {
        "rules": [
            {
                "trigger1": rule.l1,
                "trigger2": rule.l2,
                "delta_t": rule.l_dt,
                "consequence": rule.l3,
                "weight": rule.weight,
                "support": rule.support,
                "confidence": rule.confidence,
            }
            for rule in ruleset
        ],
        "total_weight": ruleset.total_weight,
    }
    if tree is not None:
        report["tree"] = tree
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_table(ruleset):
    """Fixed-width table of rule tuples and their metrics."""
    rows = [
        (rule.l1, rule.l2, rule.l_dt, rule.l3,
         f"{rule.weight:.6g}", f"{rule.support:.6g}", f"{rule.confidence:.6g}")
        for rule in ruleset
    ]
    widths = [
        max(len(_COLUMNS[i]), *(len(row[i]) for row in rows)) if rows
        else len(_COLUMNS[i])
        for i in range(len(_COLUMNS))
    ]
    lines = [
        "  ".join(name.ljust(width) for name, width in zip(_COLUMNS, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
    lines.append("")
    lines.append(f"{len(ruleset)} rules, total weight {ruleset.total_weight:.6g}")
    return "\n".join(lines) + "\n"
