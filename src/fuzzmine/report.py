"""Rule-set reports: the JSON document and the plain-text table.

Both renderings are deterministic: identical rule sets produce
byte-identical output. The JSON document keeps full float precision;
the table rounds to 6 significant digits for reading.
"""

from json.encoder import encode_basestring_ascii as _string

_COLUMNS = ("trigger1", "trigger2", "delta_t", "consequence",
            "weight", "support", "confidence")

# json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render_json(ruleset, tree=None):
    """The JSON report: rules, total weight and, if given, the tree.

    ``tree`` must be the document of :func:`fuzzmine.tree.build_tree`;
    its nodes are written by that schema. The bytes are those the
    :mod:`json` encoder writes with a 2-space indent and sorted keys,
    plus a final newline. They are written here directly because the
    encoder's fast C path does not indent.
    """
    rules = ",\n".join(
        "    {\n"
        f'      "confidence": {_number(rule.confidence)},\n'
        f'      "consequence": {_string(rule.l3)},\n'
        f'      "delta_t": {_string(rule.l_dt)},\n'
        f'      "support": {_number(rule.support)},\n'
        f'      "trigger1": {_string(rule.l1)},\n'
        f'      "trigger2": {_string(rule.l2)},\n'
        f'      "weight": {_number(rule.weight)}\n'
        "    }"
        for rule in ruleset)
    listing = f"[\n{rules}\n  ]" if rules else "[]"
    tail = "" if tree is None else f',\n  "tree": {_node(tree, "  ")}'
    return (f'{{\n  "rules": {listing},\n'
            f'  "total_weight": {_number(ruleset.total_weight)}{tail}\n}}\n')


def _node(node, pad):
    """One tree node whose closing brace is indented by ``pad``."""
    inner, nested = pad + "  ", pad + "    "
    children = "[]"
    if node["children"]:
        children = ("[\n" + nested
                    + (",\n" + nested).join(_node(child, nested)
                                            for child in node["children"])
                    + "\n" + inner + "]")
    fields = [f'"children": {children}']
    if "support" in node:
        fields.append(f'"confidence": {_number(node["confidence"])}')
    fields.append(f'"label": {_string(node["label"])}')
    fields.append(f'"level": {_string(node["level"])}')
    if "support" in node:
        fields.append(f'"support": {_number(node["support"])}')
    return "{\n" + inner + (",\n" + inner).join(fields) + "\n" + pad + "}"


def _number(value):
    text = repr(value)
    return _NON_FINITE.get(text, text)


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
