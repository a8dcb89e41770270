"""Rule-set reports: the JSON document (passed to ``write`` in pieces), the
plain-text table and the decision-tree view, as indented text or DOT.

Every rendering is deterministic: identical rule sets produce
byte-identical output. The JSON document keeps full float precision;
the table rounds to 6 significant digits for reading.

The tree arranges rules as root-to-leaf paths in a fixed four-level
hierarchy (trigger-1 label, trigger-2 label, elapsed-time label,
consequence label). Rules sharing a label prefix share the internal
nodes of that prefix, and each leaf carries its rule's support and
confidence. At every level children are ordered by descending subtree
weight with lexicographic tie-break, so the strongest branches come
first and the layout is reproducible on every Python version. The tree
is a plain JSON document, the one the JSON report embeds: every node is
a dict with ``level``, ``label`` and a ``children`` list, and leaves
(consequence-level nodes) add ``support`` and ``confidence``. The root
has level ``root`` and an empty label.
"""

from functools import reduce
from json.encoder import encode_basestring_ascii as _string
from operator import add

LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")

_COLUMNS = ("trigger1", "trigger2", "delta_t", "consequence",
            "weight", "support", "confidence")

# json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_PIECE = 1 << 16   # characters of report text (ASCII, so bytes) per write


def render_json(ruleset, tree, write):
    """Pass the JSON report to ``write`` in order, in strings of about
    64 KiB: rules, total weight and, unless ``tree`` is None, the tree.

    ``tree`` must be the document of :func:`build_tree`; its nodes are
    written by that schema. The bytes are those the :mod:`json` encoder
    writes with a 2-space indent and sorted keys, plus a final newline.
    They are written here directly because the encoder's fast C path
    does not indent.
    """
    out = ['{\n  "rules": [']
    separator, size = "\n", 0
    for l1, l2, l_dt, l3, weight, support, confidence in ruleset.rules:
        out.append(f"{separator}    {{\n"
                   f'      "confidence": {_number(confidence)},\n'
                   f'      "consequence": {_string(l3)},\n'
                   f'      "delta_t": {_string(l_dt)},\n'
                   f'      "support": {_number(support)},\n'
                   f'      "trigger1": {_string(l1)},\n'
                   f'      "trigger2": {_string(l2)},\n'
                   f'      "weight": {_number(weight)}\n'
                   "    }")
        separator = ",\n"
        size += len(out[-1])
        if size >= _PIECE:
            write("".join(out))
            out.clear()
            size = 0
    out.append("\n  ]" if ruleset.rules else "]")
    out.append(f',\n  "total_weight": {_number(ruleset.total_weight)}')
    if tree is not None:
        out.append(',\n  "tree": ')
        _node(tree, "  ", out, write, size)
    out.append("\n}\n")
    write("".join(out))


def _node(node, pad, out, write, size):
    """Append to ``out`` the pieces of one tree node whose closing brace is
    indented by ``pad``. ``size`` counts ``out``'s leaf and rule text, which
    goes to ``write`` between children once it reaches ``_PIECE``; returns it."""
    inner = pad + "  "
    if "support" in node:   # a leaf, which has no children
        out.append(f'{{\n{inner}"children": [],\n'
                   f'{inner}"confidence": {_number(node["confidence"])},\n'
                   f'{inner}"label": {_string(node["label"])},\n'
                   f'{inner}"level": {_string(node["level"])},\n'
                   f'{inner}"support": {_number(node["support"])}\n{pad}}}')
        return size + len(out[-1])
    out.append(f'{{\n{inner}"children": [')
    nested = inner + "  "
    separator = "\n" + nested
    for child in node["children"]:
        out.append(separator)
        size = _node(child, nested, out, write, size)
        separator = ",\n" + nested
        if size >= _PIECE:
            write("".join(out))
            out.clear()
            size = 0
    out.append(f"\n{inner}]" if node["children"] else "]")
    out.append(f',\n{inner}"label": {_string(node["label"])},\n'
               f'{inner}"level": {_string(node["level"])}\n{pad}}}')
    return size


def _number(value):
    text = repr(value)
    return _NON_FINITE.get(text, text)


def render_table(ruleset):
    """Fixed-width table of rule tuples and their metrics."""
    # A rule's four labels, then its weight, support and confidence to 6 digits.
    rows = [_COLUMNS, *(rule[:4] + tuple(f"{v:.6g}" for v in rule[4:]) for rule in ruleset.rules)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    lines.append(f"\n{len(ruleset.rules)} rules, total weight {ruleset.total_weight:.6g}")
    return "\n".join(lines) + "\n"


def build_tree(ruleset):
    """Arrange a rule set as a prefix-merged tree document.

    An empty rule set yields a bare root. Otherwise every rule maps to
    exactly one leaf, reachable by following its four labels from the
    root.
    """
    return _subtree(0, "", ruleset.rules)


def _subtree(depth, label, rules):
    groups = {}
    for rule in rules:
        groups.setdefault(rule[depth], []).append(rule)   # the rule's label at depth
    # Weights (rule[4]) add left to right: sum() compensates on Python 3.12+.
    ordered = sorted(groups.items(), key=lambda item: (-reduce(add, [r[4] for r in item[1]], 0.0),
                                                       item[0]))
    if depth == len(LEVELS) - 2:   # leaves, each with its group's first rule's metrics
        children = [{"level": LEVELS[-1], "label": lab, "children": [],
                     "support": group[0].support, "confidence": group[0].confidence}
                    for lab, group in ordered]
    else:
        children = [_subtree(depth + 1, lab, group) for lab, group in ordered]
    return {"level": LEVELS[depth], "label": label, "children": children}


def render_ascii(tree):
    """Render the tree as indented text, one node per line.

    Leaves are suffixed with their metrics to four decimal places, e.g.
    ``Medium Volume [sup=0.3333, conf=1.0000]``.
    """
    return "".join(["  " * depth + _text(node, depth, str, " ") + "\n"
                    for node, depth, _, _ in _walk(tree)])


def render_dot(tree):
    """Render the tree as a DOT digraph.

    Node identifiers are the root-to-node label paths (with separator
    escaping, so they stay unique whatever the labels contain), which
    makes the output stable across runs. Leaves show their metrics on a
    second label line.
    """
    nodes, edges = [], []
    for node, depth, path, parent in _walk(tree):
        text = _text(node, depth, _dot_escape, "\\n")   # a line break when drawn
        nodes.append(f'  "{_dot_escape(path)}" [label="{text}"];')
        if parent is not None:
            edges.append(f'  "{_dot_escape(parent)}" -> "{_dot_escape(path)}";')
    return "\n".join(["digraph rules {", "  node [shape=box];", *nodes, *edges, "}"]) + "\n"


def _walk(tree):
    """Every node of ``tree`` in pre-order, as (node, depth, DOT path,
    parent's DOT path or None). A path joins the labels from the root,
    each with its backslashes and slashes escaped."""
    order = []

    def visit(node, depth, path, parent):
        order.append((node, depth, path, parent))
        for child in node["children"]:
            visit(child, depth + 1,
                  path + "/" + child["label"].replace("\\", "\\\\").replace("/", "\\/"), path)

    visit(tree, 0, "root", None)
    return order


def _text(node, depth, escape, separator):
    """What a node shows: ``(root)``, its escaped label, or for a leaf the
    label, ``separator`` and its metrics."""
    text = "(root)" if depth == 0 else escape(node["label"])
    if "support" in node:
        text += f"{separator}[sup={node['support']:.4f}, conf={node['confidence']:.4f}]"
    return text


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
