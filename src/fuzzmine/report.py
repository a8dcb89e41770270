"""Rule-set reports, each passed to a function ``write`` in order, in strings
of about 64 KiB, so that none is held whole: the JSON document, the
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
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import add

LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")

_COLUMNS = ("trigger1", "trigger2", "delta_t", "consequence",
            "weight", "support", "confidence")

# json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_PIECE = 1 << 16   # characters of report text per write, at least


def render_json(ruleset, tree, write):
    """Pass ``write`` the JSON report: rules, total weight and, unless
    ``tree`` is None, the tree.

    ``tree`` must be the document of :func:`build_tree`; its nodes are
    written by that schema. The bytes are those the :mod:`json` encoder
    writes with a 2-space indent and sorted keys, plus a final newline.
    They are written here directly because the encoder's fast C path
    does not indent.
    """
    _write(_json(ruleset, tree), write)


def _json(ruleset, tree):
    yield '{\n  "rules": ['
    separator = "\n"
    for l1, l2, l_dt, l3, weight, support, confidence in ruleset.rules:
        yield (f"{separator}    {{\n"
               f'      "confidence": {_number(confidence)},\n'
               f'      "consequence": {_string(l3)},\n'
               f'      "delta_t": {_string(l_dt)},\n'
               f'      "support": {_number(support)},\n'
               f'      "trigger1": {_string(l1)},\n'
               f'      "trigger2": {_string(l2)},\n'
               f'      "weight": {_number(weight)}\n'
               "    }")
        separator = ",\n"
    yield "\n  ]" if ruleset.rules else "]"
    yield f',\n  "total_weight": {_number(ruleset.total_weight)}'
    if tree is not None:
        yield ',\n  "tree": '
        yield from _node(tree, "  ")
    yield "\n}\n"


def _node(node, pad):
    """The text of a tree node, not a leaf, whose closing brace is indented by ``pad``."""
    inner = pad + "  "
    nested, leaf = inner + "  ", inner + "    "
    yield f'{{\n{inner}"children": ['
    separator = "\n" + nested
    for child in node["children"]:
        if "support" in child:   # a leaf, which has no children
            yield (f'{separator}{{\n{leaf}"children": [],\n'
                   f'{leaf}"confidence": {_number(child["confidence"])},\n'
                   f'{leaf}"label": {_string(child["label"])},\n'
                   f'{leaf}"level": {_string(child["level"])},\n'
                   f'{leaf}"support": {_number(child["support"])}\n{nested}}}')
        else:
            yield separator
            yield from _node(child, nested)
        separator = ",\n" + nested
    yield (f"\n{inner}]" if node["children"] else "]") + (
        f',\n{inner}"label": {_string(node["label"])},\n'
        f'{inner}"level": {_string(node["level"])}\n{pad}}}')


def _write(texts, write):
    """Pass the strings ``texts`` yields to ``write``, joined into pieces of
    at least ``_PIECE`` characters but the last, which may be shorter."""
    out, size = [], 0
    for text in texts:
        if size >= _PIECE:
            write("".join(out))
            out, size = [], 0
        out.append(text)
        size += len(text)
    write("".join(out))


def _number(value):
    text = repr(value)
    return _NON_FINITE.get(text, text)


def render_table(ruleset, write):
    """Pass ``write`` a fixed-width table of rule tuples and their metrics."""
    # A column's name, then each rule's label, or its metric to 6 digits.
    columns = [[name, *(rule[k] if k < 4 else f"{rule[k]:.6g}" for rule in ruleset.rules)]
               for k, name in enumerate(_COLUMNS)]
    widths = [max(map(len, column)) for column in columns]
    # Cells padded to their column's width, but the last, a metric's digits.
    rows = map(("  ".join(f"%-{width}s" for width in widths[:-1]) + "  %s\n").__mod__,
               zip(*columns))
    _write(chain([next(rows), "  ".join("-" * width for width in widths) + "\n"], rows,
                 [f"\n{len(ruleset.rules)} rules, total weight {ruleset.total_weight:.6g}\n"]),
           write)


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


def render_ascii(tree, write):
    """Pass ``write`` the tree as indented text, one node per line.

    Leaves are suffixed with their metrics to four decimal places, e.g.
    ``Medium Volume [sup=0.3333, conf=1.0000]``.
    """
    _write(("  " * depth + _text(node, depth, str, " ") + "\n"
            for node, depth, _, _ in _walk(tree)), write)


def render_dot(tree, write):
    """Pass ``write`` the tree as a DOT digraph.

    Node identifiers are the root-to-node label paths (with separator
    escaping, so they stay unique whatever the labels contain), which
    makes the output stable across runs. Leaves show their metrics on a
    second label line.
    """
    order = list(_walk(tree))
    nodes = ('  "%s" [label="%s"];\n' % (_dot_escape(path), _text(node, depth, _dot_escape, r"\n"))
             for node, depth, path, _ in order)
    edges = ('  "%s" -> "%s";\n' % (_dot_escape(parent), _dot_escape(path))
             for _, _, path, parent in order[1:])   # every node but the root has a parent
    _write(chain(["digraph rules {\n  node [shape=box];\n"], nodes, edges, ["}\n"]), write)


def _walk(node, depth=0, path="root", parent=None):
    """Every node of the tree ``node`` in pre-order, as (node, depth, DOT
    path, parent's DOT path or None). A path joins the labels from the
    root, each with its backslashes and slashes escaped."""
    yield node, depth, path, parent
    for child in node["children"]:
        label = child["label"].replace("\\", "\\\\").replace("/", "\\/")
        yield from _walk(child, depth + 1, f"{path}/{label}", path)


def _text(node, depth, escape, separator):
    """What a node shows: ``(root)``, its escaped label, or for a leaf the
    label, ``separator`` and its metrics."""
    text = "(root)" if depth == 0 else escape(node["label"])
    if "support" in node:
        text += f"{separator}[sup={node['support']:.4f}, conf={node['confidence']:.4f}]"
    return text


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
