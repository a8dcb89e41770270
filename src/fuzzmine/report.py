"""Rule-set reports, each passed to a function ``write`` in order, in strings
of about 64 KiB, so that none is held whole: the JSON report, the
plain-text table and the decision-tree view, as indented text or DOT.

Every rendering is deterministic: identical rule sets produce
byte-identical output. The JSON report keeps full float precision;
the table rounds to 6 significant digits for reading.

The tree arranges rules as root-to-leaf paths in a fixed four-level
hierarchy (trigger-1 label, trigger-2 label, elapsed-time label,
consequence label). Rules sharing a label prefix share the internal
nodes of that prefix, and each leaf carries its rule's support and
confidence. At every level children are ordered by descending subtree
weight with lexicographic tie-break, so the strongest branches come
first and the layout is reproducible on every Python version. One
pre-order walk feeds the JSON, text and DOT trees: it draws the tree from
the rule set, one ordered level at a time, with no entry per rule. In the
JSON report every node is an object with ``level``, ``label`` and a
``children`` list, and leaves (consequence-level nodes) add ``support``
and ``confidence``. The root has level ``root`` and an empty label.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii as _string

LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")

_COLUMNS = (*LEVELS[1:], "weight", "support", "confidence")

# json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_PIECE = 1 << 16   # characters of report text per write, at least

# The indents of a JSON tree node's braces and of its fields, by depth.
_PADS = [("  " + "    " * depth, "    " + "    " * depth) for depth in range(len(LEVELS))]


def render_json(ruleset, tree, write):
    """Pass ``write`` the JSON report: rules, total weight and, if ``tree``
    is true, the tree.

    The bytes are those the :mod:`json` encoder
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
    if tree:
        yield ',\n  "tree": '
        yield from _tree(ruleset.rules)
    yield "\n}\n"


def _tree(rules):
    """The JSON text of the tree of ``rules``, from ``_walk``'s pre-order.
    ``closes`` holds the closing text of each open inner node below the root."""
    yield '{\n    "children": ['
    closes, comma = [], ""   # no comma before a node's first child
    for depth, label, rule in _walk(rules):
        while len(closes) >= depth:   # the previous sibling's subtree ends
            yield closes.pop()
        pad, inner = _PADS[depth]
        if rule is None:
            closes.append(f'\n{inner}],\n{inner}"label": {_string(label)},\n'
                          f'{inner}"level": "{LEVELS[depth]}"\n{pad}}}')
            yield f'{comma}\n{pad}{{\n{inner}"children": ['
        else:
            yield (f'{comma}\n{pad}{{\n{inner}"children": [],\n'
                   f'{inner}"confidence": {_number(rule.confidence)},\n'
                   f'{inner}"label": {_string(label)},\n'
                   f'{inner}"level": "{LEVELS[depth]}",\n'
                   f'{inner}"support": {_number(rule.support)}\n{pad}}}')
        comma = "" if rule is None else ","
    yield "".join(reversed(closes)) + ("\n    ]" if rules else "]")
    yield ',\n    "label": "",\n    "level": "root"\n  }'


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


def build_tree(rules, depth):
    """One level of the tree: ``rules`` grouped by their label at ``depth``
    (0 for trigger-1) as ``(label, [weight, rules below it in rule order])``
    pairs, heaviest first, then by label. A weight adds its rules' weights
    left to right from 0.0: ``sum()`` compensates on Python 3.12+."""
    groups = {}
    for rule in rules:
        group = groups.get(rule[depth])
        if group is None:
            group = groups[rule[depth]] = [0.0, []]
        group[0] += rule[4]
        group[1].append(rule)
    return sorted(groups.items(), key=lambda item: (-item[1][0], item[0]))


def render_ascii(ruleset, write):
    """Pass ``write`` the tree as indented text, one node per line.

    Leaves are suffixed with their metrics to four decimal places, e.g.
    ``Medium Volume [sup=0.3333, conf=1.0000]``.
    """
    nodes = ("  " * depth + _text(label, rule, str, " ") + "\n"
             for depth, label, rule in _walk(ruleset.rules))
    _write(chain(["(root)\n"], nodes), write)


def render_dot(ruleset, write):
    """Pass ``write`` the tree as a DOT digraph.

    Node identifiers are the root-to-node label paths, escaped so that they
    stay unique whatever the labels contain and the output is stable across
    runs. Leaves show their metrics on a second label line.
    """
    _write(chain(['digraph rules {\n  node [shape=box];\n  "root" [label="(root)"];\n'],
                 _dot_lines(ruleset.rules, False), _dot_lines(ruleset.rules, True), ["}\n"]),
           write)


def _dot_lines(rules, edges):
    """The DOT line of each node ``_walk`` yields or, if ``edges``, of the edge from
    its parent. A node's id is its parent's, a slash and its label with backslashes
    and slashes escaped, all DOT-escaped."""
    ids = ["root"] * len(LEVELS)   # the id of the latest node at each depth
    for depth, label, rule in _walk(rules):
        path = label.replace("\\", "\\\\").replace("/", "\\/")
        ids[depth] = ids[depth - 1] + "/" + _dot_escape(path)
        yield ('  "%s" -> "%s";\n' % (ids[depth - 1], ids[depth]) if edges else
               '  "%s" [label="%s"];\n' % (ids[depth], _text(label, rule, _dot_escape, r"\n")))


def _walk(rules, depth=1):
    """Every node of the tree of ``rules`` below the node at ``depth - 1``, in the
    pre-order all three trees are drawn in, as (depth, label, leaf's first rule or None)."""
    leaf = depth == len(LEVELS) - 1
    for label, (_, below) in build_tree(rules, depth - 1):
        yield depth, label, below[0] if leaf else None
        if not leaf:
            yield from _walk(below, depth + 1)


def _text(label, rule, escape, separator):
    """What a node below the root shows: its escaped label, and for a leaf
    ``separator`` and its rule's metrics."""
    if rule is None:
        return escape(label)
    return f"{escape(label)}{separator}[sup={rule.support:.4f}, conf={rule.confidence:.4f}]"


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
