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
first and the layout is reproducible on every Python version. Each
renderer draws the tree straight from the rule set, one level at a time
as it descends, with no entry per rule. In the JSON report every node
is an object with ``level``, ``label`` and a ``children`` list, and
leaves (consequence-level nodes) add ``support`` and ``confidence``.
The root has level ``root`` and an empty label.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii as _string

LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")

_COLUMNS = (*LEVELS[1:], "weight", "support", "confidence")

# json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_PIECE = 1 << 16   # characters of report text per write, at least


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
        yield from _node(0, "", ruleset.rules, "  ")
    yield "\n}\n"


def _node(depth, label, rules, pad):
    """The text of the tree node at ``depth``, not a leaf, with ``rules``
    below it and its closing brace indented by ``pad``."""
    inner = pad + "  "
    nested, leaf = inner + "  ", inner + "    "
    yield f'{{\n{inner}"children": ['
    separator = "\n" + nested
    for child, (_, below) in _ordered(rules, depth):
        if depth == len(LEVELS) - 2:   # a leaf, which has no children, and its first rule
            yield (f'{separator}{{\n{leaf}"children": [],\n'
                   f'{leaf}"confidence": {_number(below[0].confidence)},\n'
                   f'{leaf}"label": {_string(child)},\n'
                   f'{leaf}"level": "{LEVELS[-1]}",\n'
                   f'{leaf}"support": {_number(below[0].support)}\n{nested}}}')
        else:
            yield separator
            yield from _node(depth + 1, child, below, nested)
        separator = ",\n" + nested
    yield (f"\n{inner}]" if rules else "]") + (
        f',\n{inner}"label": {_string(label)},\n'
        f'{inner}"level": "{LEVELS[depth]}"\n{pad}}}')


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
    (0 for trigger-1) as ``{label: [weight, rules below it in rule order]}``.
    A weight adds its rules' weights left to right from 0.0: ``sum()``
    compensates on Python 3.12+."""
    groups = {}
    for rule in rules:
        group = groups.get(rule[depth])
        if group is None:
            group = groups[rule[depth]] = [0.0, []]
        group[0] += rule[4]
        group[1].append(rule)
    return groups


def _ordered(rules, depth):
    """The groups of ``rules`` at ``depth``, heaviest first, then by label."""
    return sorted(build_tree(rules, depth).items(), key=lambda item: (-item[1][0], item[0]))


def render_ascii(ruleset, write):
    """Pass ``write`` the tree as indented text, one node per line.

    Leaves are suffixed with their metrics to four decimal places, e.g.
    ``Medium Volume [sup=0.3333, conf=1.0000]``.
    """
    nodes = ("  " * depth + _text(label, rule, str, " ") + "\n"
             for depth, label, _, _, rule in _walk(ruleset.rules))
    _write(chain(["(root)\n"], nodes), write)


def render_dot(ruleset, write):
    """Pass ``write`` the tree as a DOT digraph.

    Node identifiers are the root-to-node label paths (with separator
    escaping, so they stay unique whatever the labels contain), which
    makes the output stable across runs. Leaves show their metrics on a
    second label line.
    """
    nodes = ('  "%s" [label="%s"];\n' % (_dot_escape(path), _text(label, rule, _dot_escape, r"\n"))
             for _, label, path, _, rule in _walk(ruleset.rules))
    edges = ('  "%s" -> "%s";\n' % (_dot_escape(parent), _dot_escape(path))
             for _, _, path, parent, _ in _walk(ruleset.rules))
    _write(chain(['digraph rules {\n  node [shape=box];\n  "root" [label="(root)"];\n'],
                 nodes, edges, ["}\n"]), write)


def _walk(rules, depth=1, parent="root"):
    """Every node of the tree of ``rules`` below the node at ``depth - 1``,
    in pre-order, as (depth, label, DOT path, parent's DOT path, the leaf's
    first rule or None). A path joins the labels from the root, each with
    its backslashes and slashes escaped."""
    leaf = depth == len(LEVELS) - 1
    for label, (_, below) in _ordered(rules, depth - 1):
        path = parent + "/" + label.replace("\\", "\\\\").replace("/", "\\/")
        yield depth, label, path, parent, below[0] if leaf else None
        if not leaf:
            yield from _walk(below, depth + 1, path)


def _text(label, rule, escape, separator):
    """What a node below the root shows: its escaped label, and for a leaf
    ``separator`` and its rule's metrics."""
    if rule is None:
        return escape(label)
    return f"{escape(label)}{separator}[sup={rule.support:.4f}, conf={rule.confidence:.4f}]"


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
