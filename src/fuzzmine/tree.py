"""Decision-tree view of a rule set, for human consumption.

Rules become root-to-leaf paths in a fixed four-level hierarchy
(trigger-1 label, trigger-2 label, elapsed-time label, consequence
label). Rules sharing a label prefix share the internal nodes of that
prefix, and each leaf carries its rule's support and confidence. At
every level children are ordered by descending subtree weight with
lexicographic tie-break, so the strongest branches come first and the
layout is reproducible.

The tree is a plain JSON document, the one the JSON report embeds:
every node is a dict with ``level``, ``label`` and a ``children`` list,
and leaves (consequence-level nodes) add ``support`` and ``confidence``.
The root has level ``root`` and an empty label.
"""

LEVELS = ("root", "trigger1", "trigger2", "delta_t", "consequence")


def build_tree(ruleset):
    """Arrange a rule set as a prefix-merged tree document.

    An empty rule set yields a bare root. Otherwise every rule maps to
    exactly one leaf, reachable by following its four labels from the
    root.
    """
    return _subtree(0, "", list(ruleset))


def _subtree(depth, label, rules):
    node = {"level": LEVELS[depth], "label": label, "children": []}
    if depth == len(LEVELS) - 1:
        node["support"], node["confidence"] = rules[0].support, rules[0].confidence
        return node
    groups = {}
    for rule in rules:
        groups.setdefault(rule.labels[depth], []).append(rule)
    ordered = sorted(groups, key=lambda lab: (-sum(r.weight for r in groups[lab]), lab))
    node["children"] = [_subtree(depth + 1, lab, groups[lab]) for lab in ordered]
    return node


def render_ascii(tree):
    """Render the tree as indented text, one node per line.

    Leaves are suffixed with their metrics to four decimal places, e.g.
    ``Medium Volume [sup=0.3333, conf=1.0000]``.
    """
    lines = []
    _ascii_lines(tree, 0, lines)
    return "\n".join(lines) + "\n"


def _ascii_lines(node, depth, lines):
    if depth == 0:
        text = "(root)"
    elif "support" in node:
        text = f"{node['label']} {_metrics(node)}"
    else:
        text = node["label"]
    lines.append("  " * depth + text)
    for child in node["children"]:
        _ascii_lines(child, depth + 1, lines)


def render_dot(tree):
    """Render the tree as a DOT digraph.

    Node identifiers are the root-to-node label paths (with separator
    escaping, so they stay unique whatever the labels contain), which
    makes the output stable across runs. Leaves show their metrics on a
    second label line.
    """
    node_lines = []
    edge_lines = []
    _dot_walk(tree, "root", node_lines, edge_lines)
    return "\n".join(
        ["digraph rules {", "  node [shape=box];"]
        + node_lines + edge_lines + ["}"]
    ) + "\n"


def _dot_walk(node, path, node_lines, edge_lines):
    if node["level"] == "root":
        display = _dot_quote("(root)")
    elif "support" in node:
        # \n inside a DOT label string is a line break when drawn.
        display = '"' + _dot_escape(node["label"]) + "\\n" + _metrics(node) + '"'
    else:
        display = _dot_quote(node["label"])
    node_lines.append(f"  {_dot_quote(path)} [label={display}];")
    for child in node["children"]:
        child_path = path + "/" + child["label"].replace("\\", "\\\\").replace("/", "\\/")
        edge_lines.append(f"  {_dot_quote(path)} -> {_dot_quote(child_path)};")
        _dot_walk(child, child_path, node_lines, edge_lines)


def _metrics(leaf):
    return f"[sup={leaf['support']:.4f}, conf={leaf['confidence']:.4f}]"


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text):
    return '"' + _dot_escape(text) + '"'
