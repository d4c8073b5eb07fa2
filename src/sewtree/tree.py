"""Assembly trees as label maps, their text form, and their depth-1
subtrees as rule texts.

Trees are unary/binary: a binary node joins two disjoint components, a unary
node is one self-attachment of its child, and leaves are single pieces with a
zero counter.  Labels are unique within a valid tree, so a tree is the pair
``(root, children_of)``: its root label's text and a map from each internal
label's text to its children's; a label without an entry is a leaf.
Serialization uses bracket notation, e.g. ``(ABC_1 (AB_1 (AB A B)) C)``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .labels import LabelError, label_facts, label_pieces, node_violations


class TreeError(ValueError):
    """A serialized tree could not be parsed or violates tree constraints."""


def rule_text(parent: str, children: Iterable[str]) -> str:
    """The text of the depth-1 subtree, or rule, of ``parent`` over
    ``children``, as a grammar file writes it: ``AB -> A B``."""
    return f"{parent} -> {' '.join(children)}"


def subtrees_of(tree: tuple[str, Mapping[str, tuple[str, ...]]]):
    """Yield the :func:`rule_text` of every internal label of ``tree``, a
    ``(root, children_of)`` pair: parent first, children left to right."""
    root, children_of = tree
    stack = [root]
    while stack:
        label = stack.pop()
        kids = children_of.get(label)
        if kids:
            yield rule_text(label, kids)
            stack.extend(reversed(kids))


def bracket(label: str, kid_texts: Iterable[str]) -> str:
    """The bracket text of a node labelled ``label`` over its children's
    texts: ``(AB A B)``."""
    return f"({label} {' '.join(kid_texts)})"


def canonical_serialize(root: str, children_of: Mapping[str, tuple[str, ...]]) -> str:
    """The canonical serialization of the tree ``(root, children_of)``;
    equal trees have equal serializations.  Iterative, and each token is
    written once, so the time is linear in the text however deep the tree.
    The stack holds label texts and the ``")"`` and ``" "`` between them,
    which are never labels."""
    parts: list[str] = []
    stack = [root]
    while stack:
        item = stack.pop()
        if item in children_of:
            parts.append(f"({item}")
            stack.append(")")
            for kid in reversed(children_of[item]):
                stack += (kid, " ")
        else:
            parts.append(item)
    return "".join(parts)


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _parse_label(token: str) -> str:
    try:
        label_pieces(token)
    except LabelError as exc:
        raise TreeError(str(exc)) from exc
    return token


def _violations(nodes: list[tuple[str, list[str]]]) -> list[str]:
    """Every broken constraint of a tree given as its ``(label, kids)``
    nodes in pre-order, node by node, then each repeated label."""
    out: list[str] = []
    seen: dict[str, int] = {}
    facts = label_facts(label for label, _ in nodes)
    for label, kids in nodes:
        problems = node_violations(facts[label], [facts[kid] for kid in kids])
        out.extend(f"{label}: {kind}: {detail}" for kind, detail in problems)
        seen[label] = seen.get(label, 0) + 1
    out.extend(f"{label}: unique-labels: label occurs {n} times" for label, n in seen.items() if n > 1)
    return out


def parse_serialized(text: str) -> tuple[str, dict[str, tuple[str, ...]]]:
    """Parse bracket notation into a validated ``(root, children_of)`` pair
    of label texts.  Iterative, so a tree of any depth parses."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    # Every node in pre-order, as its label and the children parsed so far,
    # and the indices of the open brackets' nodes, outermost first.
    nodes: list[tuple[str, list[str]]] = []
    open_nodes: list[int] = []
    pos = 0
    while True:
        if pos == len(tokens):
            raise TreeError("missing ')'")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos == len(tokens) or tokens[pos] in "()":
                raise TreeError("expected node label after '('")
            open_nodes.append(len(nodes))
            nodes.append((_parse_label(tokens[pos]), []))
            pos += 1
            continue
        if tok == ")":
            if not open_nodes:
                raise TreeError("unexpected ')'")
            label, children = nodes[open_nodes.pop()]
            if not children:
                raise TreeError(f"bracketed node {label} has no children")
        else:
            label = _parse_label(tok)
            nodes.append((label, []))
        if not open_nodes:
            break
        nodes[open_nodes[-1]][1].append(label)
    if pos != len(tokens):
        raise TreeError(f"trailing input after tree: {tokens[pos]!r}")
    violations = _violations(nodes)
    if violations:
        raise TreeError("; ".join(violations))
    return nodes[0][0], {label: tuple(kids) for label, kids in nodes if kids}
