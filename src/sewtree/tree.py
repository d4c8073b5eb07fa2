"""Assembly trees as label maps, their text form, and depth-1 subtrees.

Trees are unary/binary: a binary node joins two disjoint components, a unary
node is one self-attachment of its child, and leaves are single pieces with a
zero counter.  Labels are unique within a valid tree, so a tree is the pair
``(root, children_of)``: its root label and a map from each internal label
to its children's labels; a label without an entry is a leaf.
Serialization uses bracket notation, e.g. ``(ABC_1 (AB_1 (AB A B)) C)``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .labels import (
    LabelError,
    NodeLabel,
    _Frozen,
    node_violations,
    parse_node_label,
)


class TreeError(ValueError):
    """A serialized tree could not be parsed or violates tree constraints."""


class DepthOneSubtree(_Frozen):
    """A parent label together with its immediate children's labels.
    Hashed once, from its labels' hashes, like the labels themselves."""

    __slots__ = ("parent", "children", "_hash")

    def __init__(self, parent: NodeLabel, children: tuple[NodeLabel, ...]) -> None:
        set_slot = object.__setattr__
        set_slot(self, "parent", parent)
        set_slot(self, "children", children)
        set_slot(self, "_hash", hash((parent._hash, *[c._hash for c in children])))

    def __reduce__(self):
        return self.__class__, (self.parent, self.children)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.parent == other.parent and self.children == other.children
        return NotImplemented

    def __str__(self) -> str:
        kids = " ".join(str(c) for c in self.children)
        return f"{self.parent} -> {kids}"

    def __repr__(self) -> str:
        return f"DepthOneSubtree(parent={self.parent!r}, children={self.children!r})"


def subtrees_of(tree: tuple[NodeLabel, Mapping[NodeLabel, tuple[NodeLabel, ...]]]):
    """Yield the depth-1 subtree of every internal label of ``tree``, a
    ``(root, children_of)`` pair: parent first, children left to right."""
    root, children_of = tree
    stack = [root]
    while stack:
        label = stack.pop()
        kids = children_of.get(label)
        if kids:
            yield DepthOneSubtree(label, kids)
            stack.extend(reversed(kids))


def bracket(label: NodeLabel | str, kid_texts: Iterable[str]) -> str:
    """The bracket text of a node labelled ``label`` over its children's
    texts: ``(AB A B)``."""
    return f"({label} {' '.join(kid_texts)})"


def canonical_serialize(root: NodeLabel, children_of: Mapping[NodeLabel, tuple[NodeLabel, ...]]) -> str:
    """The canonical serialization of the tree ``(root, children_of)``;
    equal trees have equal serializations.  Iterative, and each token is
    written once, so the time is linear in the text however deep the tree."""
    parts: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item in children_of:
            parts.append(f"({item}")
            stack.append(")")
            for kid in reversed(children_of[item]):
                stack += (kid, " ")
        else:
            parts.append(str(item))
    return "".join(parts)


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _parse_label(token: str) -> NodeLabel:
    try:
        return parse_node_label(token)
    except LabelError as exc:
        raise TreeError(str(exc)) from exc


def _violations(nodes: list[tuple[NodeLabel, list[NodeLabel]]]) -> list[str]:
    """Every broken constraint of a tree given as its ``(label, kids)``
    nodes in pre-order, node by node, then each repeated label."""
    out: list[str] = []
    seen: dict[NodeLabel, int] = {}
    for label, kids in nodes:
        out.extend(f"{label}: {kind}: {detail}" for kind, detail in node_violations(label, tuple(kids)))
        seen[label] = seen.get(label, 0) + 1
    out.extend(f"{label}: unique-labels: label occurs {n} times" for label, n in seen.items() if n > 1)
    return out


def parse_serialized(text: str) -> tuple[NodeLabel, dict[NodeLabel, tuple[NodeLabel, ...]]]:
    """Parse bracket notation into a validated ``(root, children_of)`` pair.
    Iterative, so a tree of any depth parses."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    # Every node in pre-order, as its label and the children parsed so far,
    # and the indices of the open brackets' nodes, outermost first.
    nodes: list[tuple[NodeLabel, list[NodeLabel]]] = []
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
