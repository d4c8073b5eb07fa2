"""Assembly trees and depth-1 subtree extraction.

Trees are unary/binary: a binary node joins two disjoint components, a unary
node is one self-attachment of its child, and leaves are single pieces with a
zero counter.  Serialization uses bracket notation, e.g.
``(ABC_1 (AB_1 (AB A B)) C)``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    attachment_violations,
    bump_self_attach,
    child_order_key,
    merge_labels,
    parse_node_label,
)


class TreeError(ValueError):
    """A serialized tree could not be parsed or violates tree constraints."""


@dataclass(frozen=True)
class AssemblyNode:
    """One node of an assembly tree with 0, 1, or 2 children."""

    label: NodeLabel
    children: tuple["AssemblyNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Yield this node and all descendants, parent first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def leaf(piece: PieceLabel) -> AssemblyNode:
    return AssemblyNode(NodeLabel((piece,), 0))


def unary(child: AssemblyNode) -> AssemblyNode:
    """Self-attachment node over ``child``."""
    return AssemblyNode(bump_self_attach(child.label), (child,))


def binary(a: AssemblyNode, b: AssemblyNode) -> AssemblyNode:
    """Attachment node joining two disjoint components, children in canonical order."""
    label = merge_labels(a.label, b.label)
    children = tuple(sorted((a, b), key=lambda n: child_order_key(n.label)))
    return AssemblyNode(label, children)


@dataclass(frozen=True, slots=True)
class DepthOneSubtree:
    """A parent label together with its immediate children's labels.
    Hashed once, from its labels' hashes, like the labels themselves."""

    parent: NodeLabel
    children: tuple[NodeLabel, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.parent._hash, *(c._hash for c in self.children)))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        kids = " ".join(str(c) for c in self.children)
        return f"{self.parent} -> {kids}"


@dataclass(frozen=True)
class Violation:
    """One broken tree constraint, naming the offending node."""

    node: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.node}: {self.rule}: {self.detail}"


def validate_tree(root: AssemblyNode) -> list[Violation]:
    """All constraint violations in the tree; empty iff the tree is valid."""
    out: list[Violation] = []
    seen: dict[NodeLabel, int] = {}
    for node in root.walk():
        name = str(node.label)
        if not node.children:
            if len(node.label.pieces) != 1:
                out.append(Violation(name, "leaf-pieces", "leaf must be a single piece"))
            if node.label.self_attach != 0:
                out.append(Violation(name, "leaf-counter", "leaf counter must be 0"))
        else:
            kids = tuple(c.label for c in node.children)
            for kind, detail in attachment_violations(node.label, kids):
                out.append(Violation(name, kind, detail))
            if len(kids) == 2 and child_order_key(kids[0]) > child_order_key(kids[1]):
                out.append(Violation(name, "child-order", "children out of canonical order"))
        seen[node.label] = seen.get(node.label, 0) + 1
    for label, count in seen.items():
        if count > 1:
            out.append(Violation(str(label), "unique-labels", f"label occurs {count} times"))
    return out


def subtrees_of(root: AssemblyNode):
    """Yield the depth-1 subtree of every non-leaf node."""
    for node in root.walk():
        if node.children:
            yield DepthOneSubtree(node.label, tuple(c.label for c in node.children))


def depth_one_subtrees(root: AssemblyNode) -> frozenset[DepthOneSubtree]:
    """The set of depth-1 subtrees of a tree (leaves contribute nothing)."""
    return frozenset(subtrees_of(root))


def bracket(label: NodeLabel | str, kid_texts: Iterable[str]) -> str:
    """The bracket text of a node labelled ``label`` over its children's
    texts: ``(AB A B)``."""
    return f"({label} {' '.join(kid_texts)})"


def canonical_serialize(root: AssemblyNode) -> str:
    """Deterministic bracket form; equal trees have equal serializations.
    Iterative, so a tree of any depth serializes."""
    tokens: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens[-1] += item  # a node's ")" closes its last token
        elif item.children:
            tokens.append(f"({item.label}")
            stack.append(")")
            stack.extend(reversed(item.children))
        else:
            tokens.append(str(item.label))
    return " ".join(tokens)


def serialize_labels(root: NodeLabel, children_of: Mapping[NodeLabel, tuple[NodeLabel, ...]]) -> str:
    """The canonical serialization of the tree under ``root`` when each
    label has one node, given each internal label's children; a label
    without an entry is a leaf.  Iterative, and each token is written
    once, so the time is linear in the text however deep the tree."""
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


def parse_serialized(text: str) -> AssemblyNode:
    """Parse bracket notation back into a validated tree.  Iterative, so a
    tree of any depth parses."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    # The open brackets, outermost first: each node's label and the
    # children parsed so far.
    open_nodes: list[tuple[NodeLabel, list[AssemblyNode]]] = []
    pos = 0
    while True:
        if pos == len(tokens):
            raise TreeError("missing ')'")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos == len(tokens) or tokens[pos] in "()":
                raise TreeError("expected node label after '('")
            open_nodes.append((_parse_label(tokens[pos]), []))
            pos += 1
            continue
        if tok == ")":
            if not open_nodes:
                raise TreeError("unexpected ')'")
            label, children = open_nodes.pop()
            if not children:
                raise TreeError(f"bracketed node {label} has no children")
            node = AssemblyNode(label, tuple(children))
        else:
            node = AssemblyNode(_parse_label(tok))
        if not open_nodes:
            break
        open_nodes[-1][1].append(node)
    if pos != len(tokens):
        raise TreeError(f"trailing input after tree: {tokens[pos]!r}")
    violations = validate_tree(node)
    if violations:
        raise TreeError("; ".join(str(v) for v in violations))
    return node


def glue_subtrees(
    subtrees, isolated: tuple[NodeLabel, ...] = ()
) -> tuple[AssemblyNode, ...]:
    """Rebuild a forest, its trees sorted by serialization, from depth-1
    subtrees by gluing equal labels.

    Labels that never appear as a parent become leaves; labels that never
    appear as a child become roots; ``isolated`` labels become one-leaf trees.
    """
    children_of: dict[NodeLabel, tuple[NodeLabel, ...]] = {}
    child_labels: set[NodeLabel] = set()
    for st in subtrees:
        if st.parent in children_of and children_of[st.parent] != st.children:
            raise TreeError(f"conflicting subtrees for parent {st.parent}")
        children_of[st.parent] = st.children
        child_labels.update(st.children)

    def build(label: NodeLabel, pending: frozenset[NodeLabel]) -> AssemblyNode:
        if label in pending:
            raise TreeError(f"cycle through label {label}")
        kids = children_of.get(label)
        if kids is None:
            return AssemblyNode(label)
        pending = pending | {label}
        return AssemblyNode(label, tuple(build(k, pending) for k in kids))

    roots = [p for p in children_of if p not in child_labels]
    trees = [build(r, frozenset()) for r in roots]
    trees.extend(AssemblyNode(l) for l in isolated)
    trees.sort(key=canonical_serialize)
    return tuple(trees)
