"""Assembly trees, forests, and depth-1 subtree extraction.

Trees are unary/binary: a binary node joins two disjoint components, a unary
node is one self-attachment of its child, and leaves are single pieces with a
zero counter.  Serialization uses bracket notation, e.g.
``(ABC_1 (AB_1 (AB A B)) C)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    attachment_violations,
    bump_self_attach,
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
        yield self
        for child in self.children:
            yield from child.walk()


def leaf(piece: PieceLabel) -> AssemblyNode:
    return AssemblyNode(NodeLabel((piece,), 0))


def unary(child: AssemblyNode) -> AssemblyNode:
    """Self-attachment node over ``child``."""
    return AssemblyNode(bump_self_attach(child.label), (child,))


def binary(a: AssemblyNode, b: AssemblyNode) -> AssemblyNode:
    """Attachment node joining two disjoint components, children in canonical order."""
    label = merge_labels(a.label, b.label)
    children = tuple(sorted((a, b), key=lambda n: n.label.pieces[0].sort_key()))
    return AssemblyNode(label, children)


@dataclass(frozen=True)
class DepthOneSubtree:
    """A parent label together with its immediate children's labels."""

    parent: NodeLabel
    children: tuple[NodeLabel, ...]

    def __str__(self) -> str:
        kids = " ".join(str(c) for c in self.children)
        return f"{self.parent} -> {kids}"


@dataclass(frozen=True)
class Forest:
    """Trees plus isolated never-attached leaves; node labels unique throughout."""

    trees: tuple[AssemblyNode, ...] = ()

    def isolated_leaves(self) -> tuple[NodeLabel, ...]:
        return tuple(t.label for t in self.trees if t.is_leaf())


@dataclass(frozen=True)
class Violation:
    """One broken tree constraint, naming the offending node."""

    node: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.node}: {self.rule}: {self.detail}"


def _check_node(node: AssemblyNode, out: list[Violation]) -> None:
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
        if len(kids) == 2 and kids[0].pieces[0].sort_key() > kids[1].pieces[0].sort_key():
            out.append(Violation(name, "child-order", "children out of canonical order"))
    for child in node.children:
        _check_node(child, out)


def validate_tree(root: AssemblyNode) -> list[Violation]:
    """All constraint violations in the tree; empty iff the tree is valid."""
    out: list[Violation] = []
    _check_node(root, out)
    seen: dict[NodeLabel, int] = {}
    for node in root.walk():
        seen[node.label] = seen.get(node.label, 0) + 1
    for label, count in seen.items():
        if count > 1:
            out.append(Violation(str(label), "unique-labels", f"label occurs {count} times"))
    return out


def validate_forest(forest: Forest) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[NodeLabel, int] = {}
    for tree in forest.trees:
        out.extend(validate_tree(tree))
        for node in tree.walk():
            seen[node.label] = seen.get(node.label, 0) + 1
    for label, count in seen.items():
        if count > 1:
            out.append(Violation(str(label), "forest-unique-labels", f"label occurs {count} times"))
    return out


def subtrees_of(root: AssemblyNode):
    """Yield the depth-1 subtree of every non-leaf node."""
    for node in root.walk():
        if node.children:
            yield DepthOneSubtree(node.label, tuple(c.label for c in node.children))


def depth_one_subtrees(forest: Forest | AssemblyNode) -> frozenset[DepthOneSubtree]:
    """The set of depth-1 subtrees of a forest (leaves contribute nothing)."""
    roots = (forest,) if isinstance(forest, AssemblyNode) else forest.trees
    result: set[DepthOneSubtree] = set()
    for root in roots:
        result.update(subtrees_of(root))
    return frozenset(result)


def canonical_serialize(root: AssemblyNode) -> str:
    """Deterministic bracket form; equal trees have equal serializations."""
    if root.is_leaf():
        return str(root.label)
    inner = " ".join(canonical_serialize(c) for c in root.children)
    return f"({root.label} {inner})"


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def parse_serialized(text: str) -> AssemblyNode:
    """Parse bracket notation back into a validated tree."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    pos = 0

    def parse_node() -> AssemblyNode:
        nonlocal pos
        if pos >= len(tokens):
            raise TreeError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise TreeError("unexpected ')'")
        if tok != "(":
            try:
                return AssemblyNode(parse_node_label(tok))
            except LabelError as exc:
                raise TreeError(str(exc)) from exc
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreeError("expected node label after '('")
        try:
            label = parse_node_label(tokens[pos])
        except LabelError as exc:
            raise TreeError(str(exc)) from exc
        pos += 1
        children: list[AssemblyNode] = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(parse_node())
        if pos >= len(tokens):
            raise TreeError("missing ')'")
        pos += 1
        if not children:
            raise TreeError(f"bracketed node {label} has no children")
        return AssemblyNode(label, tuple(children))

    root = parse_node()
    if pos != len(tokens):
        raise TreeError(f"trailing input after tree: {tokens[pos]!r}")
    violations = validate_tree(root)
    if violations:
        raise TreeError("; ".join(str(v) for v in violations))
    return root


def glue_subtrees(
    subtrees, isolated: tuple[NodeLabel, ...] = ()
) -> Forest:
    """Rebuild a forest from depth-1 subtrees by gluing equal labels.

    Labels that never appear as a parent become leaves; labels that never
    appear as a child become roots.
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
    return Forest(tuple(trees))


def forest_to_json(forest: Forest) -> dict:
    """JSON form: serialized trees plus the isolated-leaf labels."""
    return {
        "trees": [canonical_serialize(t) for t in forest.trees if not t.is_leaf()],
        "isolated_leaves": [str(l) for l in forest.isolated_leaves()],
    }
