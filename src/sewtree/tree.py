"""Assembly trees as label maps, their text form, and their depth-1
subtrees as rule texts.

Trees are unary/binary: a binary node joins two disjoint components, a unary
node is one self-attachment of its child, and leaves are single pieces with a
zero counter.  Labels are unique within a valid tree, so a tree is the pair
``(root, children_of)``: its root label's text and a map from each internal
label's text to its children's; a label without an entry is a leaf.
Serialization uses bracket notation, e.g. ``(ABC_1 (AB_1 (AB A B)) C)``;
:func:`parse_serialized` reads back only texts the program wrote, and
checks nothing.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping


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


# An opening bracket with its node's label, a leaf's label, or a closing
# bracket.
_TOKEN_RE = re.compile(r"\(?[^\s()]+|\)")


def parse_serialized(text: str) -> tuple[str, dict[str, tuple[str, ...]]]:
    """The ``(root, children_of)`` pair of a tree text as
    :func:`canonical_serialize` writes it.  Only the program's own texts
    reach it (gold trees it enumerated or picked), so nothing is checked.
    Iterative, so a tree of any depth reads."""
    children_of: dict[str, tuple[str, ...]] = {}
    # The open nodes, outermost first, each its label and the children read
    # so far, over a sentinel whose one kid is the root.
    stack: list[tuple[str, list[str]]] = [("", [])]
    for token in _TOKEN_RE.findall(text):
        if token == ")":
            label, kids = stack.pop()
            children_of[label] = tuple(kids)
            stack[-1][1].append(label)
        elif token[0] == "(":
            stack.append((token[1:], []))
        else:
            stack[-1][1].append(token)
    return stack[0][1][0], children_of
