import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.labels import (
    LabelError,
    NodeLabel,
    attachment_violations,
    child_order_key,
    parse_node_label,
    parse_piece_label,
)
from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory, random_tree
from sewtree.tree import (
    _TOKEN_RE,
    AssemblyNode,
    DepthOneSubtree,
    TreeError,
    Violation,
    binary,
    canonical_serialize,
    depth_one_subtrees,
    leaf,
    parse_serialized,
    subtrees_of,
    unary,
    validate_tree,
)

from helpers import glue_subtrees

SKIRT = "(ABC_1 (AB_1 (AB A B)) C)"


def N(text):
    return parse_node_label(text)


def node(label, *children):
    return AssemblyNode(N(label), tuple(children))


class TestValidateTree:
    def test_simple_binary_valid(self):
        t = binary(leaf(parse_piece_label("A")), leaf(parse_piece_label("B")))
        assert validate_tree(t) == []

    def test_skirt_tree_valid(self):
        assert validate_tree(parse_serialized(SKIRT)) == []

    def test_counter_must_be_max(self):
        t = node("ABCD_3", node("AB_2", node("AB_1", node("AB", node("A"), node("B")))),
                 node("CD_2", node("CD_1", node("CD", node("C"), node("D")))))
        rules = {v.rule for v in validate_tree(t)}
        assert "binary-counter" in rules

    def test_union_mismatch(self):
        t = AssemblyNode(N("AB"), (node("A"), node("C")))
        rules = {v.rule for v in validate_tree(t)}
        assert "binary-union" in rules

    def test_unary_counter(self):
        t = AssemblyNode(N("AB_2"), (node("AB"),))
        rules = {v.rule for v in validate_tree(t)}
        assert "unary-counter" in rules

    def test_leaf_constraints(self):
        assert {v.rule for v in validate_tree(node("AB"))} == {"leaf-pieces"}
        assert {v.rule for v in validate_tree(node("A_1"))} == {"leaf-counter"}

    def test_child_order(self):
        t = AssemblyNode(N("AB"), (node("B"), node("A")))
        rules = {v.rule for v in validate_tree(t)}
        assert "child-order" in rules


class TestDepthOneSubtrees:
    def test_skirt_tree(self):
        t = parse_serialized(SKIRT)
        expected = {
            DepthOneSubtree(N("AB"), (N("A"), N("B"))),
            DepthOneSubtree(N("AB_1"), (N("AB"),)),
            DepthOneSubtree(N("ABC_1"), (N("AB_1"), N("C"))),
        }
        assert depth_one_subtrees(t) == expected

    def test_single_leaf(self):
        assert depth_one_subtrees(leaf(parse_piece_label("A"))) == frozenset()

    def test_count_equals_non_leaf_nodes(self):
        t = parse_serialized(SKIRT)
        non_leaves = sum(1 for n in t.walk() if n.children)
        assert len(depth_one_subtrees(t)) == non_leaves


class TestSerialization:
    def test_leaf(self):
        assert canonical_serialize(leaf(parse_piece_label("A"))) == "A"

    @pytest.mark.parametrize(
        "text",
        [SKIRT, "A", "(AB A B)", "(BlBrFlFr_1 (BlFl_1 (BlFl Bl Fl)) (BrFr_1 (BrFr Br Fr)))"],
    )
    def test_roundtrip(self, text):
        assert canonical_serialize(parse_serialized(text)) == text

    @pytest.mark.parametrize("bad", ["", "(AB A", "(AB A B))", "(AB)", "()", "(BA B A)", "(AB A C)"])
    def test_malformed(self, bad):
        with pytest.raises(TreeError):
            parse_serialized(bad)


def recursive_parse(text):
    """The recursive descent parser: the reference for ``parse_serialized``'s
    explicit stack."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    pos = 0

    def label_of(tok):
        try:
            return parse_node_label(tok)
        except LabelError as exc:
            raise TreeError(str(exc)) from exc

    def parse_node():
        nonlocal pos
        if pos >= len(tokens):
            raise TreeError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise TreeError("unexpected ')'")
        if tok != "(":
            return AssemblyNode(label_of(tok))
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreeError("expected node label after '('")
        label = label_of(tokens[pos])
        pos += 1
        children = []
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


def parse_outcome(parse, text):
    """The tree ``parse`` returns for ``text``, or the message it raises."""
    try:
        return parse(text)
    except TreeError as exc:
        return f"TreeError: {exc}"


@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(1, 10),
    hs.integers(0, 80),
    hs.booleans(),
    hs.integers(0, 150),
    hs.lists(hs.tuples(hs.integers(0, 3), hs.integers(0, 2**16)), max_size=3),
)
def test_parse_matches_recursive_reference(seed, n_pieces, unary_percent, chain, extra, edits):
    """The same tree, or the same error message, as the recursive parser on
    random trees with unary chains inside and on top, their token streams
    then edited: a token dropped, a bracket inserted or a token repeated."""
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    text = canonical_serialize(tree)
    if not edits:
        assert parse_serialized(text) == recursive_parse(text) == tree
    tokens = _TOKEN_RE.findall(text)
    for kind, where in edits:
        at = where % (len(tokens) + 1)
        if kind == 0:
            del tokens[at:at + 1]
        elif kind == 3:
            tokens[at:at] = tokens[at - 1:at]
        else:
            tokens.insert(at, "()"[kind - 1])
    text = " ".join(tokens)
    assert parse_outcome(parse_serialized, text) == parse_outcome(recursive_parse, text)


SOUP = ["(", ")", "A", "B", "C", "AB", "AB_1", "ABC", "A_1", "a", "BA"]


@given(hs.lists(hs.sampled_from(SOUP), max_size=12))
def test_parse_token_soup_matches_recursive_reference(tokens):
    """Short streams of brackets and good and bad labels reach every error."""
    text = " ".join(tokens)
    assert parse_outcome(parse_serialized, text) == parse_outcome(recursive_parse, text)


def test_parse_five_thousand_deep_chain():
    depth = 5000
    text = "".join(f"(AB_{i} " for i in range(depth, 0, -1)) + "(AB A B)" + ")" * depth
    tree = parse_serialized(text)
    assert tree.label == N(f"AB_{depth}")
    assert canonical_serialize(tree) == text


def recursive_walk(node):
    """The recursive preorder walk: the reference for ``AssemblyNode.walk``."""
    yield node
    for child in node.children:
        yield from recursive_walk(child)


def recursive_serialize(root):
    """The recursive bracket form: the reference for ``canonical_serialize``."""
    if root.is_leaf():
        return str(root.label)
    inner = " ".join(recursive_serialize(c) for c in root.children)
    return f"({root.label} {inner})"


@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(1, 10),
    hs.integers(0, 80),
    hs.booleans(),
    hs.integers(0, 150),
)
def test_walk_and_serialize_match_recursive_reference(seed, n_pieces, unary_percent, chain, extra):
    """Same preorder and same bytes as the recursive versions, on random
    trees with unary chains inside (``unary_percent``) and on top (``extra``
    more self-attachments of the root)."""
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    assert [id(n) for n in tree.walk()] == [id(n) for n in recursive_walk(tree)]
    assert canonical_serialize(tree) == recursive_serialize(tree)


def recursive_violations(root):
    """``validate_tree`` checking node by node in a recursion: the reference
    for its one loop over ``walk()``."""
    out = []

    def check(node):
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
        for child in node.children:
            check(child)

    check(root)
    seen = {}
    for node in recursive_walk(root):
        seen[node.label] = seen.get(node.label, 0) + 1
    for label, count in seen.items():
        if count > 1:
            out.append(Violation(str(label), "unique-labels", f"label occurs {count} times"))
    return out


def corrupted(tree, rng, percent):
    """``tree`` with about ``percent``% of its nodes broken: a counter
    bumped, two children swapped or the first child dropped."""
    nodes = list(tree.walk())
    new = {}
    for node in reversed(nodes):  # every node after its descendants
        label = node.label
        kids = tuple(new[id(c)] for c in node.children)
        if rng.randrange(100) < percent:
            kind = rng.randrange(3)
            if kind == 0:
                label = NodeLabel(label.pieces, label.self_attach + 1)
            else:
                kids = kids[::-1] if kind == 1 else kids[1:]
        new[id(node)] = AssemblyNode(label, kids)
    return new[id(tree)]


@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(1, 10),
    hs.integers(0, 80),
    hs.booleans(),
    hs.integers(0, 150),
    hs.integers(0, 30),
)
def test_validate_tree_matches_recursive_reference(seed, n_pieces, unary_percent, chain, extra, broken):
    """The same violations in the same order as the recursive check, on
    random trees with unary chains inside and on top, some nodes broken."""
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    tree = corrupted(tree, rng, broken)
    assert validate_tree(tree) == recursive_violations(tree)


class TestGlue:
    def test_rebuild_from_subtrees(self):
        t = parse_serialized(SKIRT)
        glued = glue_subtrees(subtrees_of(t))
        assert glued == (t,)

    def test_isolated_leaves_kept(self):
        t = parse_serialized("(AB A B)")
        f = glue_subtrees(subtrees_of(t), (N("C"),))
        assert tuple(tree.label for tree in f if tree.is_leaf()) == (N("C"),)
        assert len(f) == 2
