import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.labels import parse_node_label, parse_piece_label
from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory, random_tree
from sewtree.tree import (
    AssemblyNode,
    DepthOneSubtree,
    Forest,
    TreeError,
    binary,
    canonical_serialize,
    depth_one_subtrees,
    glue_subtrees,
    leaf,
    parse_serialized,
    subtrees_of,
    unary,
    validate_forest,
    validate_tree,
)

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

    def test_forest_of_two(self):
        f = Forest((parse_serialized("(AB A B)"), parse_serialized("(CD C D)")))
        assert len(depth_one_subtrees(f)) == 2

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


class TestGlue:
    def test_rebuild_from_subtrees(self):
        t = parse_serialized(SKIRT)
        glued = glue_subtrees(subtrees_of(t))
        assert glued.trees == (t,)

    def test_isolated_leaves_kept(self):
        t = parse_serialized("(AB A B)")
        f = glue_subtrees(subtrees_of(t), (N("C"),))
        assert f.isolated_leaves() == (N("C"),)
        assert len(f.trees) == 2

    def test_forest_duplicate_labels_flagged(self):
        f = Forest((parse_serialized("(AB A B)"), parse_serialized("(AB A B)")))
        assert any(v.rule == "forest-unique-labels" for v in validate_forest(f))
