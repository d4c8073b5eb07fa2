import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory, random_tree
from sewtree.tree import canonical_serialize, parse_serialized, rule_text, subtrees_of

from helpers import (
    as_pair,
    binary,
    glue_subtrees,
    label_of,
    leaf,
    random_node_tree,
    recursive_parse,
    serialize_node,
    unary,
    validate_tree,
)

SKIRT = "(ABC_1 (AB_1 (AB A B)) C)"


class TestValidateTree:
    def test_simple_binary_valid(self):
        t = binary(leaf("A"), leaf("B"))
        assert validate_tree(t) == []
        assert parse_serialized(serialize_node(t)) == as_pair(t)

    def test_skirt_tree_valid(self):
        assert parse_serialized(SKIRT) == (
            "ABC_1",
            {"ABC_1": ("AB_1", "C"), "AB_1": ("AB",), "AB": ("A", "B")},
        )


class TestDepthOneSubtrees:
    def test_skirt_tree(self):
        expected = ["ABC_1 -> AB_1 C", "AB_1 -> AB", "AB -> A B"]
        assert list(subtrees_of(parse_serialized(SKIRT))) == expected

    def test_rule_text_is_a_grammar_line(self):
        assert rule_text("ABC_1", ("AB_1", "C")) == "ABC_1 -> AB_1 C"
        assert rule_text("AB_1", ["AB"]) == "AB_1 -> AB"

    def test_single_leaf(self):
        assert list(subtrees_of(("A", {}))) == []

    def test_count_equals_non_leaf_nodes(self):
        tree = parse_serialized(SKIRT)
        assert len(list(subtrees_of(tree))) == len(tree[1]) == SKIRT.count("(")


class TestSerialization:
    def test_leaf(self):
        assert canonical_serialize("A", {}) == "A"

    @pytest.mark.parametrize(
        "text",
        [SKIRT, "A", "(AB A B)", "(BlBrFlFr_1 (BlFl_1 (BlFl Bl Fl)) (BrFr_1 (BrFr Br Fr)))"],
    )
    def test_roundtrip(self, text):
        assert canonical_serialize(*parse_serialized(text)) == text


@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(1, 10),
    hs.integers(0, 80),
    hs.booleans(),
    hs.integers(0, 150),
)
def test_parse_matches_recursive_reference(seed, n_pieces, unary_percent, chain, extra):
    """The same pair as the recursive parser, and the tree's own, on random
    trees with unary chains inside and on top."""
    rng = SplitMix64(seed)
    tree = random_node_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    text = serialize_node(tree)
    assert parse_serialized(text) == as_pair(recursive_parse(text)) == as_pair(tree)


def test_parse_five_thousand_deep_chain():
    depth = 5000
    text = "".join(f"(AB_{i} " for i in range(depth, 0, -1)) + "(AB A B)" + ")" * depth
    root, children_of = parse_serialized(text)
    assert root == f"AB_{depth}"
    assert canonical_serialize(root, children_of) == text


def recursive_walk(node):
    """The recursive preorder walk: the reference for ``subtrees_of``'s order."""
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
    """On a tree's label map, ``subtrees_of`` visits parents in the
    recursive preorder (parent first, children left to right) and
    ``canonical_serialize`` writes the recursive bytes, on random trees with
    unary chains inside (``unary_percent``) and on top (``extra`` more
    self-attachments of the root)."""
    rng = SplitMix64(seed)
    tree = random_node_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    pair = as_pair(tree)
    assert list(subtrees_of(pair)) == [
        f"{n.label} -> {' '.join(str(c.label) for c in n.children)}"
        for n in recursive_walk(tree)
        if n.children
    ]
    assert canonical_serialize(*pair) == recursive_serialize(tree) == serialize_node(tree)


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 12), hs.integers(0, 80), hs.booleans())
def test_random_tree_matches_node_generator(seed, n_pieces, unary_percent, chain):
    """Label arithmetic draws the tree the node-building generator draws
    from the same stream, and leaves the stream where it left it."""
    pieces = random_inventory(SplitMix64(seed), n_pieces)
    rng, node_rng = SplitMix64(seed), SplitMix64(seed)
    tree = random_tree(rng, pieces, unary_percent, chain=chain)
    reference = random_node_tree(node_rng, pieces, unary_percent, chain=chain)
    assert canonical_serialize(*tree) == serialize_node(reference)
    assert tree == as_pair(reference)
    assert rng.state == node_rng.state


class TestGlue:
    def test_rebuild_from_subtrees(self):
        glued = glue_subtrees(subtrees_of(parse_serialized(SKIRT)))
        assert glued == (recursive_parse(SKIRT),)

    def test_isolated_leaves_kept(self):
        f = glue_subtrees(subtrees_of(parse_serialized("(AB A B)")), (label_of("C"),))
        assert tuple(tree.label for tree in f if tree.is_leaf()) == (label_of("C"),)
        assert len(f) == 2
