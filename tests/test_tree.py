import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory, random_tree
from sewtree.tree import (
    _TOKEN_RE,
    TreeError,
    canonical_serialize,
    parse_serialized,
    rule_text,
    subtrees_of,
)

from helpers import (
    AssemblyNode,
    Label,
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


def node(label, *children):
    return AssemblyNode(label_of(label), tuple(children))


def broken_rules(tree: AssemblyNode) -> set[str]:
    """The rules ``tree`` breaks, as ``parse_serialized`` reports them on
    its text: the message is ``validate_tree``'s, violation for violation,
    and a valid tree parses to its own pair."""
    text = serialize_node(tree)
    violations = validate_tree(tree)
    if not violations:
        assert parse_serialized(text) == as_pair(tree)
        return set()
    with pytest.raises(TreeError) as exc:
        parse_serialized(text)
    assert str(exc.value) == "; ".join(str(v) for v in violations)
    return {v.rule for v in violations}


class TestValidateTree:
    def test_simple_binary_valid(self):
        t = binary(leaf("A"), leaf("B"))
        assert broken_rules(t) == set()

    def test_skirt_tree_valid(self):
        assert parse_serialized(SKIRT) == (
            "ABC_1",
            {"ABC_1": ("AB_1", "C"), "AB_1": ("AB",), "AB": ("A", "B")},
        )

    def test_counter_must_be_max(self):
        t = node("ABCD_3", node("AB_2", node("AB_1", node("AB", node("A"), node("B")))),
                 node("CD_2", node("CD_1", node("CD", node("C"), node("D")))))
        assert "binary-counter" in broken_rules(t)

    def test_union_mismatch(self):
        t = node("AB", node("A"), node("C"))
        assert "binary-union" in broken_rules(t)

    def test_unary_counter(self):
        t = node("AB_2", node("AB"))
        assert "unary-counter" in broken_rules(t)

    def test_leaf_constraints(self):
        assert broken_rules(node("AB")) == {"leaf-pieces"}
        assert broken_rules(node("A_1")) == {"leaf-counter"}

    def test_child_order(self):
        t = node("AB", node("B"), node("A"))
        assert "child-order" in broken_rules(t)


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

    @pytest.mark.parametrize("bad", ["", "(AB A", "(AB A B))", "(AB)", "()", "(BA B A)", "(AB A C)"])
    def test_malformed(self, bad):
        with pytest.raises(TreeError):
            parse_serialized(bad)


def parse_outcome(parse, text):
    """The pair ``parse`` returns for ``text``, or the message it raises."""
    try:
        return parse(text)
    except TreeError as exc:
        return f"TreeError: {exc}"


def reference_parse(text):
    """The recursive parser's node tree as a pair."""
    return as_pair(recursive_parse(text))


@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(1, 10),
    hs.integers(0, 80),
    hs.booleans(),
    hs.integers(0, 150),
    hs.lists(hs.tuples(hs.integers(0, 3), hs.integers(0, 2**16)), max_size=3),
)
def test_parse_matches_recursive_reference(seed, n_pieces, unary_percent, chain, extra, edits):
    """The same pair, or the same error message, as the recursive parser on
    random trees with unary chains inside and on top, their token streams
    then edited: a token dropped, a bracket inserted or a token repeated."""
    rng = SplitMix64(seed)
    tree = random_node_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    text = serialize_node(tree)
    if not edits:
        assert parse_serialized(text) == reference_parse(text) == as_pair(tree)
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
    assert parse_outcome(parse_serialized, text) == parse_outcome(reference_parse, text)


SOUP = ["(", ")", "A", "B", "C", "AB", "AB_1", "ABC", "A_1", "a", "BA"]


@given(hs.lists(hs.sampled_from(SOUP), max_size=12))
def test_parse_token_soup_matches_recursive_reference(tokens):
    """Short streams of brackets and good and bad labels reach every error."""
    text = " ".join(tokens)
    assert parse_outcome(parse_serialized, text) == parse_outcome(reference_parse, text)


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
                label = Label(label.pieces, label.self_attach + 1)
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
    """``parse_serialized`` checks the nodes it collects as ``validate_tree``
    checks the node tree: the same violations in the same order, repeated
    labels included, on random trees with unary chains inside and on top,
    some nodes broken."""
    rng = SplitMix64(seed)
    tree = random_node_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    for _ in range(extra):
        tree = unary(tree)
    tree = corrupted(tree, rng, broken)
    text = serialize_node(tree)
    violations = validate_tree(tree)
    expected = f"TreeError: {'; '.join(str(v) for v in violations)}" if violations else as_pair(tree)
    assert parse_outcome(parse_serialized, text) == expected


class TestGlue:
    def test_rebuild_from_subtrees(self):
        glued = glue_subtrees(subtrees_of(parse_serialized(SKIRT)))
        assert glued == (recursive_parse(SKIRT),)

    def test_isolated_leaves_kept(self):
        f = glue_subtrees(subtrees_of(parse_serialized("(AB A B)")), (label_of("C"),))
        assert tuple(tree.label for tree in f if tree.is_leaf()) == (label_of("C"),)
        assert len(f) == 2
