import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from sewtree.labels import (
    LabelError,
    LabelReader,
    label_facts,
    label_pieces,
    node_violations,
    piece_key,
)
from sewtree.grammar import enumerate_gold_trees
from sewtree.pipeline import apply_step, resolve_components
from sewtree.rng import SplitMix64
from sewtree.synth import random_grammar
from sewtree.tree import parse_serialized

from helpers import (
    Label,
    binary,
    bump,
    first_piece,
    label_of,
    leaf,
    merge,
    node_oracle,
    oracle_key,
    serialize_node,
    unary,
)


def key_text(key: tuple[str, int, int]) -> str:
    """The text of the piece whose sort key is ``key``, written from its
    fields."""
    base, rank, index = key
    return base + (str(index) if index else ("", "l", "r")[rank])


def parse_piece_label(text: str) -> str:
    """``text`` read by ``piece_key`` and written back from the key."""
    return key_text(piece_key(text))


def parse_node_label(text: str) -> str:
    """``text`` read by ``label_pieces`` and written back from its pieces
    and counter."""
    return str(label_of(text))


class TestParsePieceLabel:
    @pytest.mark.parametrize(
        "text,base,variant,index",
        [
            ("A", "A", "plain", 0),
            ("Bl", "B", "left", 0),
            ("Br", "B", "right", 0),
            ("X3", "X", "copy", 3),
            ("Z12", "Z", "copy", 12),
        ],
    )
    def test_valid(self, text, base, variant, index):
        assert piece_key(text) == (base, ["plain", "left", "right", "copy"].index(variant), index)

    @pytest.mark.parametrize("bad", ["", "ab", "a", "AB", "A0", "Al2", "1A", "A-1", "Ax"])
    def test_invalid(self, bad):
        with pytest.raises(LabelError):
            piece_key(bad)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("", "empty piece label"),
            ("Ax", "malformed piece label 'Ax'"),
            ("A0", "copy index must be >= 1 in 'A0'"),
            ("A00", "copy index must be >= 1 in 'A00'"),
            ("A01", "copy index has a leading zero in 'A01'"),
        ],
    )
    def test_error_names_the_fault(self, bad, message):
        with pytest.raises(LabelError) as info:
            piece_key(bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", ["A01", "A00", "X010", "Z007"])
    def test_copy_index_with_leading_zero_is_refused(self, bad):
        # A01 would otherwise be a second text of the piece A1.
        with pytest.raises(LabelError):
            piece_key(bad)

    def test_roundtrip(self):
        for text in ["A", "Bl", "Br", "X1", "X3", "Q10"]:
            assert key_text(piece_key(text)) == text


def by_key(texts):
    return sorted(texts, key=piece_key)


class TestPieceOrdering:
    def test_base_letter_first(self):
        assert piece_key("A") < piece_key("Bl")
        assert by_key(["Bl", "A"]) == ["A", "Bl"]

    def test_left_before_right(self):
        assert piece_key("Bl") < piece_key("Br")
        assert by_key(["Br", "Bl"]) == ["Bl", "Br"]

    def test_copy_numeric_order(self):
        # Text order puts B10 first.
        assert piece_key("B2") < piece_key("B10")
        assert by_key(["B10", "B2"]) == ["B2", "B10"]

    def test_plain_before_suffixed(self):
        assert piece_key("B") < piece_key("Bl") < piece_key("Br") < piece_key("B1")

    @given(hs.data())
    def test_strict_total_order(self, data):
        pieces = hs.sampled_from(["A", "Al", "Ar", "A1", "A2", "B", "Bl", "C3"])
        a, b, c = (piece_key(data.draw(pieces)) for _ in range(3))
        # antisymmetry and totality
        assert not (a < b and b < a)
        assert sorted([a, b]) == sorted([b, a])
        # transitivity
        if a < b and b < c:
            assert a < c


piece_texts = hs.from_regex(r"[A-Z](l|r|[0-9]+)?", fullmatch=True)


def refused(text: str) -> bool:
    """Whether ``text`` names no piece: its copy number is 0 or has a
    leading zero."""
    number = text[1:]
    return number.isdigit() and (int(number) == 0 or number[0] == "0")


piece_label_texts = piece_texts.filter(lambda t: not refused(t))


class TestPieceLabelFromText:
    @given(piece_texts)
    @example("A0")
    @example("A01")
    def test_refused_iff_copy_number_is_zero_or_has_a_leading_zero(self, text):
        if refused(text):
            with pytest.raises(LabelError):
                piece_key(text)
        else:
            piece_key(text)

    @given(piece_label_texts)
    def test_text_round_trips_and_parses_alike(self, text):
        assert key_text(piece_key(text)) == text
        assert label_pieces(text) == ((text,), 0)

    @given(piece_label_texts, piece_label_texts)
    @example("B", "Bl")
    @example("Br", "B1")
    @example("B2", "B10")
    def test_order_and_hash_match_the_oracle_key(self, a_text, b_text):
        # A piece is its text: two texts are one piece iff their keys are
        # equal.
        a, b = piece_key(a_text), piece_key(b_text)
        key_a, key_b = oracle_key(a_text), oracle_key(b_text)
        assert (a < b, a == b, b < a) == (key_a < key_b, key_a == key_b, key_b < key_a)
        assert (a == b) == (a_text == b_text)


class TestNodeLabel:
    @pytest.mark.parametrize(
        "text,pieces,counter",
        [
            ("ABlBr", ["A", "Bl", "Br"], 0),
            ("AB_1", ["A", "B"], 1),
            ("BlBrFlFr_2", ["Bl", "Br", "Fl", "Fr"], 2),
            ("A", ["A"], 0),
        ],
    )
    def test_parse(self, text, pieces, counter):
        assert label_pieces(text) == (tuple(pieces), counter)

    @pytest.mark.parametrize("bad", ["BA", "AA", "AB_x", "AB_", "", "ABlBlr", "ABl_1_2"])
    def test_invalid(self, bad):
        with pytest.raises(LabelError):
            label_pieces(bad)

    @pytest.mark.parametrize("bad", ["AB_0", "AB_01", "A_00", "A01B", "AB2_010"])
    def test_non_canonical_text_is_refused(self, bad):
        # AB_0 would otherwise be a second text of AB, AB_01 one of AB_1.
        with pytest.raises(LabelError):
            label_pieces(bad)

    @pytest.mark.parametrize("text,leaf", [("A", True), ("D12", True), ("A_1", False), ("AB", False)])
    def test_is_leaf_is_one_piece_with_counter_zero(self, text, leaf):
        assert (not node_violations(label_facts([text])[text], ())) is leaf

    def test_format_omits_zero_counter(self):
        reader = LabelReader(["A", "B"])
        joined, _ = reader.join("A", "B")
        assert joined == "AB"
        assert reader.bump(joined) == "AB_1"

    @given(
        hs.lists(
            hs.sampled_from(["A", "Bl", "Br", "C", "D1", "D2", "E", "Fl", "Fr"]),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        hs.integers(min_value=0, max_value=9),
    )
    def test_format_parse_roundtrip(self, piece_texts, counter):
        label = Label(tuple(sorted(piece_texts, key=oracle_key)), counter)
        assert label_pieces(str(label)) == (label.pieces, counter)


# Texts near labels: letters, suffixes, digit runs with and without
# leading zeros, counters.
label_like_texts = hs.one_of(
    hs.from_regex(r"[A-C](l|r|0*[0-9]{0,2})?", fullmatch=True),
    hs.from_regex(r"([A-C](l|r|0*[0-9]{0,2})?){1,3}(_0*[0-9]{0,2})?", fullmatch=True),
    hs.text(alphabet="ABClr0129_", max_size=9),
)


@pytest.mark.parametrize("parse", [parse_piece_label, parse_node_label])
@given(label_like_texts)
def test_every_accepted_text_is_the_labels_own(parse, text):
    """Each reader accepts only the one text of a label: the text written
    back from what it read is the text read."""
    try:
        written = parse(text)
    except LabelError:
        return
    assert written == text


def oracle_label(text: str) -> Label | None:
    """The test-side label of ``text``, or None if it is no label's text,
    read without ``labels.py``: a body of pieces, each a capital letter and
    ``l``, ``r``, a copy number from 1 without leading zeros or nothing,
    strictly sorted by :func:`oracle_key`, then an optional ``_n`` counter
    from 1 without leading zeros."""
    body, sep, counter = text.partition("_")
    if sep and re.fullmatch(r"[1-9][0-9]*", counter) is None:
        return None
    pieces = re.findall(r"[A-Z][^A-Z]*", body)
    if not pieces or "".join(pieces) != body:
        return None
    if any(re.fullmatch(r"[A-Z](|l|r|[1-9][0-9]*)", p) is None for p in pieces):
        return None
    keys = list(map(oracle_key, pieces))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return None
    return Label(tuple(pieces), int(counter) if sep else 0)


# Pieces whose text order is not their piece order (B10 before B2 as text,
# Bl after B2), so that a sort of texts without the piece key shows.
ORDER_INVENTORY = ("B10", "A", "B2", "Bl", "B", "C1", "C")


@hs.composite
def disjoint_labels(draw):
    """Two labels over ORDER_INVENTORY with no piece in common, counters 0
    to 3."""
    chosen = draw(hs.lists(hs.sampled_from(ORDER_INVENTORY), min_size=2, max_size=7, unique=True))
    cut = draw(hs.integers(1, len(chosen) - 1))
    return tuple(
        Label(tuple(sorted(part, key=oracle_key)), draw(hs.integers(0, 3)))
        for part in (chosen[:cut], chosen[cut:])
    )


def oracle_facts(labels) -> dict[str, tuple[int, int, str, int]]:
    """The facts of each label, its mask over the sorted union of the
    labels' pieces, from piece sets."""
    order = sorted({p for label in labels for p in label.pieces}, key=oracle_key)
    return {
        str(label): (len(label.pieces), label.self_attach, str(label),
                     sum(1 << order.index(p) for p in label.pieces))
        for label in labels
    }


class TestDifferentialAgainstTheTestLabel:
    """``labels.py`` against the test-side label of ``helpers``, which has
    its own reading, merge and bump."""

    @given(hs.one_of(label_like_texts, hs.sampled_from(ORDER_INVENTORY),
                     hs.text(alphabet="AB210lr_", max_size=8)))
    @example("B10B2")
    @example("B2B10_3")
    @example("BBl")
    def test_piece_key_and_label_pieces_read_as_the_oracle(self, text):
        expected = oracle_label(text)
        try:
            read = label_pieces(text)
        except LabelError:
            read = None
        assert read == (None if expected is None else (expected.pieces, expected.self_attach))
        one_piece = expected is not None and len(expected.pieces) == 1 and not expected.self_attach
        try:
            key = piece_key(text)
        except LabelError:
            key = None
        assert key == (oracle_key(text) if one_piece else None)

    @given(disjoint_labels())
    @example((Label(("B10",)), Label(("B2",))))
    @example((Label(("B", "B10"), 1), Label(("Bl", "B2"), 0)))
    def test_join_and_bump_compose_the_oracles_labels(self, labels):
        a, b = labels
        reader = LabelReader(ORDER_INVENTORY)
        joined = merge(a, b)
        parent, children = reader.join(str(a), str(b))
        assert parent == str(joined)
        assert list(children) == [str(x) for x in sorted(labels, key=first_piece)]
        assert reader.join(str(b), str(a)) == (parent, children)
        assert reader.bump(parent) == str(bump(joined))
        assert reader.bump(str(a)) == str(bump(a))
        assert reader.pieces(parent) == list(joined.pieces)

    @given(hs.lists(hs.sets(hs.sampled_from(ORDER_INVENTORY), min_size=1, max_size=4),
                    min_size=1, max_size=4),
           hs.lists(hs.integers(0, 3), min_size=4, max_size=4))
    def test_label_facts_are_the_oracles(self, piece_sets, counters):
        labels = {
            Label(tuple(sorted(s, key=oracle_key)), c) for s, c in zip(piece_sets, counters)
        }
        assert label_facts(map(str, labels)) == oracle_facts(labels)


# A mirrored pair and numbered copies, so that string order and piece order
# differ (C10 before C2 as text, after it as a piece).
NODE_INVENTORY = ("A", "Bl", "Br", "C1", "C2", "C10", "D")


def label_over(texts, counter: int) -> Label:
    return Label(tuple(sorted(texts, key=oracle_key)), counter)


@hs.composite
def nodes(draw):
    """A label and 0 to 3 children over NODE_INVENTORY, counters 0 to 2:
    a unary child with the parent's pieces, two children that split the
    parent's pieces with a piece shared, missing or added, or children drawn
    at random; any two children in either order."""
    piece_sets = hs.sets(hs.sampled_from(NODE_INVENTORY), min_size=1, max_size=4)
    counters = hs.integers(0, 2)
    parent = draw(piece_sets, label="parent")
    shape = draw(hs.sampled_from(["unary", "split", "random"]), label="shape")
    if shape == "unary":
        kids = [parent]
    elif shape == "split" and len(parent) > 1:
        order = sorted(parent)
        left = draw(hs.sets(hs.sampled_from(order), min_size=1, max_size=len(order) - 1))
        right = set(order) - left
        change = draw(hs.sampled_from(["none", "share", "drop", "add"]), label="change")
        if change == "share":
            right.add(draw(hs.sampled_from(sorted(left))))
        elif change == "drop" and len(right) > 1:
            right.remove(draw(hs.sampled_from(sorted(right))))
        elif change == "add":
            right.add(draw(hs.sampled_from(NODE_INVENTORY)))
        kids = [left, right]
    else:
        kids = draw(hs.lists(piece_sets, max_size=3), label="children")
    if draw(hs.booleans(), label="reversed"):
        kids.reverse()
    return label_over(parent, draw(counters)), tuple(label_over(k, draw(counters)) for k in kids)


class TestNodeViolations:
    @given(nodes())
    @example((label_of("A"), (label_of("A"), label_of("A"))))  # one piece, shared
    @example((label_of("ABlBr_1"), (label_of("BlBr_1"), label_of("A"))))  # reversed children
    def test_equals_the_set_oracle(self, node):
        # Masks over the node's own pieces, as a tree's are, and over a
        # larger inventory, as a grammar's are, decide alike.
        label, children = node
        own = label_facts(str(x) for x in (label, *children))
        wide = LabelReader(NODE_INVENTORY)
        for facts in (own, wide):
            found = node_violations(facts[str(label)], [facts[str(c)] for c in children])
            assert found == node_oracle(label, children)

    @pytest.mark.parametrize(
        "label,children,kinds",
        [
            ("A", [], []),
            ("C10", [], []),
            ("AB", [], ["leaf-pieces"]),
            ("A_1", [], ["leaf-counter"]),
            ("AB_1", [], ["leaf-pieces", "leaf-counter"]),
            ("AB_1", ["AB"], []),
            ("AB_1", ["AC"], ["unary-pieces"]),
            ("AB_2", ["AB"], ["unary-counter"]),
            ("ABlBr_1", ["A_1", "BlBr"], []),
            ("ABlBr", ["BlBr", "A"], ["child-order"]),
            ("ABC", ["AB", "BC"], ["binary-disjoint"]),
            ("A", ["A", "A"], ["binary-disjoint"]),
            ("ABC", ["A", "B"], ["binary-union"]),
            ("AB", ["A", "BC"], ["binary-union"]),
            ("AB_1", ["A", "B"], ["binary-counter"]),
            ("ABC_1", ["BC", "A"], ["binary-counter", "child-order"]),
            ("ABC", ["A", "B", "C"], ["arity"]),
        ],
    )
    def test_kinds(self, label, children, kinds):
        facts = label_facts((label, *children))
        found = node_violations(facts[label], [facts[c] for c in children])
        assert [kind for kind, _ in found] == kinds


def joined_text(a: str, b: str, inventory=NODE_INVENTORY) -> str:
    return LabelReader(inventory).join(a, b)[0]


class TestMergeLabels:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("AB_2", "CD_3", "ABCD_3"),
            ("A_1", "BC", "ABC_1"),
            ("ABl", "Br", "ABlBr"),
        ],
    )
    def test_valid(self, a, b, expected):
        reader = LabelReader(["A", "B", "Bl", "Br", "C", "D"])
        assert reader.join(a, b) == (expected, (a, b))

    @given(
        hs.sets(hs.sampled_from(["A", "B", "C", "Dl", "Dr", "E"]), min_size=1, max_size=5),
        hs.integers(0, 4),
        hs.integers(0, 4),
    )
    def test_commutative_and_counts(self, texts, na, nb):
        pieces = sorted(texts, key=oracle_key)
        if len(pieces) < 2:
            return
        cut = len(pieces) // 2
        reader = LabelReader(pieces)
        a = str(Label(tuple(pieces[:cut]), na))
        b = str(Label(tuple(pieces[cut:]), nb))
        merged, _ = reader.join(a, b)
        assert merged == reader.join(b, a)[0]
        assert label_pieces(merged)[1] == max(na, nb)
        assert reader.pieces(merged) == pieces

    @given(hs.sets(hs.sampled_from(NODE_INVENTORY), min_size=1, max_size=4),
           hs.sets(hs.sampled_from(NODE_INVENTORY), min_size=1, max_size=4),
           hs.integers(0, 2), hs.integers(0, 2))
    @example({"A", "C10"}, {"C2", "D"}, 1, 0)  # pieces interleave, C10 after C2
    def test_is_the_sorted_union_of_disjoint_labels(self, left, right, na, nb):
        right -= left
        if not right:
            return
        a, b = label_over(left, na), label_over(right, nb)
        union = Label(tuple(sorted(a.piece_set | b.piece_set, key=oracle_key)), max(na, nb))
        assert joined_text(str(a), str(b)) == str(union)


class TestBumpSelfAttach:
    @pytest.mark.parametrize("label", ["AB", "A", "BlFl"])
    def test_increments_by_one(self, label):
        reader = LabelReader(["A", "B", "Bl", "Fl"])
        assert reader.bump(label) == f"{label}_1"
        assert reader.pieces(reader.bump(label)) == reader.pieces(label)

    def test_from_table_examples(self):
        reader = LabelReader(["A", "B", "Bl", "Fl"])
        assert reader.bump("AB") == "AB_1"
        assert reader.bump("BlFl_1") == "BlFl_2"


node_labels = hs.builds(
    lambda pieces, counter: Label(tuple(sorted(pieces, key=oracle_key)), counter),
    hs.sets(
        hs.builds(
            lambda letter, suffix: letter + suffix,
            hs.sampled_from("ABCDEFG"),
            hs.sampled_from(["", "l", "r"]) | hs.integers(1, 12).map(str),
        ),
        min_size=1,
        max_size=6,
    ),
    hs.integers(0, 6),
)


def equal_labels_built_every_way(label: Label) -> list[str]:
    """The text of ``label`` read back, composed by label arithmetic, from
    a parsed tree text and by a build's fold of steps."""
    first, *rest = label.pieces
    counter = label.self_attach
    reader = LabelReader(label.pieces)
    composed = first
    for piece in rest:
        composed, _ = reader.join(piece, composed)
    for _ in range(counter):
        composed = reader.bump(composed)
    out = [str(label_of(str(label))), composed]

    node = leaf(first)
    for piece in rest:
        node = binary(node, leaf(piece))
    for _ in range(counter):
        node = unary(node)
    out.append(parse_serialized(serialize_node(node))[0])

    steps = [label.pieces] if rest else []
    steps += [(first,)] * counter
    if steps:
        component_of = {}
        for mentions in steps:
            apply_step(component_of, resolve_components(mentions, component_of), reader)
        out.append(component_of[first])
    return out


class TestLabelIdentity:
    @given(node_labels)
    def test_equal_labels_built_different_ways_hash_equal(self, label):
        # A label is its text: built every way, it is the same text.
        for other in equal_labels_built_every_way(label):
            assert other == str(label)
            assert hash(other) == hash(str(label))

    @pytest.mark.parametrize("read", [piece_key, label_pieces])
    def test_memo_is_bounded(self, read):
        assert read.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "parse,bad",
        [(parse_piece_label, "A0"), (parse_piece_label, "ab"), (parse_node_label, "BA"),
         (parse_node_label, "AA"), (parse_node_label, "AB_x"), (parse_node_label, "")],
    )
    def test_malformed_label_raises_on_every_call(self, parse, bad):
        # The readers are memoized, and a refusal is never kept.
        for _ in range(3):
            with pytest.raises(LabelError):
                parse(bad)


# ``gen-gold`` writes tree texts into its JSON output without the encoder,
# which holds only while every label and tree text is made of characters
# that JSON writes as they are.
JSON_PLAIN_TEXT = re.compile(r"[A-Za-z0-9_() ]+")


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 12), hs.integers(1, 4), hs.integers(0, 60))
def test_label_and_gold_tree_texts_need_no_json_escaping(seed, n_pieces, n_trees, unary_percent):
    grammar = random_grammar(SplitMix64(seed), "texts", n_pieces, n_trees, unary_percent)
    texts = [str(label) for label in grammar.labels] + list(enumerate_gold_trees(grammar))
    for text in texts:
        assert JSON_PLAIN_TEXT.fullmatch(text), text
        assert json.dumps(text) == f'"{text}"'
