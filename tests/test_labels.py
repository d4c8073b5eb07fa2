import copy
import json
import pickle
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from sewtree.labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    is_leaf,
    merge_labels,
    node_violations,
    parse_node_label,
    parse_piece_label,
)
from sewtree.grammar import enumerate_gold_trees
from sewtree.pipeline import InstructionDoc, StepExtraction, build_forest, placeholder_spec
from sewtree.rng import SplitMix64
from sewtree.synth import random_grammar
from sewtree.tree import DepthOneSubtree, parse_serialized

from helpers import binary, label_text, leaf, node_oracle, run_fresh, serialize_node, unary


def P(text):
    return parse_piece_label(text)


def N(text):
    return parse_node_label(text)


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
        piece = parse_piece_label(text)
        assert piece._key == (base, ["plain", "left", "right", "copy"].index(variant), index)
        assert repr(piece) == f"PieceLabel({text!r})"

    @pytest.mark.parametrize("bad", ["", "ab", "a", "AB", "A0", "Al2", "1A", "A-1", "Ax"])
    def test_invalid(self, bad):
        with pytest.raises(LabelError):
            parse_piece_label(bad)

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
            PieceLabel(bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", ["A01", "A00", "X010", "Z007"])
    def test_copy_index_with_leading_zero_is_refused(self, bad):
        # A01 would otherwise be the label written A1.
        with pytest.raises(LabelError):
            parse_piece_label(bad)

    def test_roundtrip(self):
        for text in ["A", "Bl", "Br", "X1", "X3", "Q10"]:
            assert str(parse_piece_label(text)) == text


class TestPieceOrdering:
    def test_base_letter_first(self):
        assert P("A") < P("Bl")
        assert sorted([P("Bl"), P("A")]) == [P("A"), P("Bl")]

    def test_left_before_right(self):
        assert P("Bl") < P("Br")
        assert sorted([P("Br"), P("Bl")]) == [P("Bl"), P("Br")]

    def test_copy_numeric_order(self):
        assert P("B2") < P("B10")
        assert sorted([P("B10"), P("B2")]) == [P("B2"), P("B10")]

    def test_plain_before_suffixed(self):
        assert P("B") < P("Bl") < P("Br") < P("B1")

    @given(hs.data())
    def test_strict_total_order(self, data):
        pieces = hs.sampled_from([P(t) for t in ["A", "Al", "Ar", "A1", "A2", "B", "Bl", "C3"]])
        a, b, c = data.draw(pieces), data.draw(pieces), data.draw(pieces)
        # antisymmetry and totality
        assert (not a < b and not b < a) == (a == b)
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


def oracle_key(text: str) -> tuple[str, int, int]:
    """The order of a piece, from its text: base letter, then plain, left,
    right and copies, then the copy number."""
    suffix = text[1:]
    if suffix in ("", "l", "r"):
        return text[0], ["", "l", "r"].index(suffix), 0
    return text[0], 3, int(suffix)


piece_label_texts = piece_texts.filter(lambda t: not refused(t))


class TestPieceLabelFromText:
    @given(piece_texts)
    @example("A0")
    @example("A01")
    def test_refused_iff_copy_number_is_zero_or_has_a_leading_zero(self, text):
        if refused(text):
            with pytest.raises(LabelError):
                PieceLabel(text)
        else:
            PieceLabel(text)

    @given(piece_label_texts)
    def test_text_round_trips_and_parses_alike(self, text):
        piece = PieceLabel(text)
        assert str(piece) == text
        assert piece == parse_piece_label(text)
        assert hash(piece) == hash(parse_piece_label(text))

    @given(piece_label_texts, piece_label_texts)
    @example("B", "Bl")
    @example("Br", "B1")
    @example("B2", "B10")
    def test_order_and_hash_match_the_oracle_key(self, a_text, b_text):
        a, b = PieceLabel(a_text), PieceLabel(b_text)
        key_a, key_b = oracle_key(a_text), oracle_key(b_text)
        assert (a < b, a == b, b < a) == (key_a < key_b, key_a == key_b, key_b < key_a)
        base, rank, index = key_a
        assert hash(a) == hash((ord(base), rank, index))


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
        label = N(text)
        assert [str(p) for p in label.pieces] == pieces
        assert label.self_attach == counter

    @pytest.mark.parametrize("bad", ["BA", "AA", "AB_x", "AB_", "", "ABlBlr", "ABl_1_2"])
    def test_invalid(self, bad):
        with pytest.raises(LabelError):
            N(bad)

    @pytest.mark.parametrize("bad", ["AB_0", "AB_01", "A_00", "A01B", "AB2_010"])
    def test_non_canonical_text_is_refused(self, bad):
        # AB_0 would otherwise be the label written AB, AB_01 the one written AB_1.
        with pytest.raises(LabelError):
            N(bad)

    @pytest.mark.parametrize("text,leaf", [("A", True), ("D12", True), ("A_1", False), ("AB", False)])
    def test_is_leaf_is_one_piece_with_counter_zero(self, text, leaf):
        assert is_leaf(N(text)) is leaf

    def test_format_omits_zero_counter(self):
        assert str(N("AB")) == "AB"
        assert str(N("AB_1")) == "AB_1"

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
        label = NodeLabel(tuple(sorted(P(t) for t in piece_texts)), counter)
        assert parse_node_label(str(label)) == label


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
    """The parsers are the inverse of ``str``: two different texts never
    give one label."""
    try:
        label = parse(text)
    except LabelError:
        return
    assert str(label) == text


# A mirrored pair and numbered copies, so that string order and piece order
# differ (C10 before C2 as text, after it as a piece).
NODE_INVENTORY = ("A", "Bl", "Br", "C1", "C2", "C10", "D")


def label_over(texts, counter: int) -> NodeLabel:
    return NodeLabel(tuple(sorted(map(P, texts))), counter)


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
    @example((N("A"), (N("A"), N("A"))))  # one piece, shared
    @example((N("ABlBr_1"), (N("BlBr_1"), N("A"))))  # reversed children
    def test_equals_the_set_oracle(self, node):
        label, children = node
        assert node_violations(label, children) == node_oracle(label, children)

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
        found = node_violations(N(label), tuple(map(N, children)))
        assert [kind for kind, _ in found] == kinds


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
        assert merge_labels(N(a), N(b)) == N(expected)

    def test_overlap_rejected(self):
        with pytest.raises(LabelError) as exc:
            merge_labels(N("AB"), N("BC"))
        assert str(exc.value) == "cannot merge AB and BC: shared pieces B"

    @given(
        hs.sets(hs.sampled_from(["A", "B", "C", "Dl", "Dr", "E"]), min_size=1, max_size=5),
        hs.integers(0, 4),
        hs.integers(0, 4),
    )
    def test_commutative_and_counts(self, texts, na, nb):
        pieces = sorted(P(t) for t in texts)
        if len(pieces) < 2:
            return
        cut = len(pieces) // 2
        a = NodeLabel(tuple(pieces[:cut]), na)
        b = NodeLabel(tuple(pieces[cut:]), nb)
        merged = merge_labels(a, b)
        assert merged == merge_labels(b, a)
        assert merged.self_attach == max(na, nb)
        assert len(merged.pieces) == len(a.pieces) + len(b.pieces)

    @given(hs.sets(hs.sampled_from(NODE_INVENTORY), min_size=1, max_size=4),
           hs.sets(hs.sampled_from(NODE_INVENTORY), min_size=1, max_size=4),
           hs.integers(0, 2), hs.integers(0, 2))
    @example({"A", "C2", "C10"}, {"C2", "C10", "D"}, 1, 0)  # shared pieces named in text order
    def test_is_the_sorted_union_of_disjoint_labels(self, left, right, na, nb):
        a, b = label_over(left, na), label_over(right, nb)
        shared = a.piece_set & b.piece_set
        if shared:
            names = ", ".join(sorted(str(p) for p in shared))
            with pytest.raises(LabelError) as exc:
                merge_labels(a, b)
            assert str(exc.value) == f"cannot merge {a} and {b}: shared pieces {names}"
        else:
            union = NodeLabel(tuple(sorted(a.piece_set | b.piece_set)), max(na, nb))
            assert merge_labels(a, b) == union


class TestBumpSelfAttach:
    @pytest.mark.parametrize("label", ["AB", "A", "BlFl"])
    def test_increments_by_one(self, label):
        bumped = bump_self_attach(N(label))
        assert bumped.pieces == N(label).pieces
        assert bumped.self_attach == N(label).self_attach + 1

    def test_from_table_examples(self):
        assert bump_self_attach(N("AB")) == N("AB_1")
        assert bump_self_attach(N("BlFl")) == N("BlFl_1")


piece_labels = hs.builds(
    lambda letter, suffix: PieceLabel(letter + suffix),
    hs.sampled_from("ABCDEFG"),
    hs.sampled_from(["", "l", "r"]) | hs.integers(1, 12).map(str),
)
node_labels = hs.builds(
    lambda pieces, counter: NodeLabel(tuple(sorted(pieces)), counter),
    hs.sets(piece_labels, min_size=1, max_size=6),
    hs.integers(0, 6),
)


def equal_labels_built_every_way(label: NodeLabel) -> list[NodeLabel]:
    """``label`` rebuilt from its text, by label arithmetic, from a parsed
    tree text and from a build's trace."""
    first, *rest = label.pieces
    counter = label.self_attach
    bumped = NodeLabel(label.pieces, 0)
    for _ in range(counter):
        bumped = bump_self_attach(bumped)
    out = [parse_node_label(str(label)), NodeLabel(tuple(label.pieces), counter), bumped]
    if rest:
        out.append(merge_labels(NodeLabel(tuple(rest), counter), NodeLabel((first,), 0)))

    node = leaf(first)
    for piece in rest:
        node = binary(node, leaf(piece))
    for _ in range(counter):
        node = unary(node)
    out.append(parse_serialized(serialize_node(node))[0])

    steps = [StepExtraction(label.pieces)] if rest else []
    steps += [StepExtraction((first,)) for _ in range(counter)]
    if steps:
        report = build_forest(
            InstructionDoc("p", "d", ("",) * len(steps)), steps, placeholder_spec("p", label.pieces)
        )
        out.append(report.subtree_trace[-1][1].parent)
    return out


class TestLabelIdentity:
    @given(node_labels)
    def test_equal_labels_built_different_ways_hash_equal(self, label):
        for other in equal_labels_built_every_way(label):
            assert other == label
            assert hash(other) == hash(label)

    def test_equal_texts_parse_to_one_label(self):
        assert parse_node_label("ABlBr_2") is parse_node_label("ABlBr_2")
        assert parse_piece_label("X3") is parse_piece_label("X3")

    @given(node_labels)
    def test_pickle_and_replace_keep_equality_and_hash(self, label):
        subtree = DepthOneSubtree(bump_self_attach(label), (label,))
        piece = label.pieces[0]
        rebuilt = [
            (label, NodeLabel(label.pieces, label.self_attach)),
            (piece, PieceLabel(str(piece))),
            (subtree, DepthOneSubtree(subtree.parent, subtree.children)),
        ]
        for value, built in rebuilt:
            for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value), built):
                assert other == value
                assert hash(other) == hash(value)
        bumped = NodeLabel(label.pieces, self_attach=label.self_attach + 1)
        assert bumped == subtree.parent
        assert hash(bumped) == hash(subtree.parent)

    @pytest.mark.parametrize(
        "value,field",
        [(PieceLabel("A"), "_key"), (PieceLabel("X3"), "_text"),
         (NodeLabel((PieceLabel("A"),), 1), "self_attach"), (NodeLabel((PieceLabel("A"),)), "pieces"),
         (DepthOneSubtree(NodeLabel((PieceLabel("A"),), 1), (NodeLabel((PieceLabel("A"),)),)), "parent"),
         (PieceLabel("A"), "_hash"), (PieceLabel("Bl"), "_text"),
         (NodeLabel((PieceLabel("A"), PieceLabel("B")), 2), "_text")],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.new_field = 1
        assert getattr(value, field) == before

    @given(node_labels)
    def test_text_is_the_formatters_also_after_pickle_and_copy(self, label):
        subtree = DepthOneSubtree(bump_self_attach(label), (label,))
        values = [label, subtree, *label.pieces]
        if len(label.pieces) > 1:
            halves = NodeLabel(label.pieces[:1], 0), NodeLabel(label.pieces[1:], label.self_attach)
            values.append(DepthOneSubtree(merge_labels(*halves), halves))
        for value in values:
            expected = label_text(value)
            for other in (value, pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert str(other) == expected
                assert f"{other}" == expected

    def test_hash_values_are_pinned(self):
        # Recorded (64-bit CPython) when the labels were dataclasses: set
        # and dict order over labels follows these values, so they must
        # not change.
        pieces = {"A": -8106389567439634915, "Bl": 5808282632552977127,
                  "Br": -7186670172176554565, "X3": -3841759103925802898,
                  "Z12": -8383257180274286201}
        nodes = {"A": -2004518817575257537, "AB_1": 6367332764960557605,
                 "ABlBr": 4850574509383860923, "BlBrFlFr_2": 5397783538776168086,
                 "X3Y12_7": -3481288177973403176}
        subtrees = {("AB", "A B"): 4452306862240095665, ("AB_1", "AB"): 7953972255112099730,
                    ("ABlBr_2", "ABlBr_1"): -1842331895786858656,
                    ("ABCDlDr", "ABC DlDr"): 7500801053723699139}
        assert {t: hash(P(t)) for t in pieces} == pieces
        assert {t: hash(N(t)) for t in nodes} == nodes
        assert {
            (parent, kids): hash(DepthOneSubtree(N(parent), tuple(N(k) for k in kids.split())))
            for parent, kids in subtrees
        } == subtrees

    def test_hash_is_the_same_in_every_process(self):
        texts = ["A", "ABlBr", "BlBrFlFr_2", "X3Y12_7"]
        code = (
            "import json, sys\n"
            "from sewtree.labels import parse_node_label, parse_piece_label\n"
            "from sewtree.tree import DepthOneSubtree\n"
            "labels = [parse_node_label(t) for t in sys.argv[1:]]\n"
            "hashes = [hash(l) for l in labels] + [hash(parse_piece_label('Bl'))]\n"
            "hashes.append(hash(DepthOneSubtree(labels[1], (labels[0],))))\n"
            "print(json.dumps(hashes))\n"
        )
        outputs = []
        for seed in ("0", "123"):
            proc = run_fresh("-c", code, *texts, PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        labels = [parse_node_label(t) for t in texts]
        here = [hash(l) for l in labels] + [hash(parse_piece_label("Bl"))]
        here.append(hash(DepthOneSubtree(labels[1], (labels[0],))))
        assert outputs == [here, here]

    @pytest.mark.parametrize("parse", [parse_piece_label, parse_node_label])
    def test_memo_is_bounded(self, parse):
        assert parse.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "parse,bad",
        [(parse_piece_label, "A0"), (parse_piece_label, "ab"), (parse_node_label, "BA"),
         (parse_node_label, "AA"), (parse_node_label, "AB_x"), (parse_node_label, "")],
    )
    def test_malformed_label_raises_on_every_call(self, parse, bad):
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
