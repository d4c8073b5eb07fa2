import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.labels import (
    COPY,
    LEFT,
    PLAIN,
    RIGHT,
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    merge_labels,
    parse_node_label,
    parse_piece_label,
)
from sewtree.pipeline import InstructionDoc, StepExtraction, build_forest, placeholder_spec
from sewtree.tree import DepthOneSubtree, parse_serialized

from helpers import binary, label_text, leaf, run_fresh, serialize_node, unary


def P(text):
    return parse_piece_label(text)


def N(text):
    return parse_node_label(text)


class TestParsePieceLabel:
    @pytest.mark.parametrize(
        "text,base,variant,index",
        [
            ("A", "A", PLAIN, 0),
            ("Bl", "B", LEFT, 0),
            ("Br", "B", RIGHT, 0),
            ("X3", "X", COPY, 3),
            ("Z12", "Z", COPY, 12),
        ],
    )
    def test_valid(self, text, base, variant, index):
        piece = parse_piece_label(text)
        assert (piece.base, piece.variant, piece.copy_index) == (base, variant, index)

    @pytest.mark.parametrize("bad", ["", "ab", "a", "AB", "A0", "Al2", "1A", "A-1", "Ax"])
    def test_invalid(self, bad):
        with pytest.raises(LabelError):
            parse_piece_label(bad)

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
        with pytest.raises(LabelError):
            merge_labels(N("AB"), N("BC"))

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


class TestBumpSelfAttach:
    @pytest.mark.parametrize("label", ["AB", "A", "BlFl"])
    def test_increments_by_one(self, label):
        bumped = bump_self_attach(N(label))
        assert bumped.pieces == N(label).pieces
        assert bumped.self_attach == N(label).self_attach + 1

    def test_from_table_examples(self):
        assert bump_self_attach(N("AB")) == N("AB_1")
        assert bump_self_attach(N("BlFl")) == N("BlFl_1")


piece_labels = hs.one_of(
    hs.builds(PieceLabel, hs.sampled_from("ABCDEFG"), hs.sampled_from([PLAIN, LEFT, RIGHT])),
    hs.builds(PieceLabel, hs.sampled_from("ABCDEFG"), hs.just(COPY), hs.integers(1, 12)),
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

    steps = [StepExtraction(0, label.pieces)] if rest else []
    steps += [StepExtraction(len(steps) + i, (first,)) for i in range(counter)]
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
            (piece, PieceLabel(piece.base, piece.variant, piece.copy_index)),
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
        [(PieceLabel("A"), "base"), (PieceLabel("X", COPY, 3), "copy_index"),
         (NodeLabel((PieceLabel("A"),), 1), "self_attach"), (NodeLabel((PieceLabel("A"),)), "pieces"),
         (DepthOneSubtree(NodeLabel((PieceLabel("A"),), 1), (NodeLabel((PieceLabel("A"),)),)), "parent"),
         (PieceLabel("A"), "_hash"), (PieceLabel("B", LEFT), "_text"),
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
