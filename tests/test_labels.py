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
    format_node_label,
    merge_labels,
    parse_node_label,
    parse_piece_label,
)


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

    def test_format_omits_zero_counter(self):
        assert format_node_label(N("AB")) == "AB"
        assert format_node_label(N("AB_1")) == "AB_1"

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
        assert parse_node_label(format_node_label(label)) == label


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
