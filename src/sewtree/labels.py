"""Piece labels and canonical node labels for garment assembly trees.

A piece label is a single capital letter, optionally suffixed with ``l``/``r``
for a mirrored pair or with a positive integer for unmirrored copies
(``A``, ``Bl``, ``Br``, ``X3``).  A node label is a strictly sorted
concatenation of distinct piece labels plus a self-attachment counter,
displayed as a ``_n`` suffix and omitted when the counter is zero
(``ABlBr``, ``AB_1``).

A label is its text: :func:`piece_key` and :func:`label_pieces` check a
text, and :class:`LabelReader` reads texts into the facts that all label
arithmetic reads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache


class LabelError(ValueError):
    """A piece or node label text is not a label's text."""


# The piece-label format: a base letter, then ``l``/``r`` or a copy number.
_PIECE_RE = re.compile(r"[A-Z](?:[lr]|[0-9]+)?")
# A piece sorts by its base letter, then plain, left, right and copies
# (rank 3), then by copy number.
_SUFFIX_RANK = {"": 0, "l": 1, "r": 2}


# Distinct texts each label reader remembers; bounded, so a long run of
# varied labels cannot grow the memo without end.
_LABEL_MEMO_SIZE = 4096


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def piece_key(text: str) -> tuple[str, int, int]:
    """The sort key of the piece label ``text``, which it checks: base
    letter, then plain, left, right and copies, then copy number.  A copy
    number with a leading zero is refused, so a piece has one text.
    Memoized: a text seen before costs one C-level lookup (a bad text
    raises each time)."""
    if not text:
        raise LabelError("empty piece label")
    if _PIECE_RE.fullmatch(text) is None:
        raise LabelError(f"malformed piece label {text!r}")
    base, suffix = text[0], text[1:]
    rank, index = _SUFFIX_RANK.get(suffix), 0
    if rank is None:
        rank, index = 3, int(suffix)
        if index < 1:
            raise LabelError(f"copy index must be >= 1 in {text!r}")
        if suffix[0] == "0":
            raise LabelError(f"copy index has a leading zero in {text!r}")
    return base, rank, index


def split_counter(text: str) -> tuple[str, int]:
    """``text`` split at its ``_n`` self-attachment suffix: the text before
    it and n, or ``text`` and 0 without one.  n is positive and written
    without leading zeros."""
    body, sep, counter_text = text.partition("_")
    if not sep:
        return text, 0
    if not (counter_text.isascii() and counter_text.isdigit()):
        raise LabelError(f"malformed self-attachment counter in {text!r}")
    # A zero counter is written as no suffix, and a counter as its digits
    # alone: any other text would be a second text of the label.
    if counter_text[0] == "0":
        raise LabelError(f"self-attachment counter is 0 or has a leading zero in {text!r}")
    return body, int(counter_text)


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def label_pieces(text: str) -> tuple[tuple[str, ...], int]:
    """The piece texts and counter of the node label ``text``, such as
    ``ABlBr`` or ``BlBrFlFr_2``, which it checks: every piece, then that
    the pieces are strictly sorted.  Memoized like :func:`piece_key`."""
    if not text:
        raise LabelError("empty node label")
    body, counter = split_counter(text)

    # The matches tile the body iff they join to it; else the scan finds
    # the first position no piece starts at.
    pieces = tuple(_PIECE_RE.findall(body))
    if "".join(pieces) != body:
        pos = 0
        while (m := _PIECE_RE.match(body, pos)) is not None:
            pos = m.end()
        raise LabelError(f"malformed node label {text!r} at position {pos}")
    if not pieces:
        raise LabelError(f"node label {text!r} has no pieces")
    try:
        keys = list(map(piece_key, pieces))
        for i in range(1, len(keys)):
            if not keys[i - 1] < keys[i]:
                low, high = pieces[i - 1], pieces[i]
                raise LabelError(f"pieces must be strictly sorted, got {low} before {high}")
    except LabelError as exc:
        raise LabelError(f"{text!r}: {exc}") from exc
    return pieces, counter


# A label body cut before each capital letter.  Where every cut is the
# text of an inventory piece, each of which ``_PIECE_RE`` matches whole,
# the cuts are that regex's pieces; this one scans in half the time.
_CUTS_RE = re.compile(r"[A-Z][lr0-9]*")


# The facts of a label, which is all that the label arithmetic reads:
# ``(piece count, counter, text, mask)``, where bit i of the mask is the
# i-th piece of an order of pieces shared by every label compared (a
# grammar's inventory, or a tree's pieces), sorted as the pieces sort.  A
# row of facts sorts by piece count, then counter, then text.


class LabelReader(dict):
    """The facts of each label text over one inventory of piece texts,
    their masks over it: a text is read on its first lookup, and a text
    seen before costs one dict lookup and no Python call.  ``bits`` maps
    each piece to its bit in piece order, the one order of pieces: every
    inventory is held in it.  ``unknown`` maps each label with pieces
    outside the inventory to those pieces' texts, in order and joined for
    a message; such a label is only ever named for them, so its mask is 0.
    :meth:`pieces`, :meth:`join` and :meth:`bump` take and return texts;
    the last two keep the facts of the parent they compose, so a spec's
    reader remembers each distinct label its run's builds make (fewer than
    the trace entries a scoring run holds)."""

    __slots__ = ("bits", "unknown")

    def __init__(self, inventory: Iterable[str]) -> None:
        super().__init__()
        self.bits = {p: 1 << i for i, p in enumerate(sorted(inventory, key=piece_key))}
        self.unknown: dict[str, str] = {}

    def __missing__(self, text: str) -> tuple[int, int, str, int]:
        body, counter = split_counter(text) if "_" in text else (text, 0)
        names = _CUTS_RE.findall(body)
        bits = self.bits
        # Pieces of the inventory in strictly ascending bits, which tile
        # the body: a well-formed label over the inventory.
        mask = 0
        for name in names:
            bit = bits.get(name, 0)
            if bit <= mask:
                break
            mask |= bit
        else:
            if mask and "".join(names) == body:
                facts = self[text] = (len(names), counter, text, mask)
                return facts
        # Any other text either is no label, and ``label_pieces`` says
        # why, or holds a piece outside the inventory.
        names = label_pieces(text)[0]
        self.unknown[text] = ", ".join([name for name in names if name not in bits])
        facts = self[text] = (len(names), counter, text, 0)
        return facts

    def pieces(self, text: str) -> list[str]:
        """The texts of the pieces of the label ``text``, in piece order."""
        mask = self[text][3]
        return [name for name, bit in self.bits.items() if bit & mask]

    def join(self, a: str, b: str) -> tuple[str, tuple[str, str]]:
        """The label of the component formed by attaching the disjoint
        components ``a`` and ``b``, and the two in canonical order: their
        pieces together and the larger counter, the child with the lowest
        bit first, as :func:`node_violations` checks a binary step."""
        count_a, counter_a, _, x = self[a]
        count_b, counter_b, _, y = self[b]
        counter, mask = max(counter_a, counter_b), x | y
        body = "".join([name for name, bit in self.bits.items() if bit & mask])
        parent = f"{body}_{counter}" if counter else body
        self[parent] = (count_a + count_b, counter, parent, mask)
        return parent, ((b, a) if y & -y < x & -x else (a, b))

    def bump(self, a: str) -> str:
        """The label of the component ``a`` after sewing it to itself once."""
        count, counter, text, mask = self[a]
        parent = f"{text.partition('_')[0]}_{counter + 1}"
        self[parent] = (count, counter + 1, parent, mask)
        return parent


def label_facts(labels: Iterable[str]) -> dict[str, tuple[int, int, str, int]]:
    """The facts of each of the label texts ``labels``, their masks over
    the sorted union of their pieces."""
    labels = set(labels)
    reader = LabelReader({piece for text in labels for piece in label_pieces(text)[0]})
    return {text: reader[text] for text in labels}


def node_violations(
    label: tuple[int, int, str, int], children: Sequence[tuple[int, int, str, int]]
) -> list[tuple[str, str]]:
    """The label arithmetic of one node of a tree or grammar, given as the
    facts of its label and of its children's, as ``(kind, detail)`` pairs;
    empty iff the node is valid.

    A leaf (no children) is one piece at counter 0.  A unary step sews a
    component to itself: same pieces, counter plus one.  A binary step joins
    two disjoint components that cover the parent, which takes the larger
    counter, and its children are in canonical order, by first piece: the
    lowest bit of each mask.
    """
    out: list[tuple[str, str]] = []
    count, counter, _, mask = label
    if not children:
        if count != 1:
            out.append(("leaf-pieces", "leaf must be a single piece"))
        if counter != 0:
            out.append(("leaf-counter", "leaf counter must be 0"))
    elif len(children) == 1:
        _, child_counter, _, child_mask = children[0]
        if child_mask != mask:
            out.append(("unary-pieces", "unary child must have the same pieces"))
        if child_counter != counter - 1:
            out.append(("unary-counter", "unary child counter must be parent's minus 1"))
    elif len(children) == 2:
        (_, a_counter, _, a), (_, b_counter, _, b) = children
        if a & b:
            out.append(("binary-disjoint", "children share pieces"))
        elif a | b != mask:
            out.append(("binary-union", "children's pieces do not cover the parent"))
        if counter != max(a_counter, b_counter):
            out.append(("binary-counter", "parent counter must be the children's max"))
        if a & -a > b & -b:
            out.append(("child-order", "children out of canonical order"))
    else:
        out.append(("arity", f"{len(children)} children, 1 or 2 allowed"))
    return out
