"""Piece labels and canonical node labels for garment assembly trees.

A piece label is a single capital letter, optionally suffixed with ``l``/``r``
for a mirrored pair or with a positive integer for unmirrored copies
(``A``, ``Bl``, ``Br``, ``X3``).  A node label is a strictly sorted
concatenation of distinct piece labels plus a self-attachment counter,
displayed as a ``_n`` suffix and omitted when the counter is zero
(``ABlBr``, ``AB_1``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter


class LabelError(ValueError):
    """A piece or node label could not be parsed or combined."""


# The piece-label format: a base letter, then ``l``/``r`` or a copy number.
_PIECE_RE = re.compile(r"[A-Z](?:l|r|[0-9]+)?")
# A piece sorts by its base letter, then plain, left, right and copies
# (rank 3), then by copy number.
_SUFFIX_RANK = {"": 0, "l": 1, "r": 2}


# Labels are hashed on every set and dict lookup of a rule, so each one
# hashes once, at construction, from ints only: an int tuple hashes the same
# in every process, so a pickled or copied label keeps a valid hash whatever
# PYTHONHASHSEED is.  Each one also writes its text once, at construction
# (a node label from its pieces' texts), since every tree text and report
# is written from label texts.  Slots keep a label small.  The label types
# are written out by hand rather than as dataclasses: importing
# ``dataclasses`` and running its decorators took over half of
# ``import sewtree.cli``.

# Distinct texts each label parser remembers; bounded, so a long run of
# varied labels cannot grow the memo without end.
_LABEL_MEMO_SIZE = 4096


class _Frozen:
    """Base of the immutable value types: ``__init__`` sets the slots with
    ``object.__setattr__``, and assignment or deletion afterwards raises
    :class:`AttributeError`.  Each subclass pickles (and copies) by calling
    its constructor again, through ``__reduce__``, since restoring the slots
    one by one would assign to them."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PieceLabel(_Frozen):
    """One pattern piece, made from its text (``A``, ``Bl``, ``X3``), which
    it checks; ``str`` gives the text back, so a copy number with a leading
    zero is refused."""

    __slots__ = ("_key", "_hash", "_text")

    def __init__(self, text: str) -> None:
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
        set_slot = object.__setattr__
        set_slot(self, "_key", (base, rank, index))
        set_slot(self, "_hash", hash((ord(base), rank, index)))
        set_slot(self, "_text", text)

    def __reduce__(self):
        return self.__class__, (self._text,)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __lt__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self._key < other._key

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"PieceLabel({self._text!r})"


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def parse_piece_label(text: str) -> PieceLabel:
    """:class:`PieceLabel` of ``text``, memoized: equal texts give one
    shared label (a bad text raises each time)."""
    return PieceLabel(text)


class NodeLabel(_Frozen):
    """A component label: sorted distinct pieces plus a self-attachment counter."""

    __slots__ = ("pieces", "self_attach", "_hash", "_text")

    def __init__(self, pieces: tuple[PieceLabel, ...], self_attach: int = 0) -> None:
        if not pieces:
            raise LabelError("node label needs at least one piece")
        if self_attach < 0:
            raise LabelError(f"negative self-attachment counter {self_attach}")
        for prev, cur in zip(pieces, pieces[1:]):
            if not prev._key < cur._key:
                raise LabelError(
                    f"pieces must be strictly sorted, got {prev} before {cur}"
                )
        set_slot = object.__setattr__
        set_slot(self, "pieces", pieces)
        set_slot(self, "self_attach", self_attach)
        set_slot(self, "_hash", hash((*[p._hash for p in pieces], self_attach)))
        # A zero counter is written as no suffix.
        body = "".join([p._text for p in pieces])
        set_slot(self, "_text", f"{body}_{self_attach}" if self_attach else body)

    def __reduce__(self):
        return self.__class__, (self.pieces, self.self_attach)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.self_attach == other.self_attach and self.pieces == other.pieces
        return NotImplemented

    @property
    def piece_set(self) -> frozenset[PieceLabel]:
        return frozenset(self.pieces)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"NodeLabel(pieces={self.pieces!r}, self_attach={self.self_attach!r})"


def is_leaf(label: NodeLabel) -> bool:
    """Whether ``label`` is a leaf label: one piece, counter 0, as
    :func:`node_violations` checks a node without children."""
    return not node_violations(label, ())


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
    # alone: any other text would not be what ``str`` gives the label.
    if counter_text[0] == "0":
        raise LabelError(f"self-attachment counter is 0 or has a leading zero in {text!r}")
    return body, int(counter_text)


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def parse_node_label(text: str) -> NodeLabel:
    """Parse a concatenated node label such as ``ABlBr`` or ``BlBrFlFr_2``;
    inverse of :func:`str` on :class:`NodeLabel`.  Memoized like
    :func:`parse_piece_label`."""
    if not text:
        raise LabelError("empty node label")
    body, counter = split_counter(text)

    # The matches tile the body iff their lengths add up to it; else the
    # scan finds the first position no piece starts at.
    piece_texts = _PIECE_RE.findall(body)
    if sum(map(len, piece_texts)) != len(body):
        pos = 0
        while (m := _PIECE_RE.match(body, pos)) is not None:
            pos = m.end()
        raise LabelError(f"malformed node label {text!r} at position {pos}")
    if not piece_texts:
        raise LabelError(f"node label {text!r} has no pieces")
    try:
        return NodeLabel(tuple(map(parse_piece_label, piece_texts)), counter)
    except LabelError as exc:
        raise LabelError(f"{text!r}: {exc}") from exc


# Pieces sort by their keys, a C-level lookup, rather than through
# ``PieceLabel.__lt__``.
_piece_key = attrgetter("_key")


def _join(a: NodeLabel, b: NodeLabel) -> tuple[tuple[PieceLabel, ...], int]:
    """The pieces and counter of a binary step over ``a`` and ``b``: both
    children's pieces in one sorted tuple, where a shared piece occurs
    twice, and the larger counter."""
    return tuple(sorted(a.pieces + b.pieces, key=_piece_key)), max(a.self_attach, b.self_attach)


def merge_labels(a: NodeLabel, b: NodeLabel) -> NodeLabel:
    """Label of the component formed by attaching two disjoint components:
    the binary step of :func:`node_violations`."""
    pieces, counter = _join(a, b)
    try:
        # A shared piece occurs twice, so the pieces are not strictly sorted.
        return NodeLabel(pieces, counter)
    except LabelError:
        shared = ", ".join(sorted(str(p) for p in a.piece_set & b.piece_set))
        raise LabelError(f"cannot merge {a} and {b}: shared pieces {shared}") from None


def child_order_key(label: NodeLabel) -> tuple[str, int, int]:
    """Sort key that puts the two children of a merge in canonical order:
    by their first piece."""
    return label.pieces[0]._key


def bump_self_attach(a: NodeLabel) -> NodeLabel:
    """Label after sewing the component to itself once."""
    return NodeLabel(a.pieces, a.self_attach + 1)


def node_violations(
    label: NodeLabel, children: tuple[NodeLabel, ...]
) -> list[tuple[str, str]]:
    """The label arithmetic of one node of a tree or grammar, as ``(kind,
    detail)`` pairs; empty iff the node is valid.

    A leaf (no children) is one piece at counter 0.  A unary step sews a
    component to itself: same pieces, counter plus one.  A binary step joins
    two disjoint components that cover the parent, which takes the larger
    counter, and its children are in canonical order.
    """
    out: list[tuple[str, str]] = []
    if not children:
        if len(label.pieces) != 1:
            out.append(("leaf-pieces", "leaf must be a single piece"))
        if label.self_attach != 0:
            out.append(("leaf-counter", "leaf counter must be 0"))
    elif len(children) == 1:
        (child,) = children
        if child.pieces != label.pieces:
            out.append(("unary-pieces", "unary child must have the same pieces"))
        if child.self_attach != label.self_attach - 1:
            out.append(("unary-counter", "unary child counter must be parent's minus 1"))
    elif len(children) == 2:
        a, b = children
        pieces, counter = _join(a, b)
        if pieces != label.pieces:
            if a.piece_set & b.piece_set:
                out.append(("binary-disjoint", "children share pieces"))
            else:
                out.append(("binary-union", "children's pieces do not cover the parent"))
        if label.self_attach != counter:
            out.append(("binary-counter", "parent counter must be the children's max"))
        if child_order_key(a) > child_order_key(b):
            out.append(("child-order", "children out of canonical order"))
    else:
        out.append(("arity", f"{len(children)} children, 1 or 2 allowed"))
    return out
