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


class LabelError(ValueError):
    """A piece or node label could not be parsed or combined."""


PLAIN = "plain"
LEFT = "left"
RIGHT = "right"
COPY = "copy"

_VARIANT_RANK = {PLAIN: 0, LEFT: 1, RIGHT: 2, COPY: 3}
_VARIANT_SUFFIX = {PLAIN: "", LEFT: "l", RIGHT: "r"}

_PIECE_RE = re.compile(r"([A-Z])(l|r|[0-9]+)?")


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
    """One pattern piece: a base letter plus a mirror/copy variant."""

    __slots__ = ("base", "variant", "copy_index", "_key", "_hash", "_text")

    def __init__(self, base: str, variant: str = PLAIN, copy_index: int = 0) -> None:
        if len(base) != 1 or not "A" <= base <= "Z":
            raise LabelError(f"piece base must be one letter A-Z, got {base!r}")
        rank = _VARIANT_RANK.get(variant)
        if rank is None:
            raise LabelError(f"unknown piece variant {variant!r}")
        if variant == COPY:
            if copy_index < 1:
                raise LabelError(f"copy index must be >= 1, got {copy_index}")
        elif copy_index != 0:
            raise LabelError("copy_index is only meaningful for the copy variant")
        set_slot = object.__setattr__
        set_slot(self, "base", base)
        set_slot(self, "variant", variant)
        set_slot(self, "copy_index", copy_index)
        # Base letter first; l/r and copy numbers only break ties within a base.
        set_slot(self, "_key", (base, rank, copy_index))
        set_slot(self, "_hash", hash((ord(base), rank, copy_index)))
        suffix = str(copy_index) if variant == COPY else _VARIANT_SUFFIX[variant]
        set_slot(self, "_text", base + suffix)

    def __reduce__(self):
        return self.__class__, (self.base, self.variant, self.copy_index)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def sort_key(self) -> tuple[str, int, int]:
        return self._key

    def __lt__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self._key < other._key

    def __le__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self._key <= other._key

    def __gt__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self._key > other._key

    def __ge__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self._key >= other._key

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return (
            f"PieceLabel(base={self.base!r}, variant={self.variant!r}, "
            f"copy_index={self.copy_index!r})"
        )


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def parse_piece_label(text: str) -> PieceLabel:
    """Parse one piece label; inverse of :func:`str` on :class:`PieceLabel`,
    so a copy index with a leading zero is refused.  Memoized: equal texts
    give one shared label (a bad text raises each time)."""
    if not text:
        raise LabelError("empty piece label")
    m = _PIECE_RE.fullmatch(text)
    if m is None:
        raise LabelError(f"malformed piece label {text!r}")
    base, suffix = m.group(1), m.group(2)
    if suffix is None:
        return PieceLabel(base)
    if suffix == "l":
        return PieceLabel(base, LEFT)
    if suffix == "r":
        return PieceLabel(base, RIGHT)
    index = int(suffix)
    if index < 1:
        raise LabelError(f"copy index must be >= 1 in {text!r}")
    if suffix[0] == "0":
        raise LabelError(f"copy index has a leading zero in {text!r}")
    return PieceLabel(base, COPY, index)


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

    pieces: list[PieceLabel] = []
    pos = 0
    while pos < len(body):
        m = _PIECE_RE.match(body, pos)
        if m is None:
            raise LabelError(f"malformed node label {text!r} at position {pos}")
        pieces.append(parse_piece_label(m.group(0)))
        pos = m.end()
    if not pieces:
        raise LabelError(f"node label {text!r} has no pieces")
    try:
        return NodeLabel(tuple(pieces), counter)
    except LabelError as exc:
        raise LabelError(f"{text!r}: {exc}") from exc


def merge_labels(a: NodeLabel, b: NodeLabel) -> NodeLabel:
    """Label of the component formed by attaching two disjoint components.

    The pieces are the sorted union; the counter is the larger of the two.
    """
    overlap = a.piece_set & b.piece_set
    if overlap:
        shared = ", ".join(sorted(str(p) for p in overlap))
        raise LabelError(f"cannot merge {a} and {b}: shared pieces {shared}")
    pieces = tuple(sorted(a.pieces + b.pieces))
    return NodeLabel(pieces, max(a.self_attach, b.self_attach))


def child_order_key(label: NodeLabel) -> tuple[str, int, int]:
    """Sort key that puts the two children of a merge in canonical order:
    by their first piece."""
    return label.pieces[0]._key


def bump_self_attach(a: NodeLabel) -> NodeLabel:
    """Label after sewing the component to itself once."""
    return NodeLabel(a.pieces, a.self_attach + 1)


def attachment_violations(
    parent: NodeLabel, children: tuple[NodeLabel, ...]
) -> list[tuple[str, str]]:
    """Label arithmetic of one assembly step as ``(kind, detail)`` pairs.

    A unary step sews a component to itself: same pieces, counter plus one.
    A binary step joins two disjoint components that cover the parent, which
    takes the larger counter.  Empty iff the step is valid.
    """
    out: list[tuple[str, str]] = []
    if len(children) == 1:
        (child,) = children
        if child.pieces != parent.pieces:
            out.append(("unary-pieces", "unary child must have the same pieces"))
        if child.self_attach != parent.self_attach - 1:
            out.append(("unary-counter", "unary child counter must be parent's minus 1"))
    elif len(children) == 2:
        a, b = children
        if a.piece_set & b.piece_set:
            out.append(("binary-disjoint", "children share pieces"))
        elif a.piece_set | b.piece_set != parent.piece_set:
            out.append(("binary-union", "children's pieces do not cover the parent"))
        if parent.self_attach != max(a.self_attach, b.self_attach):
            out.append(("binary-counter", "parent counter must be the children's max"))
    else:
        out.append(("arity", f"{len(children)} children, 1 or 2 allowed"))
    return out
