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
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering


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
# in every process, so a pickled or ``dataclasses.replace``d label keeps a
# valid hash whatever PYTHONHASHSEED is.  Slots keep a label no larger than
# it was without the cached hash.

# Distinct texts each label parser remembers; bounded, so a long run of
# varied labels cannot grow the memo without end.
_LABEL_MEMO_SIZE = 4096


@total_ordering
@dataclass(frozen=True, slots=True)
class PieceLabel:
    """One pattern piece: a base letter plus a mirror/copy variant."""

    base: str
    variant: str = PLAIN
    copy_index: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.base) != 1 or not "A" <= self.base <= "Z":
            raise LabelError(f"piece base must be one letter A-Z, got {self.base!r}")
        if self.variant not in _VARIANT_RANK:
            raise LabelError(f"unknown piece variant {self.variant!r}")
        if self.variant == COPY:
            if self.copy_index < 1:
                raise LabelError(f"copy index must be >= 1, got {self.copy_index}")
        elif self.copy_index != 0:
            raise LabelError("copy_index is only meaningful for the copy variant")
        object.__setattr__(
            self, "_hash", hash((ord(self.base), _VARIANT_RANK[self.variant], self.copy_index))
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple[str, int, int]:
        # Base letter first; l/r and copy numbers only break ties within a base.
        return (self.base, _VARIANT_RANK[self.variant], self.copy_index)

    def __lt__(self, other: "PieceLabel") -> bool:
        if not isinstance(other, PieceLabel):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.variant == COPY:
            return f"{self.base}{self.copy_index}"
        return f"{self.base}{_VARIANT_SUFFIX[self.variant]}"


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def parse_piece_label(text: str) -> PieceLabel:
    """Parse one piece label; inverse of :func:`str` on :class:`PieceLabel`.
    Memoized: equal texts give one shared label (a bad text raises each time)."""
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
    return PieceLabel(base, COPY, index)


@dataclass(frozen=True, slots=True)
class NodeLabel:
    """A component label: sorted distinct pieces plus a self-attachment counter."""

    pieces: tuple[PieceLabel, ...]
    self_attach: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.pieces:
            raise LabelError("node label needs at least one piece")
        if self.self_attach < 0:
            raise LabelError(f"negative self-attachment counter {self.self_attach}")
        for prev, cur in zip(self.pieces, self.pieces[1:]):
            if not prev < cur:
                raise LabelError(
                    f"pieces must be strictly sorted, got {prev} before {cur}"
                )
        object.__setattr__(
            self, "_hash", hash((*(p._hash for p in self.pieces), self.self_attach))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def piece_set(self) -> frozenset[PieceLabel]:
        return frozenset(self.pieces)

    def __str__(self) -> str:
        return format_node_label(self)


def format_node_label(label: NodeLabel) -> str:
    body = "".join(str(p) for p in label.pieces)
    if label.self_attach:
        return f"{body}_{label.self_attach}"
    return body


def split_counter(text: str) -> tuple[str, int]:
    """``text`` split at its ``_n`` self-attachment suffix: the text before
    it and n, or ``text`` and 0 without one."""
    body, sep, counter_text = text.partition("_")
    if sep and not (counter_text.isascii() and counter_text.isdigit()):
        raise LabelError(f"malformed self-attachment counter in {text!r}")
    return body, int(counter_text) if sep else 0


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def parse_node_label(text: str) -> NodeLabel:
    """Parse a concatenated node label such as ``ABlBr`` or ``BlBrFlFr_2``.
    Memoized like :func:`parse_piece_label`."""
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
    return label.pieces[0].sort_key()


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
