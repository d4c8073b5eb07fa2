"""Instruction ingestion: piece extraction, resolution, and forest building.

Walks a document step by step, mapping mentioned pieces to the intermediate
component currently containing them, and folds each step into a growing
forest: two resolved components merge, one resolved component self-attaches,
none leaves the state untouched.  The forest is written as text, each tree
in canonical bracket form, from the depth-1 subtrees the steps emit.
"""

from __future__ import annotations

import json
import re

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    child_order_key,
    merge_labels,
    parse_piece_label,
)
from .tree import DepthOneSubtree, canonical_serialize


_JSON_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _field(data, key: str, kind: type):
    """``data[key]``, checked to be of JSON type ``kind``; ValueError otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"field {key!r} must be {_JSON_TYPE_NAMES[kind]}")
    return data[key]


class PatternSpec:
    """Piece inventory of one pattern with human-readable piece names."""

    def __init__(self, pattern_id: str, pieces: dict[PieceLabel, str]) -> None:
        if not pieces:
            raise ValueError(f"pattern {pattern_id!r} has no pieces")
        self.pattern_id = pattern_id
        self.pieces = pieces
        self.inventory = frozenset(pieces)

    def name_of(self, piece: PieceLabel) -> str:
        return self.pieces.get(piece, f"Piece {piece}")

    @classmethod
    def from_json(cls, data: dict) -> "PatternSpec":
        pattern_id = _field(data, "pattern_id", str)
        pieces = {parse_piece_label(k): v for k, v in _field(data, "pieces", dict).items()}
        return cls(pattern_id, pieces)

    def to_json(self) -> dict:
        return {
            "pattern_id": self.pattern_id,
            "pieces": {str(k): v for k, v in sorted(self.pieces.items(), key=lambda kv: kv[0].sort_key())},
        }


class InstructionDoc:
    def __init__(self, pattern_id: str, doc_id: str, steps: tuple[str, ...]) -> None:
        self.pattern_id = pattern_id
        self.doc_id = doc_id
        self.steps = steps

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    @classmethod
    def from_json(cls, data: dict) -> "InstructionDoc":
        steps = _field(data, "steps", list)
        if not all(isinstance(step, str) for step in steps):
            raise ValueError("field 'steps' must be a list of strings")
        pattern_id = _field(data, "pattern_id", str)
        doc_id = _field(data, "doc_id", str)
        # Reports are written to <doc_id>.json, so the id must be a file name.
        if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\\0"):
            raise ValueError(f"field 'doc_id' must be a file name, got {doc_id!r}")
        return cls(pattern_id, doc_id, tuple(steps))

    def to_json(self) -> dict:
        return {"pattern_id": self.pattern_id, "doc_id": self.doc_id, "steps": list(self.steps)}


class StepExtraction:
    """Pieces mentioned in one step, in first-mention order, deduplicated."""

    def __init__(
        self,
        step_index: int,
        mentions: tuple[PieceLabel, ...],
        unknown: tuple[str, ...] = (),
        dropped: tuple[PieceLabel, ...] = (),
        source: str = "rule",
    ) -> None:
        self.step_index = step_index
        self.mentions = mentions
        self.unknown = unknown
        self.dropped = dropped
        self.source = source


class Diagnostic:
    def __init__(self, step_index: int, kind: str, message: str) -> None:
        self.step_index = step_index
        self.kind = kind
        self.message = message

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __str__(self) -> str:
        return f"step {self.step_index}: {self.kind}: {self.message}"


class BuildReport:
    def __init__(
        self,
        forest: tuple[str, ...],
        subtree_trace: tuple[tuple[int, DepthOneSubtree], ...],
        diagnostics: tuple[Diagnostic, ...],
    ) -> None:
        # Each root's canonical serialization, sorted; an isolated leaf is its label.
        self.forest = forest
        self.subtree_trace = subtree_trace
        self.diagnostics = diagnostics

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def subtrees(self) -> frozenset[DepthOneSubtree]:
        return frozenset(st for _, st in self.subtree_trace)

    def to_json(self) -> dict:
        return {
            "forest": {
                "trees": [t for t in self.forest if t.startswith("(")],
                "isolated_leaves": [t for t in self.forest if not t.startswith("(")],
            },
            "subtree_trace": [[i, str(st)] for i, st in self.subtree_trace],
            "diagnostics": [[d.step_index, d.kind, d.message] for d in self.diagnostics],
        }


# Verbs that mark a step as an attachment; bare stems, matched as word
# prefixes so inflections like "sewn" or "seams" count.
DEFAULT_ATTACHMENT_VERBS = frozenset({"sew", "stitch", "attach", "join", "close", "seam"})

_MENTION_RE = re.compile(r"\(([A-Za-z0-9]+)\)")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?;]")
_WORD_RE = re.compile(r"[a-z]+")


def _has_attachment_verb(sentence: str) -> bool:
    for word in _WORD_RE.findall(sentence.lower()):
        for verb in DEFAULT_ATTACHMENT_VERBS:
            if word.startswith(verb):
                return True
    return False


def extract_pieces_rule_based(step: str, spec: PatternSpec, step_index: int = 0) -> StepExtraction:
    """Collect parenthesized piece labels from a step, gated by attachment verbs.

    Mentions only count when some sentence contains both a known piece label
    and an attachment verb; finishing steps (hem, fold, press) mention pieces
    without attaching anything and must contribute no subtree.
    """
    inventory = spec.inventory
    mentions: list[PieceLabel] = []
    unknown: list[str] = []
    gate_open = False
    for sentence in _SENTENCE_SPLIT_RE.split(step):
        sentence_has_mention = False
        for token in _MENTION_RE.findall(sentence):
            try:
                piece = parse_piece_label(token)
            except LabelError:
                continue  # parenthetical prose, not a label
            if piece in inventory:
                sentence_has_mention = True
                if piece not in mentions:
                    mentions.append(piece)
            elif token not in unknown:
                unknown.append(token)
        if sentence_has_mention and _has_attachment_verb(sentence):
            gate_open = True
    if gate_open:
        return StepExtraction(step_index, tuple(mentions), tuple(unknown))
    return StepExtraction(step_index, (), tuple(unknown), dropped=tuple(mentions))


def extract_once_per_run(extract):
    """An extractor with ``extract``'s signature that calls ``extract`` once
    per distinct step text and inventory, for its own lifetime (one run),
    and answers a repeat from the kept extraction under the repeat's own
    ``step_index``.  A fallback is not kept, so the next occurrence of that
    step is extracted again.  ``extract`` must be a function of the step
    text and the inventory."""
    kept: dict[tuple[str, frozenset[PieceLabel]], StepExtraction] = {}

    def extractor(step: str, spec: PatternSpec, step_index: int = 0) -> StepExtraction:
        key = (step, spec.inventory)
        x = kept.get(key)
        if x is not None:
            return StepExtraction(step_index, x.mentions, x.unknown, x.dropped, x.source)
        x = extract(step, spec, step_index=step_index)
        if x.source != "fallback":
            kept[key] = x
        return x

    return extractor


def extract_document(doc: InstructionDoc, spec: PatternSpec, extractor=None) -> list[StepExtraction]:
    """Run an extractor over every step; defaults to the rule-based one."""
    if extractor is None:
        extractor = extract_pieces_rule_based
    return [extractor(step, spec, step_index=i) for i, step in enumerate(doc.steps)]


def extractions_to_json(doc: InstructionDoc, extractions: list[StepExtraction]) -> dict:
    return {
        "doc_id": doc.doc_id,
        "pieces_per_step": [[str(p) for p in x.mentions] for x in extractions],
    }


def resolve_components(
    x: StepExtraction, component_of: dict[PieceLabel, NodeLabel]
) -> list[NodeLabel]:
    """Map each mention to its containing component, then deduplicate.

    ``component_of`` maps each piece attached so far to the label of the
    component that now contains it; an unattached piece is its own leaf.
    """
    resolved: list[NodeLabel] = []
    for piece in x.mentions:
        label = component_of.get(piece)
        if label is None:
            label = NodeLabel((piece,), 0)
        if label not in resolved:
            resolved.append(label)
    return resolved


def apply_step(
    component_of: dict[PieceLabel, NodeLabel], resolved: list[NodeLabel], step_index: int
) -> tuple[list[DepthOneSubtree], list[Diagnostic]]:
    """Fold one step's resolved components into ``component_of``.

    One component self-attaches, two merge, three or more left-fold into a
    chain of merges with a diagnostic.  Mutates ``component_of``.
    """
    subtrees: list[DepthOneSubtree] = []
    diagnostics: list[Diagnostic] = []
    if not resolved:
        return subtrees, diagnostics
    if len(resolved) > 2:
        diagnostics.append(
            Diagnostic(
                step_index,
                "multi-component",
                f"{len(resolved)} components in one step, folding left to right",
            )
        )
    acc = resolved[0]
    if len(resolved) == 1:
        acc = bump_self_attach(acc)
        subtrees.append(DepthOneSubtree(acc, (resolved[0],)))
    for label in resolved[1:]:
        children = tuple(sorted((acc, label), key=child_order_key))
        acc = merge_labels(acc, label)
        subtrees.append(DepthOneSubtree(acc, children))
    for piece in acc.pieces:
        component_of[piece] = acc
    return subtrees, diagnostics


def build_forest(
    doc: InstructionDoc, extractions: list[StepExtraction], spec: PatternSpec
) -> BuildReport:
    """Fold the steps into depth-1 subtrees, then write the predicted
    forest from them as text."""
    if len(extractions) != len(doc.steps):
        raise ValueError("one extraction per step required")
    component_of: dict[PieceLabel, NodeLabel] = {}
    trace: list[tuple[int, DepthOneSubtree]] = []
    diagnostics: list[Diagnostic] = []
    for x in extractions:
        for token in x.unknown:
            diagnostics.append(
                Diagnostic(x.step_index, "unknown-label", f"({token}) is not in the inventory")
            )
        if x.dropped:
            names = ", ".join(str(p) for p in x.dropped)
            diagnostics.append(
                Diagnostic(x.step_index, "no-attachment-verb", f"ignored mentions [{names}]")
            )
        if x.source == "fallback":
            diagnostics.append(
                Diagnostic(x.step_index, "adapter-fallback", "adapter failed, used rule-based extraction")
            )
        resolved = resolve_components(x, component_of)
        subtrees, step_diags = apply_step(component_of, resolved, x.step_index)
        trace.extend((x.step_index, st) for st in subtrees)
        diagnostics.extend(step_diags)

    # Each label is the parent of at most one subtree and the child of at
    # most one, so the final components are the roots and each root's text
    # is written once, top down: a child's text is never copied into its
    # parent's, which on a long chain would copy characters quadratic in
    # its length.
    children_of = {st.parent: st.children for _, st in trace}
    components = dict.fromkeys(component_of.values())
    roots = [canonical_serialize(label, children_of) for label in components]
    roots.extend(str(p) for p in spec.inventory if p not in component_of)
    roots.sort()
    return BuildReport(tuple(roots), tuple(trace), tuple(diagnostics))


def linearize_gold_tree(tree, spec: PatternSpec) -> InstructionDoc:
    """Emit templated steps, bottom-up, that rebuild exactly ``tree``, a
    ``(root, children_of)`` pair.

    Each component is referred to by the name and label of its first piece;
    resolution maps that piece back to the component while rebuilding.
    """
    root, children_of = tree

    def mention(label: NodeLabel) -> str:
        piece = label.pieces[0]
        name = spec.name_of(piece)
        if label not in children_of:
            return f"{name} ({piece})"
        return f"component containing the {name} ({piece})"

    # Parents before children, right before left: the reverse of the
    # children-first, left-to-right order the steps go in.
    internal: list[NodeLabel] = []
    stack = [root]
    while stack:
        label = stack.pop()
        if label in children_of:
            internal.append(label)
            stack.extend(children_of[label])
    steps: list[str] = []
    for label in reversed(internal):
        kids = children_of[label]
        if len(kids) == 2:
            steps.append(f"Sew the {mention(kids[0])} to the {mention(kids[1])}.")
        else:
            steps.append(f"Sew the {mention(kids[0])} to itself.")
    doc_id = f"{spec.pattern_id}-{len(steps)}steps"
    return InstructionDoc(spec.pattern_id, doc_id, tuple(steps))


def placeholder_spec(pattern_id: str, inventory) -> PatternSpec:
    """Spec with generic piece names, for grammars without a pattern spec."""
    return PatternSpec(pattern_id, {p: f"Piece {p}" for p in sorted(inventory)})


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as they are.  Bytes that are
    not UTF-8 raise an ``OSError`` naming the file: like a file that cannot
    be opened, an I/O error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8: {exc}") from None


def _load_json(path, from_json):
    """``from_json`` of a JSON file; errors name the file.  Text that is not
    JSON stays a ``JSONDecodeError`` (an I/O error), a bad schema a
    ``ValueError`` (a validation error)."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    try:
        return from_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_doc(path) -> InstructionDoc:
    return _load_json(path, InstructionDoc.from_json)


def load_spec(path) -> PatternSpec:
    return _load_json(path, PatternSpec.from_json)
