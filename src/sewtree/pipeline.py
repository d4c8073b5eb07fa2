"""Instruction ingestion: piece extraction, resolution, and forest building.

An extractor is a callable ``(step, spec) -> StepExtraction``: a function
of the step's text and the pattern's inventory alone, never of where the
step stands in its document.  :func:`extract_once_per_run` therefore
answers every repeat of a step with the one extraction it kept, so an
extraction is shared and must not be mutated.

:func:`build_forest` walks a document's extractions in order, mapping
mentioned pieces to the label text of the intermediate component currently
containing them, and folds each step into a growing forest, a fold over label
texts whose parents the spec's :class:`~sewtree.labels.LabelReader` composes:
two resolved components merge, one self-attaches, none leaves the state
untouched.  It alone numbers the steps, and writes every diagnostic and
trace entry from that position.  The forest is written as text, each tree
in canonical bracket form, from the depth-1 subtrees the steps emit; the
trace holds each subtree as its rule text (``tree.rule_text``).
"""

from __future__ import annotations

import json
import re

from .labels import LabelError, LabelReader, label_pieces, piece_key
from .tree import canonical_serialize, rule_text


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
    """Piece inventory of one pattern, its piece texts in piece order, with
    their human-readable names in ``pieces``, and the reader of its labels."""

    def __init__(self, pattern_id: str, pieces: dict[str, str]) -> None:
        if not pieces:
            raise ValueError(f"pattern {pattern_id!r} has no pieces")
        self.pattern_id = pattern_id
        self.reader = LabelReader(pieces)
        self.inventory = tuple(self.reader.bits)
        self.pieces = {p: pieces[p] for p in self.inventory}

    def name_of(self, piece: str) -> str:
        return self.pieces.get(piece, f"Piece {piece}")

    @classmethod
    def from_json(cls, data: dict) -> "PatternSpec":
        pattern_id = _field(data, "pattern_id", str)
        pieces = {}
        for key, name in _field(data, "pieces", dict).items():
            if not isinstance(name, str):
                raise ValueError(f"piece {key!r}: name must be a string, got {json.dumps(name)}")
            piece_key(key)
            pieces[key] = name
        return cls(pattern_id, pieces)

    def to_json(self) -> dict:
        return {
            "pattern_id": self.pattern_id,
            "pieces": dict(self.pieces),
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
    """Pieces mentioned in one step, in first-mention order, deduplicated.
    A run shares one extraction among all repeats of a step, so it is never
    mutated."""

    def __init__(
        self,
        mentions: tuple[str, ...],
        unknown: tuple[str, ...] = (),
        dropped: tuple[str, ...] = (),
        source: str = "rule",
    ) -> None:
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


class BuildReport:
    def __init__(
        self,
        forest: tuple[str, ...],
        subtree_trace: tuple[tuple[int, str], ...],
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

    def subtrees(self) -> frozenset[str]:
        return frozenset(text for _, text in self.subtree_trace)


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


def piece_mentions(text: str):
    """Each parenthesized token of ``text`` that is a piece label, as
    ``(piece, match)`` in text order; parenthetical prose is skipped."""
    for m in _MENTION_RE.finditer(text):
        piece = m.group(1)
        try:
            piece_key(piece)
        except LabelError:
            continue  # parenthetical prose, not a label
        yield piece, m


def extract_pieces_rule_based(step: str, spec: PatternSpec) -> StepExtraction:
    """Collect parenthesized piece labels from a step, gated by attachment verbs.

    Mentions only count when some sentence contains both a known piece label
    and an attachment verb; finishing steps (hem, fold, press) mention pieces
    without attaching anything and must contribute no subtree.
    """
    known = spec.pieces
    mentions: list[str] = []
    unknown: list[str] = []
    gate_open = False
    for sentence in _SENTENCE_SPLIT_RE.split(step):
        sentence_has_mention = False
        for piece, m in piece_mentions(sentence):
            if piece in known:
                sentence_has_mention = True
                if piece not in mentions:
                    mentions.append(piece)
            elif piece not in unknown:
                unknown.append(piece)
        if sentence_has_mention and _has_attachment_verb(sentence):
            gate_open = True
    if gate_open:
        return StepExtraction(tuple(mentions), tuple(unknown))
    return StepExtraction((), tuple(unknown), dropped=tuple(mentions))


def extract_once_per_run(extract):
    """An extractor that calls the extractor ``extract`` once per distinct
    step text and inventory, for its own lifetime (one run), and answers a
    repeat with the extraction it kept, shared.  A fallback is not kept, so
    the next occurrence of that step is extracted again."""
    kept: dict[tuple[str, tuple[str, ...]], StepExtraction] = {}

    def extractor(step: str, spec: PatternSpec) -> StepExtraction:
        key = (step, spec.inventory)
        x = kept.get(key)
        if x is None:
            x = extract(step, spec)
            if x.source != "fallback":
                kept[key] = x
        return x

    return extractor


def extract_document(doc: InstructionDoc, spec: PatternSpec, extractor=None) -> list[StepExtraction]:
    """Run an extractor over every step; defaults to the rule-based one."""
    if extractor is None:
        extractor = extract_pieces_rule_based
    return [extractor(step, spec) for step in doc.steps]


def extractions_to_json(doc: InstructionDoc, extractions: list[StepExtraction]) -> dict:
    return {
        "doc_id": doc.doc_id,
        "pieces_per_step": [list(x.mentions) for x in extractions],
    }


def resolve_components(mentions: tuple[str, ...], component_of: dict[str, str]) -> list[str]:
    """Map each mention to the label of its containing component, then
    deduplicate.

    ``component_of`` maps each piece attached so far to the label of the
    component that now contains it; an unattached piece is its own leaf,
    whose label is the piece's text.
    """
    resolved = []
    for piece in mentions:
        label = component_of.get(piece, piece)
        if label not in resolved:
            resolved.append(label)
    return resolved


def apply_step(
    component_of: dict[str, str], resolved: list[str], reader: LabelReader
) -> list[tuple[str, tuple[str, ...]]]:
    """Fold one step's resolved components into ``component_of`` and return
    the subtrees the step emits, each as its parent and children label
    texts; ``reader`` composes the parents' texts.

    One component self-attaches, two merge, three or more left-fold into a
    chain of merges.  Mutates ``component_of``.
    """
    subtrees: list[tuple[str, tuple[str, ...]]] = []
    if not resolved:
        return subtrees
    acc = resolved[0]
    if len(resolved) == 1:
        acc = reader.bump(acc)
        subtrees.append((acc, (resolved[0],)))
    for label in resolved[1:]:
        acc, children = reader.join(acc, label)
        subtrees.append((acc, children))
    for piece in reader.pieces(acc):
        component_of[piece] = acc
    return subtrees


def build_forest(
    doc: InstructionDoc, extractions: list[StepExtraction], spec: PatternSpec
) -> BuildReport:
    """Fold the steps into depth-1 subtrees, then write the predicted
    forest from them as text."""
    if len(extractions) != len(doc.steps):
        raise ValueError("one extraction per step required")
    component_of: dict[str, str] = {}
    children_of: dict[str, tuple[str, ...]] = {}
    trace: list[tuple[int, str]] = []
    diagnostics: list[Diagnostic] = []
    for step_index, x in enumerate(extractions):
        for token in x.unknown:
            diagnostics.append(
                Diagnostic(step_index, "unknown-label", f"({token}) is not in the inventory")
            )
        if x.dropped:
            names = ", ".join(x.dropped)
            diagnostics.append(
                Diagnostic(step_index, "no-attachment-verb", f"ignored mentions [{names}]")
            )
        if x.source == "fallback":
            diagnostics.append(
                Diagnostic(step_index, "adapter-fallback", "adapter failed, used rule-based extraction")
            )
        resolved = resolve_components(x.mentions, component_of)
        if len(resolved) > 2:
            message = f"{len(resolved)} components in one step, folding left to right"
            diagnostics.append(Diagnostic(step_index, "multi-component", message))
        for parent, children in apply_step(component_of, resolved, spec.reader):
            children_of[parent] = children
            trace.append((step_index, rule_text(parent, children)))

    # Each label is the parent of at most one subtree and the child of at
    # most one, so the final components are the roots and each root's text
    # is written once, top down: a child's text is never copied into its
    # parent's, which on a long chain would copy characters quadratic in
    # its length.
    components = set(component_of.values())
    roots = [canonical_serialize(label, children_of) for label in components]
    roots.extend(p for p in spec.inventory if p not in component_of)
    roots.sort()
    return BuildReport(tuple(roots), tuple(trace), tuple(diagnostics))


def _mention(label: str, spec: PatternSpec) -> str:
    piece = label_pieces(label)[0][0]
    name = spec.name_of(piece)
    if label == piece:  # a leaf is its one piece
        return f"{name} ({piece})"
    return f"component containing the {name} ({piece})"


def write_step(children: tuple[str, ...], spec: PatternSpec) -> str:
    """The templated step that sews a rule's one or two ``children`` into
    its parent.

    Each child is referred to by the name and label of its first piece;
    resolution maps that piece back to the child's component while
    rebuilding.  The text is a function of the children alone.
    """
    if len(children) == 2:
        return f"Sew the {_mention(children[0], spec)} to the {_mention(children[1], spec)}."
    return f"Sew the {_mention(children[0], spec)} to itself."


def linearize_gold_tree(tree, spec: PatternSpec) -> InstructionDoc:
    """Emit templated steps, bottom-up, that rebuild exactly ``tree``, a
    ``(root, children_of)`` pair of label texts: one :func:`write_step` per
    internal label.
    """
    root, children_of = tree
    # Parents before children, right before left: the reverse of the
    # children-first, left-to-right order the steps go in.
    internal: list[str] = []
    stack = [root]
    while stack:
        label = stack.pop()
        if label in children_of:
            internal.append(label)
            stack.extend(children_of[label])
    steps = [write_step(children_of[label], spec) for label in reversed(internal)]
    doc_id = f"{spec.pattern_id}-{len(steps)}steps"
    return InstructionDoc(spec.pattern_id, doc_id, tuple(steps))


def placeholder_spec(pattern_id: str, inventory) -> PatternSpec:
    """Spec with generic piece names, for grammars without a pattern spec."""
    return PatternSpec(pattern_id, {p: f"Piece {p}" for p in inventory})


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as they are, without the
    byte-order mark that spreadsheet tools put first (a U+FEFF anywhere
    else is content).  Bytes that are not UTF-8 raise an ``OSError`` naming
    the file: like a file that cannot be opened, an I/O error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8: {exc}") from None


def _load_json(path, from_json):
    """``from_json`` of a JSON file; errors name the file.  Text that is not
    JSON stays a ``JSONDecodeError`` (an I/O error), as does a value nested
    deeper than the decoder's recursion allows, and a bad schema a
    ``ValueError`` (a validation error)."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except RecursionError:
        start = len(text) - len(text.lstrip())
        raise json.JSONDecodeError(f"{path}: value nested too deeply", text, start) from None
    try:
        return from_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_doc(path) -> InstructionDoc:
    return _load_json(path, InstructionDoc.from_json)


def load_spec(path) -> PatternSpec:
    return _load_json(path, PatternSpec.from_json)
