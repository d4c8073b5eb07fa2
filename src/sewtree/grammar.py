"""Gold grammars: per-pattern CFG rules whose derivations are the gold trees.

File format (UTF-8, line-based)::

    # comment
    pattern: skirt
    pieces: A B C
    roots: ABC_1
    AB -> A B
    AB_1 -> AB
    ABC_1 -> AB_1 C

``S`` (or ``S_n``) on the roots line abbreviates the full-inventory label with
counter ``n``, unless S itself is an inventory piece.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from functools import cached_property
from itertools import product

from .labels import (
    LabelError,
    PieceLabel,
    _piece_key,
    child_order_key,
    node_violations,
    parse_node_label,
    parse_piece_label,
    split_counter,
)
from .tree import bracket


class GrammarError(ValueError):
    """A grammar file is malformed or inconsistent; ``problems`` lists every
    violation found, one line each."""

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = problems or [message]


class CapExceededError(GrammarError):
    """The grammar derives more trees than the enumeration cap allows."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"grammar derives {count} trees, cap is {cap}")


DEFAULT_CAP = 100_000


# A label body cut before each capital letter.  Where every cut is the
# text of an inventory piece, each of which ``labels._PIECE_RE`` matches
# whole, the cuts are that regex's pieces; this one scans in half the time.
_CUTS_RE = re.compile(r"[A-Z][lr0-9]*")


class _LabelReader(dict):
    """The facts (``labels.py``) of each label text of one grammar, its
    masks over the inventory: a text is read on its first lookup, and a
    text seen before costs one dict lookup and no Python call.
    ``unknown`` maps each label with pieces outside the inventory to those
    pieces' texts, sorted and joined for a message; such a label is only
    ever named for them, so its mask is 0."""

    __slots__ = ("bits", "unknown")

    def __init__(self, inventory: frozenset[PieceLabel]) -> None:
        super().__init__()
        self.bits = {p._text: 1 << i for i, p in enumerate(sorted(inventory, key=_piece_key))}
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
        # Any other text either is no label, and ``parse_node_label`` says
        # why, or holds a piece outside the inventory.
        names = [p._text for p in parse_node_label(text).pieces]
        self.unknown[text] = ", ".join(sorted(name for name in names if name not in bits))
        facts = self[text] = (len(names), counter, text, 0)
        return facts


def rule_graph(
    facts: _LabelReader, roots: Iterable[str], rules: dict[str, tuple[str, ...]]
) -> tuple[tuple[str, ...], tuple, tuple[int, ...]]:
    """The rule table as a DAG over every label the roots and rules
    mention, children before parents, so a DP over derivations is one pass
    over the labels.  ``facts`` holds the facts of exactly those labels,
    ``roots`` their texts and ``rules`` each rule's parent and children
    texts by the rule's text, in rule order.  Returns ``(labels,
    expansions, root_positions)``:
    - ``labels``: the texts, sorted by (piece count, counter, text).
      Well-formed rules strictly shrink (pieces, then counter), so each
      child sorts before its parents, whatever the order of the rules;
    - ``expansions``: per label, each of its rules' texts in rule order
      with the positions of the rule's children in ``labels``; empty for a
      label no rule expands (a leaf);
    - ``root_positions``: the positions of the roots, each once.
    :func:`validate_grammar` reads it before it knows the rules are
    well-formed, so it is built whatever the rules are."""
    # Texts are distinct, so no two rows tie before the mask.
    labels = tuple([row[2] for row in sorted(facts.values())])
    position = {text: p for p, text in enumerate(labels)}
    expansions: list[list] = [[] for _ in labels]
    for text, (parent, *children) in rules.items():
        expansions[position[parent]].append((text, tuple(map(position.__getitem__, children))))
    return (
        labels,
        tuple(map(tuple, expansions)),
        tuple(dict.fromkeys([position[root] for root in roots])),
    )


class GoldGrammar:
    """A pattern's gold trees as rules, each a depth-1 subtree that is a valid
    assembly step over the inventory.  Its ``roots`` are label texts and its
    ``rules`` rule texts (``tree.rule_text``), each kept once, in first-seen
    order, so distinct derivations are distinct trees; it holds its
    :func:`rule_graph` as ``labels``, ``expansions`` and
    ``root_positions``.  Two grammars are equal when their pattern ids,
    inventories, roots and rules are.  It is valid however it was built:
    the constructor runs :func:`validate_grammar`'s check on the facts it
    has read and raises :class:`GrammarError` naming the pattern and the
    first three problems, all of them in ``problems``.  A root or rule
    text that cannot be read at all is a :class:`GrammarError` naming the
    text."""

    def __init__(
        self,
        pattern_id: str,
        inventory: frozenset[PieceLabel],
        roots: Iterable[str],
        rules: Iterable[str],
    ) -> None:
        # The texts are read as :func:`parse_grammar` reads a file's, but
        # each must be written as ``tree.rule_text`` writes it.
        facts = _LabelReader(inventory)
        roots = list(roots)
        parts: dict[str, tuple[str, ...]] = {}
        try:
            for text in roots:
                facts[text]
            for text in rules:
                parent, arrow, children = text.partition(" -> ")
                if not arrow:
                    raise LabelError("a rule is written 'parent -> children'")
                parts[text] = labels = (parent, *(children.split(" ") if children else ()))
                for label in labels:
                    facts[label]
        except LabelError as exc:
            raise GrammarError(f"pattern {pattern_id!r}: {text!r}: {exc}") from exc
        self._build(pattern_id, inventory, facts, roots, parts)

    @classmethod
    def _read(cls, pattern_id, inventory, facts, roots, rules) -> GoldGrammar:
        """The grammar of texts whose facts ``facts`` has read, as
        :func:`rule_graph` takes them."""
        grammar = cls.__new__(cls)
        grammar._build(pattern_id, inventory, facts, roots, rules)
        return grammar

    def _build(self, pattern_id, inventory, facts, roots, rules) -> None:
        self.pattern_id = pattern_id
        self.inventory = inventory
        self.labels, self.expansions, self.root_positions = rule_graph(facts, roots, rules)
        self.roots = tuple([self.labels[p] for p in self.root_positions])
        self.rules = tuple(rules)
        problems = _problems(self, facts)
        if problems:
            raise GrammarError(
                f"pattern {pattern_id!r}: invalid grammar: " + "; ".join(problems[:3]), problems
            )

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.pattern_id, self.inventory, self.roots, self.rules) == (
                other.pattern_id, other.inventory, other.roots, other.rules
            )
        return NotImplemented

    # The tables below are what ``metrics.grammar_score`` reads.  Each is
    # built on its first read, not by the constructor, so a grammar that is
    # only read, checked or enumerated pays nothing for them, and none is
    # changed once built.

    @cached_property
    def score_tables(self) -> tuple[tuple[int, ...], tuple[str, ...], tuple, dict]:
        """``(bare_sizes, bare_texts, parent_positions, rule_positions)``,
        built in one pass over the rule graph:
        - ``bare_sizes`` and ``bare_texts``: per label, the number of rules
          g and the text of its tree with the fewest rules, ties going to
          the smallest text.  When no predicted rule lies on or below a
          label, none of its trees matches one, and at a given number of
          matches a tree over the label scores best through this one.
          Serializations of one label are never prefixes of each other, so
          this tree takes its children's;
        - ``parent_positions``: per label, the positions of the labels with
          a rule over it, in order (a label with two rules over one child
          is listed twice);
        - ``rule_positions``: per rule text, its label's position."""
        sizes: list[int] = []
        texts: list[str] = []
        parents: list[list[int]] = [[] for _ in self.labels]
        rule_positions: dict[str, int] = {}
        for p, (name, expansions) in enumerate(zip(self.labels, self.expansions)):
            best_g, best_text = 0, name  # a leaf's, where no rule expands the label
            for rule, kids in expansions:
                rule_positions[rule] = p
                g = 1
                for c in kids:
                    g += sizes[c]
                    parents[c].append(p)
                if best_g and g > best_g:
                    continue
                # ``tree.bracket``'s text, written out: the call and its join
                # took half of this pass.
                if len(kids) == 1:
                    text = f"({name} {texts[kids[0]]})"
                else:
                    text = f"({name} {texts[kids[0]]} {texts[kids[1]]})"
                if not best_g or g < best_g or text < best_text:
                    best_g, best_text = g, text
            sizes.append(best_g)
            texts.append(best_text)
        return tuple(sizes), tuple(texts), tuple(map(tuple, parents)), rule_positions

    @cached_property
    def smallest_tree(self) -> str:
        """The smallest text of every tree the roots derive: the best gold
        tree when every tree scores F1 = 0."""
        smallest: list[str] = []
        for name, expansions in zip(self.labels, self.expansions):
            smallest.append(
                min([bracket(name, [smallest[c] for c in kids]) for _, kids in expansions])
                if expansions else name
            )
        return min([smallest[p] for p in self.root_positions])


def parse_grammar(text: str) -> GoldGrammar:
    """Parse a grammar file, refusing with the line number what reading a
    line needs: the headers, label syntax, the ``S`` roots and each line's
    shape.  The rest is the :class:`GoldGrammar` constructor's.  A binary
    rule's children are put in canonical order, and each distinct label
    text is read once per call, into its facts, and is made no object."""
    pattern_id: str | None = None
    inv: frozenset[PieceLabel] | None = None
    facts: _LabelReader | None = None
    roots_line: tuple[int, str] | None = None
    rules: dict[str, tuple[str, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # Most lines are rules, so a rule is tried first; a header's value
        # may hold "->" too.
        if "->" in line and not line.startswith(("pattern:", "pieces:", "roots:")):
            lhs, _, rhs = line.partition("->")
            if facts is None:
                raise GrammarError(f"line {lineno}: rule before pieces header")
            parent = lhs.strip()
            children = rhs.split()
            try:
                facts[parent]
                if len(children) == 2:
                    a, b = children
                    x, y = facts[a][3], facts[b][3]
                else:
                    for child in children:
                        facts[child]
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            # Child order in the file is presentational; canonicalize it.
            if len(children) == 2:
                if facts.unknown:
                    # An unknown piece has no bit; its sort key orders it.
                    x, y = (child_order_key(parse_node_label(t)) for t in children)
                else:
                    # The first piece is the lowest bit of a mask.
                    x, y = x & -x, y & -y
                if y < x:
                    a, b = b, a
                rules.setdefault(f"{parent} -> {a} {b}", (parent, a, b))
            else:
                rules.setdefault(f"{parent} -> {' '.join(children)}", (parent, *children))
            continue
        if line.startswith("pattern:"):
            value = line[len("pattern:"):].strip()
            if pattern_id is not None and value != pattern_id:
                raise GrammarError(f"line {lineno}: conflicting pattern header {value!r}")
            if not value:
                raise GrammarError(f"line {lineno}: empty pattern id")
            pattern_id = value
            continue
        if line.startswith("pieces:"):
            if inv is not None:
                raise GrammarError(f"line {lineno}: duplicate pieces header")
            try:
                pieces = [parse_piece_label(t) for t in line[len("pieces:"):].split()]
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not pieces:
                raise GrammarError(f"line {lineno}: empty piece inventory")
            inv = frozenset(pieces)
            if len(inv) != len(pieces):
                raise GrammarError(f"line {lineno}: duplicate pieces in inventory")
            facts = _LabelReader(inv)
            continue
        if line.startswith("roots:"):
            if roots_line is not None:
                raise GrammarError(f"line {lineno}: duplicate roots header")
            roots_line = (lineno, line[len("roots:"):].strip())
            continue
        raise GrammarError(f"line {lineno}: unrecognized line {line!r}")

    if pattern_id is None:
        raise GrammarError("missing pattern header")
    if inv is None:
        raise GrammarError("missing pieces header")
    if roots_line is None:
        raise GrammarError("missing roots header")

    lineno, roots_text = roots_line
    roots: list[str] = []
    for token in roots_text.split():
        try:
            if token == "S" or token.startswith("S_"):
                _, counter = split_counter(token)
                if "S" not in facts.bits:
                    full = "".join(facts.bits)
                    token = f"{full}_{counter}" if counter else full
            facts[token]
        except LabelError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from exc
        roots.append(token)
    return GoldGrammar._read(pattern_id, inv, facts, roots, rules)


def validate_grammar(g: GoldGrammar) -> list[str]:
    """The problems of ``g``, one line each; empty iff it is valid.  It
    reads the facts of ``g``'s labels from their texts; the
    :class:`GoldGrammar` constructor runs the same check on the facts it
    has read, so it is the one judge of validity.  First each root, then each rule, that is not a valid step
    over the inventory, named: pieces the inventory lacks, not 1 or 2
    children, label arithmetic that :func:`node_violations` refuses.  Only
    if there are none, so that a bad rule has no follow-on problems: no
    roots; non-leaf labels no rule expands, by name; rules no root reaches,
    in rule order; roots missing pieces."""
    return _problems(g, _LabelReader(g.inventory))


def _problems(g: GoldGrammar, reader: _LabelReader) -> list[str]:
    """:func:`validate_grammar` of ``g``, whose labels' facts ``reader``
    reads; the constructor passes the one that read its texts."""
    labels, unknown = g.labels, reader.unknown
    facts = [reader[text] for text in labels]
    out = [
        f"root {labels[p]}: unknown pieces {unknown[labels[p]]}"
        for p in g.root_positions if labels[p] in unknown
    ]
    # Rules are checked label by label and named in rule order.
    bad = {}
    for p, expansions in enumerate(g.expansions):
        for text, kids in expansions:
            outside = unknown and [unknown[labels[q]] for q in (p, *kids) if labels[q] in unknown]
            if outside:
                bad[text] = f"{text}: unknown pieces {outside[0]}"
            elif not 1 <= len(kids) <= 2:
                bad[text] = f"{text}: rules need 1 or 2 children"
            elif problems := node_violations(facts[p], tuple(map(facts.__getitem__, kids))):
                bad[text] = f"{text}: {problems[0][1]}"
    if bad:
        out += [bad[text] for text in g.rules if text in bad]
    if out:
        return out

    # Every rule now strictly shrinks, so children sit below their parents
    # and one pass down the positions marks every label a root reaches.
    reached = [False] * len(labels)
    for p in g.root_positions:
        reached[p] = True
    for p in reversed(range(len(reached))):
        if reached[p]:
            for _, kids in g.expansions[p]:
                for c in kids:
                    reached[c] = True
    unexpanded = [
        labels[p]
        for p, expansions in enumerate(g.expansions)
        if not expansions and node_violations(facts[p], ())
    ]
    out = [] if g.root_positions else ["no roots"]
    out += [f"{name}: no rule expands this non-leaf label" for name in sorted(unexpanded)]
    unreached = {
        text for p, expansions in enumerate(g.expansions) if not reached[p] for text, _ in expansions
    }
    if unreached:
        out += [f"{text}: no root reaches this rule" for text in g.rules if text in unreached]
    full = (1 << len(g.inventory)) - 1
    for p in g.root_positions:
        if facts[p][3] != full:
            out.append(f"root {labels[p]}: does not cover the full piece inventory")
    return out


def _derivation_counts(g: GoldGrammar) -> list[int]:
    """Derivation count per label via a DP over the rule graph.

    count(leaf) = 1; count(label) = sum over its rules of the product of the
    children's counts.  A valid grammar expands every label but its leaves.
    """
    counts: list[int] = []
    for rules in g.expansions:
        counts.append(sum(math.prod(counts[c] for c in kids) for _, kids in rules) if rules else 1)
    return counts


def count_derivations(g: GoldGrammar) -> dict[str, int]:
    """Derivation count per root label text, by :func:`_derivation_counts`."""
    counts = _derivation_counts(g)
    return {root: counts[p] for root, p in zip(g.roots, g.root_positions)}


def enumerate_gold_trees(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[str, ...]:
    """The canonical serializations of all derivation trees from all roots
    of the grammar, sorted.  Rules and roots are distinct, so distinct
    derivations are distinct trees.

    Counts first and raises :class:`CapExceededError` rather than enumerating
    past ``cap``.  The texts are composed over the rule graph, children
    first: a leaf is its label, and a rule brackets every combination of its
    children's texts (the derivation semiring over strings).
    """
    counts = _derivation_counts(g)
    total = sum([counts[p] for p in g.root_positions])
    if total > cap:
        raise CapExceededError(total, cap)

    # A label's texts are dropped once its last parent is placed: on a unary
    # chain each label's texts contain its child's, and keeping them all
    # would hold characters quadratic in the chain's length.
    last_parent = {c: p for p, rules in enumerate(g.expansions) for _, kids in rules for c in kids}
    roots = set(g.root_positions)
    texts: list[list[str] | None] = []
    gold: list[str] = []
    for p, (name, expansions) in enumerate(zip(g.labels, g.expansions)):
        if expansions:
            level = [
                bracket(name, combo)
                for _, kids in expansions
                for combo in product(*[texts[c] for c in kids])
            ]
        else:
            level = [name]
        texts.append(level)
        if p in roots:
            gold.extend(level)
        for _, kids in expansions:
            for c in kids:
                if last_parent[c] == p:
                    texts[c] = None
    return tuple(sorted(gold))
