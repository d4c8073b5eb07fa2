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
from collections.abc import Iterable
from functools import cached_property
from itertools import product

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    child_order_key,
    is_leaf,
    node_violations,
    parse_node_label,
    parse_piece_label,
    split_counter,
)
from .tree import DepthOneSubtree, bracket


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


def rule_graph(
    roots: tuple[NodeLabel, ...], rules: tuple[DepthOneSubtree, ...]
) -> tuple[tuple, tuple, tuple[int, ...]]:
    """The rule table as a DAG over every label the roots and rules
    mention, children before parents, so a DP over derivations is one pass
    over the labels.  Returns ``(labels, expansions, root_positions)``:
    - ``labels``: sorted by (piece count, counter, text).  Well-formed rules
      strictly shrink (pieces, then counter), so each child sorts before its
      parents, whatever the order of the rules;
    - ``expansions``: per label, each of its rules in rule order with the
      positions of the rule's children in ``labels``; empty for a label no
      rule expands (a leaf);
    - ``root_positions``: the positions of ``roots``.
    :func:`validate_grammar` reads it before it knows the rules are
    well-formed, so it is built whatever the rules are."""
    # Labels are keyed by their texts, which name them (``labels.py``).
    by_text = {}
    for root in roots:
        by_text[root._text] = root
    for rule in rules:
        by_text[rule.parent._text] = rule.parent
        for child in rule.children:
            by_text[child._text] = child
    # Texts are distinct, so no two rows tie before the label.
    rows = sorted([
        (len(label.pieces), label.self_attach, text, label) for text, label in by_text.items()
    ])
    position = {row[2]: p for p, row in enumerate(rows)}
    expansions: list[list] = [[] for _ in rows]
    for rule in rules:
        kids = []
        for child in rule.children:
            kids.append(position[child._text])
        expansions[position[rule.parent._text]].append((rule, tuple(kids)))
    return (
        tuple([row[3] for row in rows]),
        tuple(map(tuple, expansions)),
        tuple([position[root._text] for root in roots]),
    )


class GoldGrammar:
    """A pattern's gold trees as rules, each a depth-1 subtree that is a valid
    assembly step over the inventory.  It keeps each root and each rule once,
    in first-seen order, so distinct derivations are distinct trees, and
    holds its :func:`rule_graph` as ``labels``, ``expansions`` and
    ``root_positions``.  It is valid however it was built: the constructor
    runs :func:`validate_grammar` and raises :class:`GrammarError` naming
    the pattern and the first three problems, all of them in ``problems``."""

    def __init__(
        self,
        pattern_id: str,
        inventory: frozenset[PieceLabel],
        roots: Iterable[NodeLabel],
        rules: Iterable[DepthOneSubtree],
    ) -> None:
        self.pattern_id = pattern_id
        self.inventory = inventory
        self.roots: tuple[NodeLabel, ...] = tuple(dict.fromkeys(roots))
        self.rules: tuple[DepthOneSubtree, ...] = tuple(dict.fromkeys(rules))
        self.labels, self.expansions, self.root_positions = rule_graph(self.roots, self.rules)
        problems = validate_grammar(self)
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
        - ``rule_positions``: per rule, its label's position."""
        sizes: list[int] = []
        texts: list[str] = []
        parents: list[list[int]] = [[] for _ in self.labels]
        rule_positions: dict[DepthOneSubtree, int] = {}
        for p, (label, expansions) in enumerate(zip(self.labels, self.expansions)):
            name = label._text
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
        for label, expansions in zip(self.labels, self.expansions):
            name = label._text
            smallest.append(
                min([bracket(name, [smallest[c] for c in kids]) for _, kids in expansions])
                if expansions else name
            )
        return min([smallest[p] for p in self.root_positions])


def _full_inventory_label(inventory: frozenset[PieceLabel], counter: int) -> NodeLabel:
    return NodeLabel(tuple(sorted(inventory)), counter)


class _LabelMemo(dict):
    """Node labels by text for one read of a grammar: each distinct text is
    parsed on its first lookup, and a text seen before costs one dict
    lookup and no Python call."""

    __slots__ = ()

    def __missing__(self, text: str) -> NodeLabel:
        label = self[text] = parse_node_label(text)
        return label


def parse_grammar(text: str) -> GoldGrammar:
    """Parse a grammar file, refusing with the line number what reading a
    line needs: the headers, label syntax, the ``S`` roots and each line's
    shape.  The rest is the :class:`GoldGrammar` constructor's.  A binary
    rule's children are put in canonical order, and each distinct label
    text is parsed once per call."""
    pattern_id: str | None = None
    inv: frozenset[PieceLabel] | None = None
    known = _LabelMemo()
    roots_line: tuple[int, str] | None = None
    rules: list[DepthOneSubtree] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # Most lines are rules, so a rule is tried first; a header's value
        # may hold "->" too.
        if "->" in line and not line.startswith(("pattern:", "pieces:", "roots:")):
            lhs, _, rhs = line.partition("->")
            if inv is None:
                raise GrammarError(f"line {lineno}: rule before pieces header")
            try:
                parent = known[lhs.strip()]
                children = []
                for token in rhs.split():
                    children.append(known[token])
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            # Child order in the file is presentational; canonicalize it.
            if len(children) == 2 and child_order_key(children[1]) < child_order_key(children[0]):
                children.reverse()
            rules.append(DepthOneSubtree(parent, tuple(children)))
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
    roots: list[NodeLabel] = []
    for token in roots_text.split():
        try:
            body, counter = split_counter(token)
            if body == "S" and PieceLabel("S") not in inv:
                roots.append(_full_inventory_label(inv, counter))
            else:
                roots.append(known[token])
        except LabelError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from exc
    return GoldGrammar(pattern_id, inv, roots, rules)


def validate_grammar(g: GoldGrammar) -> list[str]:
    """The problems of ``g``, one line each; empty iff it is valid.  The
    :class:`GoldGrammar` constructor runs it, so it is the one judge of
    validity.  First each root, then each rule, that is not a valid step
    over the inventory, named: pieces the inventory lacks, not 1 or 2
    children, label arithmetic that :func:`node_violations` refuses.  Only
    if there are none, so that a bad rule has no follow-on problems: no
    roots; non-leaf labels no rule expands, by name; rules no root reaches,
    in rule order; roots missing pieces."""
    # Each label's pieces are checked once, however many rules mention it,
    # by their texts, which name them (``labels.py``).
    inventory = {piece._text for piece in g.inventory}
    unknown = {}
    for label in g.labels:
        for piece in label.pieces:
            if piece._text not in inventory:
                unknown[label] = ", ".join(sorted(str(p) for p in label.piece_set - g.inventory))
                break
    out = [f"root {root}: unknown pieces {unknown[root]}" for root in g.roots if root in unknown]
    for rule in g.rules:
        outside = unknown and [unknown[x] for x in (rule.parent, *rule.children) if x in unknown]
        if outside:
            out.append(f"{rule}: unknown pieces {outside[0]}")
        elif not 1 <= len(rule.children) <= 2:
            out.append(f"{rule}: rules need 1 or 2 children")
        elif problems := node_violations(rule.parent, rule.children):
            out.append(f"{rule}: {problems[0][1]}")
    if out:
        return out

    # Every rule now strictly shrinks, so children sit below their parents
    # and one pass down the positions marks every label a root reaches.
    reached = [False] * len(g.labels)
    for p in g.root_positions:
        reached[p] = True
    for p in reversed(range(len(reached))):
        if reached[p]:
            for _, kids in g.expansions[p]:
                for c in kids:
                    reached[c] = True
    unexpanded = [
        str(label)
        for label, expansions in zip(g.labels, g.expansions)
        if not expansions and not is_leaf(label)
    ]
    out = [] if g.roots else ["no roots"]
    out += [f"{name}: no rule expands this non-leaf label" for name in sorted(unexpanded)]
    unreached = {label._text for label, r in zip(g.labels, reached) if not r}
    out += [f"{rule}: no root reaches this rule" for rule in g.rules if rule.parent._text in unreached]
    for root in g.roots:
        if root.piece_set != g.inventory:
            out.append(f"root {root}: does not cover the full piece inventory")
    return out


def count_derivations(g: GoldGrammar) -> dict[NodeLabel, int]:
    """Derivation count per root via a DP over the rule graph.

    count(leaf) = 1; count(label) = sum over its rules of the product of the
    children's counts.  A valid grammar expands every label but its leaves.
    """
    counts: list[int] = []
    for rules in g.expansions:
        counts.append(sum(math.prod(counts[c] for c in kids) for _, kids in rules) if rules else 1)
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
    counts = count_derivations(g)
    total = sum(counts.values())
    if total > cap:
        raise CapExceededError(total, cap)

    # A label's texts are dropped once its last parent is placed: on a unary
    # chain each label's texts contain its child's, and keeping them all
    # would hold characters quadratic in the chain's length.
    last_parent = {c: p for p, rules in enumerate(g.expansions) for _, kids in rules for c in kids}
    roots = set(g.root_positions)
    texts: list[list[str] | None] = []
    gold: list[str] = []
    for p, (label, expansions) in enumerate(zip(g.labels, g.expansions)):
        name = str(label)
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
