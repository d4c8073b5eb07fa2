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
from collections import namedtuple
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
        self.count = count
        self.cap = cap


DEFAULT_CAP = 100_000


# The rule table as a DAG over every label the roots and rules mention,
# children before parents, so a DP over derivations is one pass over
# ``labels``:
# - ``labels``: sorted by (piece count, counter, text).  Well-formed rules
#   strictly shrink (pieces, then counter), so each child sorts before its
#   parents, whatever the order of the rules;
# - ``names``: str() of each label;
# - ``expansions``: per label, each of its rules in rule order with the
#   positions of the rule's children in ``labels``; empty for a label no
#   rule expands (a leaf);
# - ``roots``: positions of GoldGrammar.roots.
# Its readers take a checked grammar, which has no label the roots do not
# reach.
RuleGraph = namedtuple("RuleGraph", ["labels", "names", "expansions", "roots"])


class GoldGrammar:
    """A pattern's gold trees as rules, each a depth-1 subtree that is a valid
    assembly step over the inventory.  A checked grammar is one that
    :func:`parse_grammar` returned, or one built in memory that
    :func:`validate_grammar` passes."""

    def __init__(
        self,
        pattern_id: str,
        inventory: frozenset[PieceLabel],
        roots: tuple[NodeLabel, ...],
        rules: tuple[DepthOneSubtree, ...],
    ) -> None:
        self.pattern_id = pattern_id
        self.inventory = inventory
        self.roots = roots
        self.rules = rules

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.pattern_id, self.inventory, self.roots, self.rules) == (
                other.pattern_id, other.inventory, other.roots, other.rules
            )
        return NotImplemented

    @cached_property
    def rule_graph(self) -> RuleGraph:
        """Built once per grammar and shared by every caller: never mutate it."""
        mentioned = set(self.roots)
        for rule in self.rules:
            mentioned.add(rule.parent)
            mentioned.update(rule.children)
        labels = tuple(sorted(
            mentioned, key=lambda label: (len(label.pieces), label.self_attach, str(label))
        ))
        position = {label: p for p, label in enumerate(labels)}
        expansions: list[list] = [[] for _ in labels]
        for rule in self.rules:
            expansions[position[rule.parent]].append(
                (rule, tuple([position[c] for c in rule.children]))
            )
        roots = tuple(position[root] for root in self.roots)
        return RuleGraph(labels, tuple(map(str, labels)), tuple(map(tuple, expansions)), roots)


def _full_inventory_label(inventory: frozenset[PieceLabel], counter: int) -> NodeLabel:
    return NodeLabel(tuple(sorted(inventory)), counter)


def parse_grammar(text: str) -> GoldGrammar:
    """Parse a grammar file, checking each rule as it is read: 1 or 2
    children, pieces from the inventory and valid label arithmetic
    (:func:`node_violations`), and then the grammar as a whole
    (:func:`validate_grammar`).  Raises :class:`GrammarError` with the line
    number, or naming the pattern and the first whole-grammar problems.

    Each distinct label text is parsed once per call, and checked against
    the inventory once: ``outside`` holds the labels with a piece the
    inventory lacks."""
    pattern_id: str | None = None
    inv: frozenset[PieceLabel] | None = None
    known: dict[str, NodeLabel] = {}
    outside: set[NodeLabel] = set()
    roots_line: tuple[int, str] | None = None
    rules: dict[DepthOneSubtree, None] = {}

    def label_of(text: str) -> NodeLabel:
        label = known.get(text)
        if label is None:
            label = known[text] = parse_node_label(text)
            if not inv.issuperset(label.pieces):
                outside.add(label)
        return label

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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
        if "->" in line:
            lhs, rhs = line.split("->", 1)
            if inv is None:
                raise GrammarError(f"line {lineno}: rule before pieces header")
            try:
                # A label seen before costs a lookup and no call.
                parsed = [known.get(t) or label_of(t) for t in (lhs.strip(), *rhs.split())]
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not 2 <= len(parsed) <= 3:
                raise GrammarError(f"line {lineno}: rules need 1 or 2 children")
            # Only this line's labels can be outside: an earlier one raised.
            if outside:
                for label in parsed:
                    if label in outside:
                        names = ", ".join(sorted(str(p) for p in label.piece_set - inv))
                        raise GrammarError(f"line {lineno}: unknown pieces {names}")
            parent, *children = parsed
            # Child order in the file is presentational; canonicalize it.
            if len(children) == 2 and child_order_key(children[1]) < child_order_key(children[0]):
                children.reverse()
            rule = DepthOneSubtree(parent, tuple(children))
            problems = node_violations(parent, rule.children)
            if problems:
                raise GrammarError(f"line {lineno}: {rule}: {problems[0][1]}")
            rules[rule] = None
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
                roots.append(label_of(token))
        except LabelError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from exc
    if not roots:
        raise GrammarError(f"line {lineno}: empty roots list")
    for root in roots:
        if root.piece_set - inv:
            raise GrammarError(f"line {lineno}: root {root} uses unknown pieces")

    g = GoldGrammar(pattern_id, inv, tuple(dict.fromkeys(roots)), tuple(rules))
    problems = validate_grammar(g)
    if problems:
        raise GrammarError(
            f"pattern {pattern_id!r}: invalid grammar: " + "; ".join(problems[:3]), problems
        )
    return g


def validate_grammar(g: GoldGrammar) -> list[str]:
    """Violations of the grammar as a whole (each rule was checked when it
    was parsed): non-leaf labels no rule expands, by name; rules whose
    parent no root reaches, in file order; roots missing pieces."""
    graph = g.rule_graph
    # Children sit below their parents, so one pass down the positions
    # marks every label a root reaches.
    reached = [False] * len(graph.labels)
    for p in graph.roots:
        reached[p] = True
    for p in reversed(range(len(reached))):
        if reached[p]:
            for _, kids in graph.expansions[p]:
                for c in kids:
                    reached[c] = True
    unexpanded = [
        name
        for label, name, expansions in zip(graph.labels, graph.names, graph.expansions)
        if not expansions and not (is_leaf(label) and label.pieces[0] in g.inventory)
    ]
    out = [f"{name}: no rule expands this non-leaf label" for name in sorted(unexpanded)]
    unreached = {label for label, r in zip(graph.labels, reached) if not r}
    out += [f"{rule}: no root reaches this rule" for rule in g.rules if rule.parent in unreached]
    for root in g.roots:
        if root.piece_set != g.inventory:
            out.append(f"root {root}: does not cover the full piece inventory")
    return out


def count_derivations(g: GoldGrammar) -> dict[NodeLabel, int]:
    """Derivation count per root via a DP over the rule graph.

    count(leaf) = 1; count(label) = sum over its rules of the product of the
    children's counts; an unexpandable label that is not a leaf counts 0.
    """
    graph = g.rule_graph
    counts: list[int] = []
    for label, expansions in zip(graph.labels, graph.expansions):
        if expansions:
            counts.append(sum(math.prod(counts[c] for c in kids) for _, kids in expansions))
        else:
            counts.append(1 if is_leaf(label) else 0)
    return {root: counts[p] for root, p in zip(g.roots, graph.roots)}


def enumerate_gold_trees(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[str, ...]:
    """The canonical serializations of all derivation trees from all roots
    of a checked grammar, sorted.  Rules and roots are distinct, so distinct
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

    graph = g.rule_graph
    # A label's texts are dropped once its last parent is placed: on a unary
    # chain each label's texts contain its child's, and keeping them all
    # would hold characters quadratic in the chain's length.
    last_parent = {c: p for p, rules in enumerate(graph.expansions) for _, kids in rules for c in kids}
    roots = set(graph.roots)
    texts: list[list[str] | None] = []
    gold: list[str] = []
    for p, (name, expansions) in enumerate(zip(graph.names, graph.expansions)):
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
