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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    attachment_violations,
    parse_node_label,
    parse_piece_label,
)
from .tree import AssemblyNode, canonical_serialize


class GrammarError(ValueError):
    """A grammar file is malformed or inconsistent."""


class CapExceededError(GrammarError):
    """The grammar derives more trees than the enumeration cap allows."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"grammar derives {count} trees, cap is {cap}")
        self.count = count
        self.cap = cap


DEFAULT_CAP = 100_000


@dataclass(frozen=True)
class GrammarRule:
    """One rewrite: a parent component into one or two child components."""

    parent: NodeLabel
    children: tuple[NodeLabel, ...]

    def __str__(self) -> str:
        return f"{self.parent} -> {' '.join(str(c) for c in self.children)}"


def rule_violations(rule: GrammarRule) -> list[str]:
    """Local well-formedness: the label arithmetic of a single rule."""
    return [f"{rule}: {detail}" for _, detail in attachment_violations(rule.parent, rule.children)]


class RuleGraph(NamedTuple):
    """The rule table as a DAG over the labels the roots reach, children
    before parents, so a DP over derivations is one pass over ``labels``."""

    labels: tuple[NodeLabel, ...]
    names: tuple[str, ...]  # str() of each label
    position: dict[NodeLabel, int]  # labels[position[label]] == label
    # Per label, the child positions of each of its rules in rule order;
    # empty for a label no rule expands (a leaf).
    expansions: tuple[tuple[tuple[int, ...], ...], ...]
    roots: tuple[int, ...]  # positions of GoldGrammar.roots


@dataclass(frozen=True)
class GoldGrammar:
    pattern_id: str
    inventory: frozenset[PieceLabel]
    roots: tuple[NodeLabel, ...]
    rules: tuple[GrammarRule, ...]

    @cached_property
    def rule_graph(self) -> RuleGraph:
        """Built once per grammar and shared by every caller: never mutate it.

        Well-formed rules strictly shrink (pieces, counter), so the labels
        form a DAG and the depth-first walk terminates.
        """
        by_parent: dict[NodeLabel, list[GrammarRule]] = {}
        for rule in self.rules:
            by_parent.setdefault(rule.parent, []).append(rule)
        labels: list[NodeLabel] = []
        position: dict[NodeLabel, int] = {}
        expansions: list[tuple[tuple[int, ...], ...]] = []

        def visit(label: NodeLabel) -> int:
            if label not in position:
                kids = tuple(
                    tuple(visit(c) for c in rule.children) for rule in by_parent.get(label, ())
                )
                position[label] = len(labels)
                labels.append(label)
                expansions.append(kids)
            return position[label]

        roots = tuple(visit(root) for root in self.roots)
        # visit refers to itself through its closure; breaking that cycle frees
        # the walk's temporaries now rather than at the next garbage collection.
        del visit
        names = tuple(str(label) for label in labels)
        return RuleGraph(tuple(labels), names, position, tuple(expansions), roots)


def _full_inventory_label(inventory: frozenset[PieceLabel], counter: int) -> NodeLabel:
    return NodeLabel(tuple(sorted(inventory)), counter)


def parse_grammar(text: str) -> GoldGrammar:
    """Parse and locally check a grammar file; raises with line numbers."""
    pattern_id: str | None = None
    inventory: list[PieceLabel] | None = None
    roots_line: tuple[int, str] | None = None
    rules: list[GrammarRule] = []
    seen_rules: set[GrammarRule] = set()

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
            if inventory is not None:
                raise GrammarError(f"line {lineno}: duplicate pieces header")
            try:
                inventory = [parse_piece_label(t) for t in line[len("pieces:"):].split()]
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not inventory:
                raise GrammarError(f"line {lineno}: empty piece inventory")
            if len(set(inventory)) != len(inventory):
                raise GrammarError(f"line {lineno}: duplicate pieces in inventory")
            continue
        if line.startswith("roots:"):
            if roots_line is not None:
                raise GrammarError(f"line {lineno}: duplicate roots header")
            roots_line = (lineno, line[len("roots:"):].strip())
            continue
        if "->" in line:
            lhs, rhs = line.split("->", 1)
            if inventory is None:
                raise GrammarError(f"line {lineno}: rule before pieces header")
            inv = frozenset(inventory)
            try:
                parent = parse_node_label(lhs.strip())
                children = [parse_node_label(t) for t in rhs.split()]
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not 1 <= len(children) <= 2:
                raise GrammarError(f"line {lineno}: rules need 1 or 2 children")
            for label in (parent, *children):
                unknown = label.piece_set - inv
                if unknown:
                    names = ", ".join(sorted(str(p) for p in unknown))
                    raise GrammarError(f"line {lineno}: unknown pieces {names}")
            # Child order in the file is presentational; canonicalize it.
            if len(children) == 2:
                children.sort(key=lambda l: l.pieces[0].sort_key())
            rule = GrammarRule(parent, tuple(children))
            problems = rule_violations(rule)
            if problems:
                raise GrammarError(f"line {lineno}: {problems[0]}")
            if rule not in seen_rules:
                seen_rules.add(rule)
                rules.append(rule)
            continue
        raise GrammarError(f"line {lineno}: unrecognized line {line!r}")

    if pattern_id is None:
        raise GrammarError("missing pattern header")
    if inventory is None:
        raise GrammarError("missing pieces header")
    if roots_line is None:
        raise GrammarError("missing roots header")

    inv = frozenset(inventory)
    lineno, roots_text = roots_line
    roots: list[NodeLabel] = []
    for token in roots_text.split():
        body, _, counter = token.partition("_")
        if body == "S" and PieceLabel("S") not in inv:
            if counter and not (counter.isascii() and counter.isdigit()):
                raise GrammarError(f"line {lineno}: malformed root {token!r}")
            roots.append(_full_inventory_label(inv, int(counter) if counter else 0))
            continue
        try:
            roots.append(parse_node_label(token))
        except LabelError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from exc
    if not roots:
        raise GrammarError(f"line {lineno}: empty roots list")
    for root in roots:
        if root.piece_set - inv:
            raise GrammarError(f"line {lineno}: root {root} uses unknown pieces")

    deduped_roots = tuple(dict.fromkeys(roots))
    return GoldGrammar(pattern_id, inv, deduped_roots, tuple(rules))


def validate_grammar(g: GoldGrammar) -> list[str]:
    """All violations; empty iff every rule is well-formed and roots expand to leaves."""
    out: list[str] = []
    for rule in g.rules:
        out.extend(rule_violations(rule))
        for label in (rule.parent, *rule.children):
            if label.piece_set - g.inventory:
                out.append(f"{rule}: pieces outside the inventory")

    expandable = {r.parent for r in g.rules}
    mentioned = set(g.roots)
    for rule in g.rules:
        mentioned.update(rule.children)
        mentioned.add(rule.parent)
    for label in sorted(mentioned, key=str):
        if label in expandable:
            continue
        if len(label.pieces) == 1 and label.self_attach == 0 and label.pieces[0] in g.inventory:
            continue
        out.append(f"{label}: no rule expands this non-leaf label")

    for root in g.roots:
        if root.piece_set != g.inventory:
            out.append(f"root {root}: does not cover the full piece inventory")
    return out


def check_grammar(g: GoldGrammar) -> None:
    """Raise :class:`GrammarError` naming the first violations, if any."""
    problems = validate_grammar(g)
    if problems:
        raise GrammarError("invalid grammar: " + "; ".join(problems[:3]))


def count_derivations(g: GoldGrammar) -> dict[NodeLabel, int]:
    """Derivation count per root via a DP over the rule graph.

    count(leaf) = 1; count(label) = sum over its rules of the product of the
    children's counts; an unexpandable label that is not a leaf counts 0.
    """
    graph = g.rule_graph
    counts: list[int] = []
    for label, expansions in zip(graph.labels, graph.expansions):
        if expansions:
            counts.append(sum(math.prod(counts[c] for c in kids) for kids in expansions))
        else:
            counts.append(1 if len(label.pieces) == 1 and label.self_attach == 0 else 0)
    return {root: counts[p] for root, p in zip(g.roots, graph.roots)}


def enumerate_gold_trees(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[AssemblyNode, ...]:
    """All distinct derivation trees from all roots, deduplicated.

    Counts first and raises :class:`CapExceededError` rather than enumerating
    past ``cap``.
    """
    check_grammar(g)
    counts = count_derivations(g)
    total = sum(counts.values())
    if total > cap:
        raise CapExceededError(total, cap)

    graph = g.rule_graph
    trees: list[tuple[AssemblyNode, ...]] = []
    for label, expansions in zip(graph.labels, graph.expansions):
        if not expansions:
            trees.append((AssemblyNode(label),))
            continue
        trees.append(tuple(
            AssemblyNode(label, combo)
            for kids in expansions
            for combo in itertools.product(*(trees[c] for c in kids))
        ))

    seen: dict[str, AssemblyNode] = {}
    for root in graph.roots:
        for tree in trees[root]:
            seen.setdefault(canonical_serialize(tree), tree)
    return tuple(seen[k] for k in sorted(seen))
