"""Shared checks for the randomized-grammar property suite, and the
test-side label: a tuple of piece texts sorted by :func:`oracle_key` and a
counter, with its own merge and bump, the reference for ``labels.py``'s
reading of texts into facts and its label arithmetic; the
node-tree oracles: ``AssemblyNode`` trees with their validator, parser,
serializer, generator and linearization, the references that the
label-map code in ``sewtree`` is tested against; the per-step adapter
extractor, the reference for the memoized one; the ``urllib.request``
post, the reference for the adapter's HTTP/1.0 client; BLEU and
ROUGE-L computed afresh per call, the references for the metrics'
prepared reference side; the clipped n-gram precisions along ``bleu``'s
path, which only tests read; the node check on piece sets, the reference
for ``node_violations``' masks; the object reader of rules and grammar
files, the reference for the grammar parser's reading into label facts;
the per-tree round-trip, the reference for the per-rule one; the word
loop of the attachment-verb gate, the reference for its regex; the grammar
check on piece sets with a recursive walk from the roots, the reference
for the one that reads the rule graph; the derivation count by a walk
down the rules;
the best gold tree by ``Fraction`` F1 over every derivation, the
reference for both scorers' exact ranking; and the DP over every label's
g-indexed table, the reference for ``grammar_score``'s sparse m-indexed
one."""

import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from sewtree.grammar import (
    DEFAULT_CAP,
    CapExceededError,
    GoldGrammar,
    GrammarError,
    count_derivations,
    enumerate_gold_trees,
    f1_lead,
    parse_grammar,
)
from sewtree.labels import LabelError, label_pieces, piece_key, split_counter
from sewtree.metrics import (
    BLEU_EPSILON,
    BLEU_MAX_N,
    ScoreBreakdown,
    _breakdown,
    _clipped_precisions,
    _f1,
    _ngrams,
    grammar_score,
    tokenize,
)
from sewtree.pipeline import (
    DEFAULT_ATTACHMENT_VERBS,
    InstructionDoc,
    PatternSpec,
    build_forest,
    extract_document,
    linearize_gold_tree,
    placeholder_spec,
)
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import random_grammar
from sewtree.tree import _TOKEN_RE, TreeError, bracket, parse_serialized, rule_text, subtrees_of


def oracle_key(text: str) -> tuple[str, int, int]:
    """The order of a piece, from its text: base letter, then plain, left,
    right and copies, then the copy number."""
    suffix = text[1:]
    if suffix in ("", "l", "r"):
        return text[0], ["", "l", "r"].index(suffix), 0
    return text[0], 3, int(suffix)


class Label(NamedTuple):
    """A node label on the test side: its piece texts, sorted by
    :func:`oracle_key`, and its self-attachment counter; ``str`` writes
    its text."""

    pieces: tuple[str, ...]
    self_attach: int = 0

    def __str__(self) -> str:
        body = "".join(self.pieces)
        return f"{body}_{self.self_attach}" if self.self_attach else body

    @property
    def piece_set(self) -> frozenset[str]:
        return frozenset(self.pieces)


def label_of(text: str) -> Label:
    """The test-side label of ``text``, which ``label_pieces`` checks."""
    return Label(*label_pieces(text))


def merge(a: Label, b: Label) -> Label:
    """The label of two disjoint components attached: their pieces in one
    sorted tuple and the larger counter."""
    return Label(tuple(sorted(a.pieces + b.pieces, key=oracle_key)), max(a.self_attach, b.self_attach))


def bump(a: Label) -> Label:
    """The label of ``a`` sewn to itself once."""
    return Label(a.pieces, a.self_attach + 1)


def first_piece(label: Label) -> tuple[str, int, int]:
    """The order of the two children of a merge: by their first piece."""
    return oracle_key(label.pieces[0])


@dataclass(frozen=True)
class AssemblyNode:
    """One node of an assembly tree with 0, 1, or 2 children."""

    label: Label
    children: tuple["AssemblyNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Yield this node and all descendants, parent first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def leaf(piece: str) -> AssemblyNode:
    return AssemblyNode(Label((piece,), 0))


def unary(child: AssemblyNode) -> AssemblyNode:
    """Self-attachment node over ``child``."""
    return AssemblyNode(bump(child.label), (child,))


def binary(a: AssemblyNode, b: AssemblyNode) -> AssemblyNode:
    """Attachment node joining two disjoint components, children in canonical order."""
    children = tuple(sorted((a, b), key=lambda n: first_piece(n.label)))
    return AssemblyNode(merge(a.label, b.label), children)


def as_pair(root: AssemblyNode) -> tuple[str, dict[str, tuple[str, ...]]]:
    """The ``(root, children_of)`` pair of label texts of a node tree with
    unique labels."""
    return str(root.label), {
        str(n.label): tuple(str(c.label) for c in n.children) for n in root.walk() if n.children
    }


def serialize_node(root: AssemblyNode) -> str:
    """Deterministic bracket form of a node tree.  Iterative, so a tree of
    any depth serializes."""
    tokens: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens[-1] += item  # a node's ")" closes its last token
        elif item.children:
            tokens.append(f"({item.label}")
            stack.append(")")
            stack.extend(reversed(item.children))
        else:
            tokens.append(str(item.label))
    return " ".join(tokens)


@dataclass(frozen=True)
class Violation:
    """One broken tree constraint, naming the offending node."""

    node: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.node}: {self.rule}: {self.detail}"


def node_oracle(label: Label, children) -> list[tuple[str, str]]:
    """The label arithmetic of one node on piece sets, as ``(kind, detail)``
    pairs, every kind and message written out: the reference for
    ``node_violations``."""
    out: list[tuple[str, str]] = []
    if not children:
        if len(label.piece_set) != 1:
            out.append(("leaf-pieces", "leaf must be a single piece"))
        if label.self_attach != 0:
            out.append(("leaf-counter", "leaf counter must be 0"))
    elif len(children) == 1:
        (child,) = children
        if child.piece_set != label.piece_set:
            out.append(("unary-pieces", "unary child must have the same pieces"))
        if child.self_attach != label.self_attach - 1:
            out.append(("unary-counter", "unary child counter must be parent's minus 1"))
    elif len(children) == 2:
        a, b = children
        if a.piece_set & b.piece_set:
            out.append(("binary-disjoint", "children share pieces"))
        elif a.piece_set | b.piece_set != label.piece_set:
            out.append(("binary-union", "children's pieces do not cover the parent"))
        if label.self_attach != max(a.self_attach, b.self_attach):
            out.append(("binary-counter", "parent counter must be the children's max"))
        if min(map(oracle_key, a.piece_set)) > min(map(oracle_key, b.piece_set)):
            out.append(("child-order", "children out of canonical order"))
    else:
        out.append(("arity", f"{len(children)} children, 1 or 2 allowed"))
    return out


def validate_tree(root: AssemblyNode) -> list[Violation]:
    """All constraint violations in the tree; empty iff the tree is valid:
    the reference for the checks ``parse_serialized`` runs."""
    out: list[Violation] = []
    seen: dict[Label, int] = {}
    for node in root.walk():
        kids = tuple(c.label for c in node.children)
        for kind, detail in node_oracle(node.label, kids):
            out.append(Violation(str(node.label), kind, detail))
        seen[node.label] = seen.get(node.label, 0) + 1
    for label, count in seen.items():
        if count > 1:
            out.append(Violation(str(label), "unique-labels", f"label occurs {count} times"))
    return out


def recursive_parse(text: str) -> AssemblyNode:
    """The recursive descent parser into a node tree, checked by
    ``validate_tree``: the reference for ``parse_serialized``."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise TreeError("empty tree text")
    pos = 0

    def read(tok):
        try:
            return label_of(tok)
        except LabelError as exc:
            raise TreeError(str(exc)) from exc

    def parse_node():
        nonlocal pos
        if pos >= len(tokens):
            raise TreeError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise TreeError("unexpected ')'")
        if tok != "(":
            return AssemblyNode(read(tok))
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreeError("expected node label after '('")
        label = read(tokens[pos])
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(parse_node())
        if pos >= len(tokens):
            raise TreeError("missing ')'")
        pos += 1
        if not children:
            raise TreeError(f"bracketed node {label} has no children")
        return AssemblyNode(label, tuple(children))

    root = parse_node()
    if pos != len(tokens):
        raise TreeError(f"trailing input after tree: {tokens[pos]!r}")
    violations = validate_tree(root)
    if violations:
        raise TreeError("; ".join(str(v) for v in violations))
    return root


def random_node_tree(
    rng: SplitMix64, pieces, unary_prob_percent: int = 25, chain: bool = False
) -> AssemblyNode:
    """The node-building generator: the reference for ``synth.random_tree``,
    which must draw the same tree from the same stream."""
    nodes = [leaf(p) for p in pieces]
    rng.shuffle(nodes)

    def maybe_self_attach(node: AssemblyNode) -> AssemblyNode:
        while rng.randrange(100) < unary_prob_percent:
            node = unary(node)
        return node

    while len(nodes) > 1:
        if chain:
            i, j = 0, 1
        else:
            i = rng.randrange(len(nodes))
            j = rng.randrange(len(nodes) - 1)
            if j >= i:
                j += 1
        a = nodes[i]
        b = nodes[j]
        for idx in sorted((i, j), reverse=True):
            del nodes[idx]
        nodes.insert(0, maybe_self_attach(binary(a, b)))
    return nodes[0]


def recursive_linearization(tree: AssemblyNode, spec: PatternSpec) -> InstructionDoc:
    """``linearize_gold_tree`` on a node tree, emitting its steps in a
    recursion: the reference for the label-map walk."""

    def mention(node):
        piece = node.label.pieces[0]
        name = spec.name_of(piece)
        if node.is_leaf():
            return f"{name} ({piece})"
        return f"component containing the {name} ({piece})"

    steps = []

    def emit(node):
        for child in node.children:
            emit(child)
        if len(node.children) == 2:
            a, b = node.children
            steps.append(f"Sew the {mention(a)} to the {mention(b)}.")
        elif node.children:
            steps.append(f"Sew the {mention(node.children[0])} to itself.")

    emit(tree)
    doc_id = f"{spec.pattern_id}-{serialize_node(tree).count('(')}steps"
    return InstructionDoc(spec.pattern_id, doc_id, tuple(steps))


def subtree_set(text: str) -> frozenset:
    """The rule texts of the depth-1 subtrees of the tree serialized as
    ``text``."""
    return frozenset(subtrees_of(parse_serialized(text)))


def label_rule(parent: Label, children) -> str:
    """The rule text of ``parent`` over ``children``, test-side labels."""
    return rule_text(str(parent), map(str, children))


def rule_labels(text: str) -> tuple[Label, tuple[Label, ...]]:
    """The parent and children labels of the rule text ``text``, each read
    by :func:`label_of`: a rule as the oracles take it."""
    parent, children = text.split(" -> ")
    return label_of(parent), tuple(map(label_of, children.split(" ")))


def gold_tree_oracle(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[AssemblyNode, ...]:
    """Every derivation of ``g`` built as an ``AssemblyNode`` tree, sorted by
    serialization: the reference for ``enumerate_gold_trees``'s texts, and
    the gold trees of tests that need trees."""
    total = sum(count_derivations(g).values())
    if total > cap:
        raise CapExceededError(total, cap)
    trees: list[tuple[AssemblyNode, ...]] = []
    for text, expansions in zip(g.labels, g.expansions):
        label = label_of(text)
        if not expansions:
            trees.append((AssemblyNode(label),))
            continue
        trees.append(tuple(
            AssemblyNode(label, combo)
            for _, kids in expansions
            for combo in itertools.product(*(trees[c] for c in kids))
        ))
    return tuple(sorted((t for root in g.root_positions for t in trees[root]), key=serialize_node))


def best_tree_oracle(predicted: frozenset, g: GoldGrammar) -> ScoreBreakdown:
    """The score of the gold tree with the highest F1 = 2m/(|P| + g), as a
    ``Fraction`` (0 when m = 0), over every derivation built as a node tree;
    ties go to the first in sorted order.  The values written out are the
    float expressions m/|P|, m/g and ``_f1`` of the two."""
    n = len(predicted)
    best = None
    for tree in gold_tree_oracle(g):
        gold = frozenset(subtrees_of(as_pair(tree)))
        m = len(gold & predicted)
        f1 = Fraction(2 * m, n + len(gold)) if m else Fraction(0)
        if best is None or f1 > best[0]:
            best = (f1, m, len(gold), serialize_node(tree))
    _, m, size, text = best
    precision = m / n if n else 0.0
    recall = m / size if size else 0.0
    return ScoreBreakdown(precision, recall, _f1(precision, recall), text)


def g_indexed_dp_oracle(pred: frozenset[str], grammar: GoldGrammar) -> ScoreBreakdown:
    """``tree_score`` over every tree ``grammar`` derives, without
    enumerating them, by a DP over every label's full table for every
    document: the reference for ``grammar_score``'s sparse one.

    Node labels are unique within a tree, so a gold tree with g internal
    nodes, m of whose rules are predicted subtrees, scores F1 = 2m/(|P| + g).
    A max-plus DP over the rule graph keeps, per label and per g, only the
    largest m and the smallest canonical serialization reaching it
    (serializations of one label are never prefixes of each other, so the
    smallest tree takes the smallest child serializations).  At the roots
    the best exact F1 wins, compared as ``tree_score`` compares it; ties go
    to the smallest serialization, which is the lowest index in the sorted
    enumeration.  ``best_gold_tree`` holds that text, and the scores are
    ``tree_score``'s float expressions; a caller that needs the winning
    tree's rules reads them off the text with ``parse_serialized``.
    """
    # tables[p]: g -> (max m, smallest serialization reaching it).
    tables: list[dict[int, tuple[int, str]]] = []
    for name, expansions in zip(grammar.labels, grammar.expansions):
        if not expansions:
            tables.append({0: (0, name)})
            continue
        table: dict[int, tuple[int, str]] = {}
        for rule, kids in expansions:
            hit = int(rule in pred)
            if len(kids) == 1:
                for g_kid, (m_kid, text_kid) in tables[kids[0]].items():
                    g = g_kid + 1
                    m = hit + m_kid
                    current = table.get(g)
                    if current is not None and m < current[0]:
                        continue
                    text = bracket(name, (text_kid,))
                    if current is None or m > current[0] or text < current[1]:
                        table[g] = (m, text)
            else:
                a, b = kids
                b_items = tables[b].items()
                for g_a, (m_a, text_a) in tables[a].items():
                    for g_b, (m_b, text_b) in b_items:
                        g = 1 + g_a + g_b
                        m = hit + m_a + m_b
                        current = table.get(g)
                        if current is not None and m < current[0]:
                            continue
                        text = bracket(name, (text_a, text_b))
                        if current is None or m > current[0] or text < current[1]:
                            table[g] = (m, text)
        tables.append(table)

    n = len(pred)
    best = None
    for root in grammar.root_positions:
        for g, (m, text) in tables[root].items():
            if best is not None:
                lead = f1_lead(m, g, best[0], best[1], n)
                if lead < 0 or lead == 0 and text > best[2]:
                    continue
            best = (m, g, text)
    m, g, text = best
    return _breakdown(m, g, n, text)


def check_enumeration(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[str, ...]:
    """``enumerate_gold_trees(g)``, checked against the tree oracle and
    against the derivation count: derivations and trees are in bijection."""
    texts = enumerate_gold_trees(g, cap)
    assert texts == tuple(serialize_node(t) for t in gold_tree_oracle(g, cap)), g.pattern_id
    assert len(set(texts)) == len(texts) == sum(count_derivations(g).values()), g.pattern_id
    return texts


def rule_oracle(lineno: int, line: str) -> tuple[Label, tuple[Label, ...]]:
    """The rule on grammar line ``lineno``, a stripped ``->`` line, read on
    its own as its parent and children labels: every label parsed, and two
    children put in canonical order; nothing about the rule is checked.  A
    label that does not parse raises :class:`GrammarError` with
    ``parse_grammar``'s message: the reference for its reading of a rule
    line."""
    lhs, rhs = line.split("->", 1)
    try:
        parent, *children = map(label_of, [lhs.strip(), *rhs.split()])
    except LabelError as exc:
        raise GrammarError(f"line {lineno}: {exc}") from exc
    if len(children) == 2:
        children.sort(key=first_piece)
    return parent, tuple(children)


def check_rule_graph(g):
    """``g``'s rule graph against its contract: each root and rule once,
    every label text the roots and rules mention, sorted by piece count,
    counter and text, so each child below its parents, each label's rule
    texts in rule order with their children's positions, and labels that do
    not depend on the order of the rules."""
    roots, rules = g.roots, g.rules
    assert len(set(roots)) == len(roots) and len(set(rules)) == len(rules)
    read = {rule: rule_labels(rule) for rule in rules}
    mentioned = {
        *map(label_of, roots),
        *(label for parent, children in read.values() for label in (parent, *children)),
    }
    assert g.labels == tuple(
        str(label) for label in sorted(mentioned, key=lambda l: (len(l.pieces), l.self_attach, str(l)))
    )
    position = {label: p for p, label in enumerate(g.labels)}
    for p, (label, expansions) in enumerate(zip(g.labels, g.expansions)):
        assert expansions == tuple(
            (rule, tuple(position[str(c)] for c in read[rule][1]))
            for rule in rules if str(read[rule][0]) == label
        )
        assert all(c < p for _, kids in expansions for c in kids)
    assert g.root_positions == tuple(position[root] for root in roots)
    reversed_rules = GoldGrammar(g.pattern_id, g.inventory, roots, tuple(reversed(rules)))
    assert reversed_rules.labels == g.labels


def read_grammar_oracle(text: str) -> tuple[str, frozenset, list[Label], list[tuple]]:
    """The pattern id, inventory, roots and rules of a grammar file as
    labels, read line by line: each rule line by :func:`rule_oracle`,
    each root by :func:`label_of` (``S``/``S_n`` as the full
    inventory), refusing what reading a line needs with the parser's
    messages and checking nothing else: the reference for
    ``parse_grammar``'s reading into label facts.  Roots and rules are
    returned as written, repeats included."""
    pattern_id = inventory = roots_line = None
    rules: list[tuple[Label, tuple[Label, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "->" in line and not line.startswith(("pattern:", "pieces:", "roots:")):
            if inventory is None:
                raise GrammarError(f"line {lineno}: rule before pieces header")
            rules.append(rule_oracle(lineno, line))
        elif line.startswith("pattern:"):
            value = line[len("pattern:"):].strip()
            if pattern_id is not None and value != pattern_id:
                raise GrammarError(f"line {lineno}: conflicting pattern header {value!r}")
            if not value:
                raise GrammarError(f"line {lineno}: empty pattern id")
            pattern_id = value
        elif line.startswith("pieces:"):
            if inventory is not None:
                raise GrammarError(f"line {lineno}: duplicate pieces header")
            pieces = line[len("pieces:"):].split()
            try:
                for piece in pieces:
                    piece_key(piece)
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not pieces:
                raise GrammarError(f"line {lineno}: empty piece inventory")
            inventory = frozenset(pieces)
            if len(inventory) != len(pieces):
                raise GrammarError(f"line {lineno}: duplicate pieces in inventory")
        elif line.startswith("roots:"):
            if roots_line is not None:
                raise GrammarError(f"line {lineno}: duplicate roots header")
            roots_line = (lineno, line[len("roots:"):].strip())
        else:
            raise GrammarError(f"line {lineno}: unrecognized line {line!r}")
    if pattern_id is None:
        raise GrammarError("missing pattern header")
    if inventory is None:
        raise GrammarError("missing pieces header")
    if roots_line is None:
        raise GrammarError("missing roots header")
    lineno, roots_text = roots_line
    roots = []
    for token in roots_text.split():
        try:
            body, counter = split_counter(token)
            if body == "S" and "S" not in inventory:
                roots.append(Label(tuple(sorted(inventory, key=oracle_key)), counter))
            else:
                roots.append(label_of(token))
        except LabelError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from exc
    return pattern_id, inventory, roots, rules


def count_derivations_oracle(roots, rules) -> dict[str, int]:
    """The derivations of each root label, by its text, counted by a walk
    down the rules, each its parent and children labels: the reference for
    ``count_derivations``."""
    by_parent: dict[Label, list[tuple[Label, ...]]] = {}
    for parent, children in dict.fromkeys(rules):
        by_parent.setdefault(parent, []).append(children)
    counts: dict[Label, int] = {}

    def count(label: Label) -> int:
        if label not in counts:
            expansions = by_parent.get(label)
            counts[label] = sum(
                math.prod(count(c) for c in children) for children in expansions
            ) if expansions else 1
        return counts[label]

    return {str(root): count(root) for root in dict.fromkeys(roots)}


def validate_grammar_oracle(inventory, roots, rules) -> list[str]:
    """``validate_grammar`` of the grammar of ``inventory``, ``roots`` and
    ``rules``, each root and rule taken once, from piece sets, label sets
    built from the rules and a recursive walk from the roots: the reference
    for the one that reads the rule graph.  Roots are labels and rules
    their parent and children labels.  First each root and rule that
    is not a valid step over the inventory; only if there is none, the
    problems of the grammar as a whole."""
    roots = list(dict.fromkeys(roots))
    rules = list(dict.fromkeys(rules))

    def unknown(*labels: Label) -> str:
        pieces = set().union(*(label.piece_set for label in labels)) - inventory
        return ", ".join(sorted(pieces, key=oracle_key))

    out = [f"root {root}: unknown pieces {unknown(root)}" for root in roots if unknown(root)]
    for parent, children in rules:
        outside = unknown(parent, *children)
        text = label_rule(parent, children)
        if outside:
            out.append(f"{text}: unknown pieces {outside}")
        elif len(children) not in (1, 2):
            out.append(f"{text}: rules need 1 or 2 children")
        elif node_oracle(parent, children):
            out.append(f"{text}: {node_oracle(parent, children)[0][1]}")
    if out:
        return out

    out = [] if roots else ["no roots"]
    expandable = {parent for parent, _ in rules}
    mentioned = set(roots)
    for parent, children in rules:
        mentioned.update(children)
        mentioned.add(parent)
    for label in sorted(mentioned, key=str):
        if label not in expandable and node_oracle(label, ()):
            out.append(f"{label}: no rule expands this non-leaf label")

    reached: set[Label] = set()

    def visit(label: Label) -> None:
        if label not in reached:
            reached.add(label)
            for parent, children in rules:
                if parent == label:
                    for child in children:
                        visit(child)

    for root in roots:
        visit(root)
    out += [
        f"{label_rule(parent, children)}: no root reaches this rule"
        for parent, children in rules if parent not in reached
    ]

    for root in roots:
        if root.piece_set != inventory:
            out.append(f"root {root}: does not cover the full piece inventory")
    return out


def chain_grammar(length: int) -> GoldGrammar:
    """``AB`` and then ``length`` self-attachments, ``AB_i -> AB_(i-1)``."""
    lines = ["pattern: chain", "pieces: A B", f"roots: AB_{length}", "AB -> A B", "AB_1 -> AB"]
    lines += [f"AB_{i} -> AB_{i - 1}" for i in range(2, length + 1)]
    return parse_grammar("\n".join(lines))


def make_random_grammar(seed: int, index: int) -> GoldGrammar:
    rng = SplitMix64(derive_seed(seed, f"grammar{index}"))
    n_pieces = 2 + rng.randrange(5)  # 2..6
    n_trees = 1 + rng.randrange(2)
    return random_grammar(rng, f"synthetic-{index}", n_pieces, n_trees)


def make_chain_corpus():
    """22 single-tree chain grammars, each linearizing to >= 4 steps.

    Chain shape means exactly one valid assembly order, so permutation and
    error-injection experiments have maximal headroom.  Returns
    (grammar, spec, gold_texts, linearized_doc) tuples.
    """
    corpus = []
    for i in range(22):
        rng = SplitMix64(derive_seed(99, f"chain{i}"))
        grammar = random_grammar(
            rng, f"chain-{i}", 5 + rng.randrange(2), 1, unary_prob_percent=30, chain=True
        )
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        gold = enumerate_gold_trees(grammar)
        doc = linearize_gold_tree(as_pair(gold_tree_oracle(grammar)[0]), spec)
        assert len(doc.steps) >= 4
        corpus.append((grammar, spec, gold, doc))
    return corpus


def check_grammar_properties(g: GoldGrammar, cap: int = 50_000) -> None:
    texts = check_enumeration(g, cap)
    trees = gold_tree_oracle(g, cap)
    assert len(trees) > 0
    for tree in trees:
        assert validate_tree(tree) == [], f"{g.pattern_id}: invalid enumerated tree"
        glued = glue_subtrees(subtrees_of(as_pair(tree)))
        assert glued == (tree,), f"{g.pattern_id}: subtree set not lossless"
        for node in tree.walk():
            leaf_pieces = frozenset(
                p for n in node.walk() if n.is_leaf() for p in n.label.pieces
            )
            assert leaf_pieces == node.label.piece_set

    # enumeration must not depend on the order rules are listed in
    reversed_rules = GoldGrammar(g.pattern_id, g.inventory, g.roots, tuple(reversed(g.rules)))
    assert enumerate_gold_trees(reversed_rules, cap) == texts, (
        f"{g.pattern_id}: enumeration depends on rule order"
    )


def tree_roundtrip(grammar: GoldGrammar, cap: int = DEFAULT_CAP) -> list[str]:
    """Linearize every gold tree and rebuild it; returns a failure message
    per failing tree.  A tree passes when the rebuilt forest is its own text
    alone and the rebuilt subtrees score F1 = 1 against the grammar: the
    per-tree oracle for ``roundtrip_grammar``'s per-rule verdict."""
    failures: list[str] = []
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    for index, text in enumerate(enumerate_gold_trees(grammar, cap)):
        doc = linearize_gold_tree(parse_serialized(text), spec)
        if not doc.steps:
            # single-leaf gold tree linearizes to zero steps; nothing to check
            continue
        report = build_forest(doc, extract_document(doc, spec), spec)
        if report.forest != (text,):
            failures.append(
                f"{grammar.pattern_id} tree {index} ({text}): rebuilt as {' '.join(report.forest)}"
            )
        elif grammar_score(report.subtrees(), grammar).f1 != 1.0:
            failures.append(f"{grammar.pattern_id} tree {index} ({text}): round-trip F1 below 1")
    return failures


def split_rules(block) -> list[str]:
    """The rule lines that join every subset of two or more of the
    one-letter pieces ``block`` from every split of it into two parts, once
    each: from the whole block, every binary tree over it."""
    lines = []
    for size in range(2, len(block) + 1):
        for first, *others in itertools.combinations(block, size):
            for k in range(size - 1):
                for rest in itertools.combinations(others, k):
                    right = "".join(p for p in others if p not in rest)
                    lines.append(f"{first}{''.join(others)} -> {first}{''.join(rest)} {right}")
    return lines


def wide_grammar() -> tuple[str, AssemblyNode]:
    """The text of grammar ``wide`` and one of its gold trees.  Five blocks
    of four pieces, each block assembled in any of its 15 binary trees, then
    the blocks joined in a fixed chain: 15**5 = 759,375 derivations, far
    past the enumeration cap, from 129 rules."""
    pieces = [chr(ord("A") + i) for i in range(20)]
    blocks = [pieces[i:i + 4] for i in range(0, 20, 4)]
    lines = ["pattern: wide", "pieces: " + " ".join(pieces), "roots: " + "".join(pieces)]
    for block in blocks:
        lines.extend(split_rules(block))
    for i in range(1, len(blocks)):
        joined = "".join(p for b in blocks[:i] for p in b)
        lines.append(f"{joined}{''.join(blocks[i])} -> {joined} {''.join(blocks[i])}")
    tree = None
    for block in blocks:
        sub = leaf(block[0])
        for piece in block[1:]:
            sub = binary(sub, leaf(piece))
        tree = sub if tree is None else binary(tree, sub)
    return "\n".join(lines) + "\n", tree


def glue_subtrees(
    subtrees, isolated: tuple[Label, ...] = ()
) -> tuple[AssemblyNode, ...]:
    """Rebuild a forest, its trees sorted by serialization, from the rule
    texts of depth-1 subtrees by gluing equal labels.

    Labels that never appear as a parent become leaves; labels that never
    appear as a child become roots; ``isolated`` labels become one-leaf trees.
    """
    children_of: dict[Label, tuple[Label, ...]] = {}
    child_labels: set[Label] = set()
    for text in subtrees:
        parent, children = rule_labels(text)
        if parent in children_of and children_of[parent] != children:
            raise TreeError(f"conflicting subtrees for parent {parent}")
        children_of[parent] = children
        child_labels.update(children)

    def build(label: Label, pending: frozenset[Label]) -> AssemblyNode:
        if label in pending:
            raise TreeError(f"cycle through label {label}")
        kids = children_of.get(label)
        if kids is None:
            return AssemblyNode(label)
        pending = pending | {label}
        return AssemblyNode(label, tuple(build(k, pending) for k in kids))

    roots = [p for p in children_of if p not in child_labels]
    trees = [build(r, frozenset()) for r in roots]
    trees.extend(AssemblyNode(l) for l in isolated)
    trees.sort(key=serialize_node)
    return tuple(trees)


def glued_forest(report) -> tuple[str, ...]:
    """The report's trace and isolated leaves glued back into trees by
    ``glue_subtrees``, serialized: the oracle for ``report.forest``."""
    isolated = tuple(label_of(t) for t in report.forest if not t.startswith("("))
    glued = glue_subtrees((text for _, text in report.subtree_trace), isolated)
    return tuple(serialize_node(t) for t in glued)


def has_attachment_verb_oracle(sentence: str) -> bool:
    """Whether a word of the lowercased ``sentence``, a run of the letters
    a-z, starts with an attachment verb, word by word and verb by verb: the
    reference for the rule-based extractor's one regex."""
    for word in re.findall("[a-z]+", sentence.lower()):
        for verb in DEFAULT_ATTACHMENT_VERBS:
            if word.startswith(verb):
                return True
    return False


def urllib_post(endpoint, body: bytes) -> bytes:
    """POST ``body`` through ``urllib.request``, the transport that
    ``adapter._post`` replaced: the reference for its requests and replies
    on a backend that answers."""
    import urllib.request

    request = urllib.request.Request(endpoint.url, body, {"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
        return response.read()


def quadratic_lcs_length(a, b):
    """The O(|a|·|b|) LCS table, row by row: the oracle for ``_lcs_length``."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def ngram_precisions(candidate: str, reference: str, max_n: int = BLEU_MAX_N) -> list[float]:
    """Modified (clipped) n-gram precisions for n = 1..max_n, unsmoothed,
    as ``bleu`` clips them."""
    ref = tokenize(reference)
    return _clipped_precisions(tokenize(candidate), [_ngrams(ref, n) for n in range(1, max_n + 1)])


def _counter_ngrams(tokens, n):
    return Counter(zip(*(tokens[i:] for i in range(n))))


def counter_bleu(candidate: str, reference: str) -> float:
    """BLEU-4 with both sides tokenized and counted on every call, clipped
    by ``Counter`` intersection: the oracle for ``bleu``."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        cand_grams = _counter_ngrams(cand, n)
        total = sum(cand_grams.values())
        p = sum((cand_grams & _counter_ngrams(ref, n)).values()) / total if total else 0.0
        log_sum += math.log(p or BLEU_EPSILON)
    geo_mean = math.exp(log_sum / BLEU_MAX_N)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * geo_mean


def quadratic_rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 with both sides tokenized on every call and the LCS from
    :func:`quadratic_lcs_length`: the oracle for ``rouge_l``."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = quadratic_lcs_length(cand, ref)
    return _f1(lcs / len(cand), lcs / len(ref))


def fresh_env(**env: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout,
    with ``env`` added."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def run_fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout,
    with ``env`` added to the environment."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_env(**env))
