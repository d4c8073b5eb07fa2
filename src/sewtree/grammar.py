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
from collections.abc import Collection, Iterable
from functools import cached_property

from .labels import LabelError, LabelReader, label_pieces, node_violations, piece_key, split_counter
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


class GoldGrammar:
    """A pattern's gold trees as rules, each a depth-1 subtree that is a valid
    assembly step over the inventory, a tuple of piece texts in piece order
    (as its label reader holds them).  Its ``roots`` are label texts and its
    ``rules`` rule texts (``tree.rule_text``), each kept once, in first-seen
    order, so distinct derivations are distinct trees.  The constructor's
    one walk over the rules, :meth:`_build`, reads them into the grammar's
    one index: ``labels``, ``expansions``, ``root_positions``, ``parents``
    and ``rule_positions``.  Two grammars are equal when their pattern
    ids, inventories, roots and rules are.  It is valid however it was
    built: the constructor raises :class:`GrammarError` on the problems
    that walk finds, naming the pattern and the first three of them, all
    of them in ``problems``.  A piece, root or rule text that cannot be
    read at all is a :class:`GrammarError` naming the text, and so is a
    piece the inventory repeats."""

    def __init__(
        self,
        pattern_id: str,
        inventory: Collection[str],
        roots: Iterable[str],
        rules: Iterable[str],
    ) -> None:
        # The texts are read as :func:`parse_grammar` reads a file's, but
        # each must be written as ``tree.rule_text`` writes it.
        roots = list(roots)
        parts: dict[str, tuple[str, ...]] = {}
        try:
            for text in inventory:
                piece_key(text)
            facts = LabelReader(inventory)
            if len(facts.bits) != len(inventory):
                # A repeat would take a second bit and leave a gap in the
                # full mask.
                pieces = list(inventory)
                repeated = ", ".join([p for p in facts.bits if pieces.count(p) > 1])
                raise GrammarError(
                    f"pattern {pattern_id!r}: duplicate pieces in inventory: {repeated}"
                )
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
        self._build(pattern_id, facts, roots, parts)

    @classmethod
    def _read(cls, pattern_id, facts, roots, rules) -> GoldGrammar:
        """The grammar of texts whose facts ``facts`` has read, as
        :meth:`_build` takes them, over ``facts``' inventory."""
        grammar = cls.__new__(cls)
        grammar._build(pattern_id, facts, roots, rules)
        return grammar

    def _build(self, pattern_id, facts, roots, rules) -> None:
        """Read the rule table into the grammar's index, a DAG over every
        label the roots and rules mention, children before parents, so a DP
        over derivations is one pass over the labels, and judge it in the
        same walk over the rules.  ``facts`` holds the facts of exactly
        those labels, ``roots`` their texts and ``rules`` each rule's parent
        and children texts by the rule's text, in rule order.  It sets:
        - ``labels``: the texts, sorted by (piece count, counter, text).
          Well-formed rules strictly shrink (pieces, then counter), so each
          child sorts before its parents, whatever the order of the rules;
        - ``expansions``: per label, each of its rules' texts in rule order
          with the positions of the rule's children in ``labels``; empty
          for a label no rule expands (a leaf);
        - ``root_positions``: the positions of the roots, each once, and
          ``roots`` their texts;
        - ``rule_positions``: per rule text, in rule order, its label's
          position, and ``rules`` those texts;
        - ``parents``: per label, the positions of the labels with a rule
          over it, highest first, so ``parents[c][0]`` is ``c``'s last
          parent (a label under two rules of one parent is listed twice).
        It raises :class:`GrammarError` on the problems, one line each.
        First each root, then each rule, that is not a valid step over the
        inventory, named: pieces the inventory lacks (for a rule, those of
        all its labels, in piece order), not 1 or 2 children, label
        arithmetic that :func:`node_violations` refuses.  Only if there are
        none, so that a bad rule has no follow-on problems: no roots;
        non-leaf labels no rule expands, by name; rules no root reaches, in
        rule order; roots missing pieces.  The rest of the index is built
        before the rules are known to be well-formed, whatever they are;
        ``parents`` only once they are."""
        self.pattern_id = pattern_id
        self.inventory = tuple(facts.bits)
        # Texts are distinct, so no two rows tie before the mask.
        rows = sorted(facts.values())
        self.labels = labels = tuple([row[2] for row in rows])
        position = {text: p for p, text in enumerate(labels)}
        self.root_positions = root_positions = tuple(dict.fromkeys([position[root] for root in roots]))
        self.roots = tuple([labels[p] for p in root_positions])
        unknown = facts.unknown
        problems = [
            f"root {labels[p]}: unknown pieces {', '.join(unknown[labels[p]])}"
            for p in root_positions if labels[p] in unknown
        ]
        expansions: list[list] = [[] for _ in labels]
        self.rule_positions = rule_positions = {}
        for text, (parent, *children) in rules.items():
            rule_positions[text] = p = position[parent]
            kids = tuple(map(position.__getitem__, children))
            expansions[p].append((text, kids))
            outside = unknown and {name for label in (parent, *children) for name in unknown.get(label, ())}
            if outside:
                problems.append(f"{text}: unknown pieces {', '.join(sorted(outside, key=piece_key))}")
            elif not 1 <= len(kids) <= 2:
                problems.append(f"{text}: rules need 1 or 2 children")
            elif violations := node_violations(rows[p], [rows[c] for c in kids]):
                problems.append(f"{text}: {violations[0][1]}")
        self.expansions = expansions = tuple(map(tuple, expansions))
        self.rules = tuple(rule_positions)
        if not problems:
            # Every rule now strictly shrinks, so children sit below their
            # parents, and one pass down the positions lists each label's
            # parents and marks every label a root reaches.
            parents: list[list[int]] = [[] for _ in labels]
            reached = [False] * len(labels)
            for p in root_positions:
                reached[p] = True
            for p in reversed(range(len(labels))):
                for _, kids in expansions[p]:
                    for c in kids:
                        parents[c].append(p)
                        reached[c] |= reached[p]
            self.parents = tuple(map(tuple, parents))
            problems = [] if root_positions else ["no roots"]
            unexpanded = [
                labels[p] for p in range(len(labels)) if not expansions[p] and node_violations(rows[p], ())
            ]
            problems += [f"{name}: no rule expands this non-leaf label" for name in sorted(unexpanded)]
            problems += [
                f"{text}: no root reaches this rule" for text, p in rule_positions.items() if not reached[p]
            ]
            full = (1 << len(facts.bits)) - 1
            problems += [
                f"root {labels[p]}: does not cover the full piece inventory"
                for p in root_positions if rows[p][3] != full
            ]
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

    # The tables below are what :meth:`best_tree`, the scorer's one entry
    # point, reads.  Each is built on its first read, not by the
    # constructor, so a grammar that is only read, checked or enumerated
    # pays nothing for them, and none is changed once built.

    @cached_property
    def score_tables(self) -> list:
        """The bare tables: per label, its :func:`fill_tables` table when
        no rule is predicted, one ``(0, g, text)`` entry: its tree with the
        fewest rules, ties going to the smallest text.  When no predicted
        rule lies on or below a label, none of its trees matches one, so
        the table a document's DP fills for it is this one.  Only
        :meth:`best_tree` reads them, and it changes none of them."""
        bare: list = [None] * len(self.labels)
        fill_tables(self, range(len(bare)), {}, bare)
        return bare

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

    def best_tree(self, pred: frozenset[str]) -> tuple[int, int, str]:
        """``(m, g, text)`` of the tree the grammar derives that scores the
        best F1 against the predicted rule texts ``pred``: its text, its
        rule count g and how many of its rules, m, are in ``pred``.

        Node labels are unique within a tree, so a gold tree with g rules,
        m of them predicted, scores F1 = 2m/(|pred| + g): at a given m,
        fewer rules score higher.  :func:`fill_tables` keeps, per label and
        per m, the smallest g and the smallest text at that g.  A label with
        no predicted rule on or below it holds no match, so its table is
        the bare one of :attr:`score_tables`.  Only the labels on or above
        a predicted rule are refilled, children first, in a copy of the
        bare list: the rules are found by their text through
        ``rule_positions``, and the labels above them through
        ``parents``.  At the roots the best exact F1 wins, by
        :func:`f1_lead`; ties go to the smallest text, the lowest index in
        the sorted enumeration.  When no predicted rule is in the grammar
        every tree scores F1 = 0 and :attr:`smallest_tree` wins; each of
        its internal nodes opens one bracket, so its g is its count of
        ``(``."""
        # hits[p]: the texts of label p's predicted rules.
        hits: dict[int, set[str]] = {}
        for text in pred:
            p = self.rule_positions.get(text)
            if p is not None:
                hits.setdefault(p, set()).add(text)
        if not hits:
            text = self.smallest_tree
            return 0, text.count("("), text
        dirty = set(hits)
        stack = list(hits)
        while stack:
            for q in self.parents[stack.pop()]:
                if q not in dirty:
                    dirty.add(q)
                    stack.append(q)
        tables = list(self.score_tables)
        fill_tables(self, sorted(dirty), hits, tables)

        # A hit's label is reached from a root, so some root's table holds
        # a tree with m >= 1, which outranks every tree with m = 0.
        n = len(pred)
        best = None
        for root in self.root_positions:
            for m, g, text in tables[root]:
                if best is not None:
                    lead = f1_lead(m, g, best[0], best[1], n)
                    if lead < 0 or lead == 0 and text > best[2]:
                        continue
                best = (m, g, text)
        return best


def f1_lead(m: int, g: int, best_m: int, best_g: int, n: int) -> int:
    """Positive when a gold tree of ``g`` rules, ``m`` of them among ``n``
    predicted subtrees, scores a higher F1 = 2m/(n + g) than one of
    ``best_g`` rules with ``best_m`` predicted, and 0 when the two F1s are
    equal: the one comparator of trees.  The fractions are compared
    exactly, by cross-multiplying in integers: the float F1s of two equal
    fractions can differ in the last bit.  (A zero denominator means
    n = 0, so both m are 0.)"""
    return m * (n + best_g) - best_m * (n + g)


def fill_tables(
    grammar: GoldGrammar, positions: Iterable[int], hits: dict[int, set[str]], tables: list
) -> None:
    """The DP over derivations that :meth:`GoldGrammar.best_tree` runs,
    over the labels at ``positions``, ascending.  It sets ``tables[p]`` to
    a tuple of ``(m, g, text)`` entries, one per m: the fewest rules g of
    any tree of the label with m predicted rules, and the smallest text at
    that g.  ``hits`` maps a position to the predicted texts of its label's
    rules; a label with none is filled as if nothing were predicted, with
    no lookup per rule.  A child's table is read from ``tables``: a child
    sits at a lower position, so it was filled earlier in the call or
    before it.  A leaf's table is ``((0, 0, name),)``.

    Texts of one label are never prefixes of each other, so the smallest
    tree at (m, g) is built from its children's smallest texts, and a
    candidate with more rules than the entry at its m is dropped before its
    text is composed."""
    labels, expansions = grammar.labels, grammar.expansions
    for p in positions:
        name = labels[p]
        hit_rules = hits.get(p)
        table: dict[int, tuple[int, int, str]] = {}
        for rule, kids in expansions[p]:
            hit = 1 if hit_rules and rule in hit_rules else 0
            # The bracket text written out, as ``tree.bracket`` writes it:
            # the call and its join took half of the DP.
            if len(kids) == 1:
                for m_a, g_a, text_a in tables[kids[0]]:
                    m = hit + m_a
                    g = 1 + g_a
                    current = table.get(m)
                    if current is not None and g > current[1]:
                        continue
                    text = f"({name} {text_a})"
                    if current is None or g < current[1] or text < current[2]:
                        table[m] = (m, g, text)
            else:
                b_entries = tables[kids[1]]
                for m_a, g_a, text_a in tables[kids[0]]:
                    for m_b, g_b, text_b in b_entries:
                        m = hit + m_a + m_b
                        g = 1 + g_a + g_b
                        current = table.get(m)
                        if current is not None and g > current[1]:
                            continue
                        text = f"({name} {text_a} {text_b})"
                        if current is None or g < current[1] or text < current[2]:
                            table[m] = (m, g, text)
        tables[p] = tuple(table.values()) if table else ((0, 0, name),)


def parse_grammar(text: str) -> GoldGrammar:
    """Parse a grammar file, refusing with the line number what reading a
    line needs: the headers, label syntax, the ``S`` roots and each line's
    shape.  The rest is the :class:`GoldGrammar` constructor's.  A binary
    rule's children are put in canonical order, and each distinct label
    text is read once per call, into its facts, and is made no object."""
    pattern_id: str | None = None
    facts: LabelReader | None = None
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
                    x, y = (piece_key(label_pieces(t)[0][0]) for t in children)
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
            if facts is not None:
                raise GrammarError(f"line {lineno}: duplicate pieces header")
            pieces = line[len("pieces:"):].split()
            try:
                facts = LabelReader(pieces)
            except LabelError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from exc
            if not pieces:
                raise GrammarError(f"line {lineno}: empty piece inventory")
            if len(facts.bits) != len(pieces):
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
    if facts is None:
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
    return GoldGrammar._read(pattern_id, facts, roots, rules)


def validate_grammar(g) -> list[str]:
    """The problems of the grammar of ``g``'s pattern id, inventory, roots
    and rule texts, one line each; empty iff it is valid.  It is the
    :class:`GoldGrammar` constructor's verdict on those texts, the one
    judge of validity: the ``problems`` of the :class:`GrammarError` it
    raises (those its walk over the rules finds, or the one text it
    cannot read), or none."""
    try:
        GoldGrammar(g.pattern_id, g.inventory, g.roots, g.rules)
    except GrammarError as exc:
        return exc.problems
    return []


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

    Each label's texts are sorted as they are stored, for speed: texts of
    one label are never prefixes of each other, so over sorted children a
    rule's texts come out sorted, by first child and then by second, and
    the sort of a label only merges its rules' runs.  The final sort, which
    the result's order rests on, then only merges the roots' runs; roots
    cannot simply be concatenated, since ``(X_10 `` sorts before ``(X_2 ``.
    """
    counts = _derivation_counts(g)
    total = sum([counts[p] for p in g.root_positions])
    if total > cap:
        raise CapExceededError(total, cap)

    # A label's texts are dropped once its last parent is placed: on a unary
    # chain each label's texts contain its child's, and keeping them all
    # would hold characters quadratic in the chain's length.
    parents = g.parents
    roots = set(g.root_positions)
    texts: list[list[str] | None] = []
    gold: list[str] = []
    for p, (name, expansions) in enumerate(zip(g.labels, g.expansions)):
        if expansions:
            level: list[str] = []
            # The bracket text written out, as ``tree.bracket`` writes it,
            # with no call per text.
            for _, kids in expansions:
                if len(kids) == 1:
                    level += [f"({name} {a})" for a in texts[kids[0]]]
                else:
                    b_texts = texts[kids[1]]
                    level += [f"({name} {a} {b})" for a in texts[kids[0]] for b in b_texts]
            level.sort()
        else:
            level = [name]
        texts.append(level)
        if p in roots:
            gold.extend(level)
        for _, kids in expansions:
            for c in kids:
                if parents[c][0] == p:
                    texts[c] = None
    gold.sort()
    return tuple(gold)
