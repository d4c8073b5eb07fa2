"""Randomized structural properties over small synthetic grammars.

A quick slice runs here; the full 1,000-grammar sweep lives in the
acceptance suite.
"""

import re
import string
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from sewtree.experiments import roundtrip_grammar
from sewtree.metrics import grammar_score
from sewtree.labels import label_pieces
from sewtree.pipeline import build_forest, extract_document, linearize_gold_tree, placeholder_spec
from sewtree.grammar import GoldGrammar, GrammarError, count_derivations, parse_grammar, validate_grammar
from sewtree.rng import SplitMix64
from sewtree.synth import grammar_from_trees, grammar_to_text, random_grammar, random_inventory, random_tree
from sewtree.tree import canonical_serialize, parse_serialized, subtrees_of

from helpers import (
    Label,
    as_pair,
    chain_grammar,
    check_enumeration,
    check_grammar_properties,
    check_rule_graph,
    count_derivations_oracle,
    first_piece,
    glued_forest,
    gold_tree_oracle,
    label_of,
    label_rule,
    make_random_grammar,
    node_oracle,
    oracle_key,
    read_grammar_oracle,
    rule_labels,
    rule_oracle,
    validate_grammar_oracle,
)


@pytest.mark.parametrize("index", range(100))
def test_random_grammar_properties(index):
    check_grammar_properties(make_random_grammar(2024, index))


@pytest.mark.parametrize("index", range(25))
def test_random_grammar_roundtrip(index):
    grammar = make_random_grammar(77, index)
    assert roundtrip_grammar(grammar) == []


@pytest.mark.parametrize("index", range(25))
def test_build_glue_equivalence_on_random_docs(index):
    grammar = make_random_grammar(55, index)
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    tree = as_pair(gold_tree_oracle(grammar, cap=50_000)[0])
    doc = linearize_gold_tree(tree, spec)
    if not doc.steps:
        return
    report = build_forest(doc, extract_document(doc, spec), spec)
    assert glued_forest(report) == report.forest
    assert report.subtrees() == frozenset(subtrees_of(tree))


letters = hs.sampled_from(string.ascii_uppercase)
piece_labels = hs.builds(
    lambda letter, suffix: letter + suffix,
    letters,
    hs.sampled_from(["", "l", "r"]) | hs.integers(1, 999).map(str),
)


@given(hs.sets(piece_labels, min_size=1, max_size=8), hs.integers(0, 120))
def test_node_label_format_parse_roundtrip(pieces, counter):
    label = Label(tuple(sorted(pieces, key=oracle_key)), counter)
    assert label_pieces(str(label)) == (label.pieces, counter)


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 12), hs.integers(0, 60), hs.booleans())
def test_serialize_parse_roundtrip(seed, n_pieces, unary_percent, chain):
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    assert parse_serialized(canonical_serialize(*tree)) == tree


# Labels and headers that reach every branch of parse_grammar: the S root
# shorthand, well-formed and malformed labels and counters, unknown pieces.
FUZZ_LABELS = ("S", "S_1", "S_x", "S_²", "A", "B", "C", "Al", "A1", "A0", "AB", "AB_1",
               "AB_²", "ABC", "ABC_1", "BA", "AA", "a", "_")
FUZZ_HEADERS = ("pattern:", "pieces:", "roots:", "#")


def grammar_lines():
    labels = hs.lists(hs.sampled_from(FUZZ_LABELS), max_size=3).map(" ".join)
    rule = hs.builds(lambda p, c: f"{p} -> {c}", hs.sampled_from(FUZZ_LABELS), labels)
    header = hs.builds(lambda h, rest: f"{h} {rest}", hs.sampled_from(FUZZ_HEADERS), labels)
    return hs.lists(hs.one_of(rule, header, hs.text(max_size=12)), max_size=8)


# Pieces outside every inventory random_inventory draws of fewer than 26
# pieces, in piece order, which is not their text order (Z, Z10, Z2).  A
# label's pieces all sort before them, so any of them added in this order
# keep the label's pieces sorted.
OUTSIDE_PIECES = ("Z", "Z2", "Z10")


def with_outside(label: Label, outside) -> Label:
    """``label`` with the pieces of ``OUTSIDE_PIECES`` that are in
    ``outside`` added."""
    return Label(label.pieces + tuple(p for p in OUTSIDE_PIECES if p in outside), label.self_attach)


outside_pieces = hs.sets(hs.sampled_from(OUTSIDE_PIECES), min_size=1)


@hs.composite
def perturbed_rules(draw, grammar):
    """Rules of ``grammar`` with a counter changed, pieces outside the
    inventory added to one or two of its labels, or a child replaced,
    dropped or joined by another of its labels: every line parses, and most
    break the label arithmetic, have 3 children or use unknown pieces."""
    rules = [rule_labels(rule) for rule in sorted(grammar.rules)]
    if not rules:
        return []
    labels = sorted({label for parent, children in rules for label in (parent, *children)}, key=str)
    lines = []
    for _ in range(draw(hs.integers(0, 4), label="perturbed rules")):
        parent, children = draw(hs.sampled_from(rules))
        nodes = [parent, *children]
        changes = ["counter", "unknown", "replace", "add", *(["drop"] if len(nodes) == 3 else [])]
        change = draw(hs.sampled_from(changes))
        if change == "counter":
            at = draw(hs.integers(0, len(nodes) - 1))
            nodes[at] = Label(nodes[at].pieces, draw(hs.integers(0, 3)))
        elif change == "unknown":
            for at in draw(hs.sets(hs.integers(0, len(nodes) - 1), min_size=1, max_size=2)):
                nodes[at] = with_outside(nodes[at], draw(outside_pieces, label="outside"))
        elif change == "replace":
            nodes[draw(hs.integers(0, len(nodes) - 1))] = draw(hs.sampled_from(labels))
        elif change == "drop":
            del nodes[draw(hs.integers(1, 2))]
        else:
            nodes.append(draw(hs.sampled_from(labels)))
        lines.append(f"{nodes[0]} -> {' '.join(map(str, nodes[1:]))}")
    return lines


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 6), grammar_lines(), hs.data())
def test_parse_grammar_rejects_or_keeps_every_rule_valid(seed, n_pieces, noise, data):
    """On a synthetic grammar file with lines added and deleted,
    parse_grammar raises GrammarError or returns a grammar whose every rule
    is a valid assembly step over its inventory and that passes
    validate_grammar.  The added lines are fuzz and perturbed copies of the
    grammar's own rules."""
    rng = SplitMix64(seed)
    grammar = grammar_from_trees("fuzz", [random_tree(rng, random_inventory(rng, n_pieces))])
    lines = grammar_to_text(grammar).splitlines()
    assert parse_grammar("\n".join(lines)) == grammar
    assert validate_grammar(grammar) == []

    perturbed = data.draw(perturbed_rules(grammar), label="perturbed")
    # The perturbed rules also go, alone, after the headers: among the fuzz
    # lines most files fail on a fuzz line before any rule is checked.
    clean = "\n".join(lines + perturbed)
    for line in noise + perturbed:
        lines.insert(data.draw(hs.integers(0, len(lines)), label="at"), line)
    dropped = data.draw(hs.sets(hs.integers(0, len(lines) - 1)), label="dropped")
    for text in ("\n".join(l for i, l in enumerate(lines) if i not in dropped), clean):
        try:
            parsed = parse_grammar(text)
        except GrammarError:
            continue
        assert validate_grammar(parsed) == []
        for rule in parsed.rules:
            parent, children = rule_labels(rule)
            assert node_oracle(parent, children) == []
            for label in (parent, *children):
                assert label.piece_set <= frozenset(parsed.inventory)


@given(hs.integers(0, 2**64 - 1), hs.integers(2, 6), hs.integers(1, 2), hs.data())
def test_validate_grammar_matches_the_set_and_walk_oracle(seed, n_pieces, n_trees, data):
    """On a synthetic grammar with rules dropped, perturbed rules added
    (unknown pieces, 3 children and broken label arithmetic among them) and
    its roots redrawn, perhaps to none or to unknown pieces, the
    constructor raises iff the oracle finds problems, with exactly the
    oracle's list, and so does parse_grammar on the grammar's file;
    validate_grammar of the texts returns that list.  A grammar it makes
    counts, enumerates and scores."""
    rng = SplitMix64(seed)
    inventory = random_inventory(rng, n_pieces)
    grammar = grammar_from_trees("fuzz", [random_tree(rng, inventory) for _ in range(n_trees)])
    grammar_rules = [rule_labels(rule) for rule in grammar.rules]
    dropped = data.draw(hs.sets(hs.sampled_from(grammar_rules)), label="dropped")
    rules = [rule for rule in grammar_rules if rule not in dropped]
    perturbed = data.draw(perturbed_rules(grammar), label="perturbed")
    rules += [rule_oracle(0, line) for line in perturbed]
    labels = sorted(
        {label for parent, children in (*grammar_rules, *rules) for label in (parent, *children)}, key=str
    )
    grammar_roots = list(map(label_of, grammar.roots))
    roots = data.draw(hs.one_of(
        hs.just(grammar_roots),
        outside_pieces.map(lambda outside: [with_outside(r, outside) for r in grammar_roots]),
        hs.lists(hs.sampled_from(labels), max_size=3, unique=True),
    ), label="roots")
    root_texts, rule_texts = list(map(str, roots)), [label_rule(*rule) for rule in rules]
    text = grammar_to_text(SimpleNamespace(
        pattern_id="fuzz", inventory=grammar.inventory, roots=root_texts, rules=rule_texts
    ))
    expected = validate_grammar_oracle(frozenset(grammar.inventory), roots, rules)
    if expected:
        for make in (lambda: GoldGrammar("fuzz", grammar.inventory, root_texts, rule_texts),
                     lambda: parse_grammar(text)):
            with pytest.raises(GrammarError) as exc:
                make()
            assert exc.value.problems == expected
            assert str(exc.value) == "pattern 'fuzz': invalid grammar: " + "; ".join(expected[:3])
        assert validate_grammar(SimpleNamespace(
            pattern_id="fuzz", inventory=grammar.inventory, roots=root_texts, rules=rule_texts
        )) == expected
    else:
        g = GoldGrammar("fuzz", grammar.inventory, root_texts, rule_texts)
        check_rule_graph(g)
        assert validate_grammar(g) == []
        assert parse_grammar(text) == g
        check_enumeration(g)
        assert 0 < grammar_score(frozenset(g.rules), g).f1 <= 1


@given(hs.sets(piece_labels, min_size=1, max_size=6), hs.integers(1, 2), hs.data())
def test_parse_grammar_accepts_a_rule_iff_it_is_a_valid_step(inventory, n_children, data):
    """A one-rule grammar over labels from the inventory has its rule
    refused, alone and named with its children in canonical order (the
    parser puts them in that order), iff the rule's label arithmetic fails;
    any other refusal is of the grammar as a whole."""
    pieces = sorted(inventory, key=oracle_key)

    def draw_label(name):
        chosen = data.draw(hs.sets(hs.sampled_from(pieces), min_size=1), label=name)
        return Label(tuple(sorted(chosen, key=oracle_key)), data.draw(hs.integers(0, 2), label=f"{name} counter"))

    parent = draw_label("parent")
    children = tuple(draw_label(f"child {i}") for i in range(n_children))
    text = (f"pattern: p\npieces: {' '.join(pieces)}\nroots: S\n"
            f"{parent} -> {' '.join(map(str, children))}\n")
    kids = tuple(sorted(children, key=first_piece))
    rule = label_rule(parent, kids)
    try:
        parse_grammar(text)
    except GrammarError as exc:
        problems = exc.problems
        assert str(exc).startswith("pattern 'p': invalid grammar: ")
    else:
        problems = []
    violations = node_oracle(parent, kids)
    if violations:
        assert problems == [f"{rule}: {violations[0][1]}"]
    else:
        own = [p for p in problems if p.startswith(f"{rule}: ")]
        assert own in ([], [f"{rule}: no root reaches this rule"])


# The differential test's inventory, a mirrored pair among plain pieces so
# that child order depends on variants too; Q is the piece outside it.  The
# prelude's valid rules come first, so the drawn line meets labels that the
# parser has already seen in other roles.
RULE_INVENTORY = ("A", "B", "C", "Dl", "Dr")
RULE_PRELUDE = ("AB -> A B", "CDlDr_1 -> CDlDr")
MALFORMED_LABELS = ("BA", "AA", "A_0", "AB_01", "a", "_1", "A0")


def node_text(pieces, counter: int) -> str:
    return str(Label(tuple(sorted(pieces, key=oracle_key)), counter))


@hs.composite
def rule_lines(draw):
    """A rule line over RULE_INVENTORY and Q: a unary or binary step, often
    broken by one change to its pieces or counters and with its children
    possibly reversed, or labels drawn at random, malformed ones among
    them, for 0 to 3 children."""
    known = hs.sampled_from(RULE_INVENTORY)
    pool = hs.sampled_from(RULE_INVENTORY + ("Q",))
    counters = hs.integers(0, 3)
    parent = draw(hs.sets(known, min_size=1, max_size=4), label="parent")
    if draw(hs.integers(0, 9), label="unknown parent piece") == 0:
        parent.add("Q")
    top = draw(counters, label="parent counter")
    shape = draw(hs.sampled_from(["unary", "binary", "random"]), label="shape")
    if shape == "unary":
        low = draw(hs.sampled_from([top - 1, top - 1, top, top + 1]), label="child counter")
        kids = [node_text(parent, max(low, 0))]
    elif shape == "binary" and len(parent) > 1:
        order = sorted(parent)
        left = set(draw(hs.sets(hs.sampled_from(order), min_size=1, max_size=len(order) - 1)))
        right = set(order) - left
        change = draw(hs.sampled_from(["none", "none", "share", "drop", "extra"]), label="change")
        if change == "share":
            right.add(draw(hs.sampled_from(sorted(left))))
        elif change == "drop" and len(right) > 1:
            right.remove(draw(hs.sampled_from(sorted(right))))
        elif change == "extra":
            right.add(draw(pool))
        low, high = draw(counters), draw(counters)
        if draw(hs.integers(0, 3), label="counter not the max") != 0:
            top = max(low, high)
        kids = [node_text(left, low), node_text(right, high)]
        if draw(hs.booleans(), label="reversed"):
            kids.reverse()
    else:
        any_label = hs.one_of(
            hs.builds(node_text, hs.sets(pool, min_size=1, max_size=4), counters),
            hs.sampled_from(MALFORMED_LABELS),
        )
        kids = draw(hs.lists(any_label, max_size=3), label="children")
        if draw(hs.integers(0, 9), label="malformed parent") == 0:
            return f"{draw(hs.sampled_from(MALFORMED_LABELS))} -> {' '.join(kids)}".strip()
    return f"{node_text(parent, top)} -> {' '.join(kids)}".strip()


@given(rule_lines())
@example("AB -> A Q")  # an unknown piece in a child
@example("AQ -> A Q")  # and in the parent, reported first
@example("AB ->")  # 0 children
@example("ABC -> A B C")  # 3 children
@example("ABC -> AB BC")  # children share B
@example("ABC -> AB AC")  # and their first piece: kept in file order
@example("ABC -> A B")  # the union misses C
@example("ABC -> AB Dl")  # the union is not the parent's pieces
@example("AB_2 -> AB")  # unary counter off by two
@example("AB_1 -> AB_1")  # unary counter unchanged
@example("ABC -> ABC")
@example("AB_1 -> A B")  # binary counter above the max
@example("AB -> A_1 B")  # and below it
@example("ABC_1 -> C AB_1")  # reversed child order
@example("DlDr -> Dr Dl")
@example("AB -> BA Q_0")  # a malformed label before any piece check
@example("AB_1 -> A")  # a unary child with other pieces
@example("AB\t->\tB\tA")  # tabs around the arrow and between the children
def test_parse_grammar_checks_rules_like_the_oracle(line):
    """A rule line whose labels do not parse gives the oracle's line
    message; otherwise the file is refused with the oracle's problems for
    the rules it reads.

    No rule line expands the root S, whose five pieces no drawn parent has,
    so a file whose rules all pass is refused as a whole, and the refusal
    names every rule in file order as one no root reaches."""
    inventory = frozenset(RULE_INVENTORY)
    lines = [*RULE_PRELUDE, line]
    text = f"pattern: p\npieces: {' '.join(RULE_INVENTORY)}\nroots: S\n" + "\n".join(lines)
    with pytest.raises(GrammarError) as got:
        parse_grammar(text)
    try:
        rules = [rule_oracle(lineno, l) for lineno, l in enumerate(lines, start=4)]
    except GrammarError as exc:
        assert str(got.value) == str(exc)
    else:
        root = Label(tuple(sorted(inventory, key=oracle_key)), 0)
        assert got.value.problems == validate_grammar_oracle(inventory, (root,), rules)
        unreached = [p for p in got.value.problems if p.endswith(": no root reaches this rule")]
        every_rule = [f"{label_rule(*rule)}: no root reaches this rule" for rule in dict.fromkeys(rules)]
        assert unreached in ([], every_rule)


# Pieces that no random_inventory of fewer than 26 pieces holds: Z and Q
# sort after its letters, A9 among the copies of A.
OUTSIDE_TEXTS = ("Z", "Q", "A9")
PIECE_TEXT = re.compile(r"[A-Z](?:[lr]|[0-9]+)?")
DIGITS = re.compile(r"[0-9]*")
LABEL_CHANGES = ("outside", "zero", "leading-zero", "non-digit", "swap", "repeat", "counter+1", "counter-1")


@hs.composite
def mutated_label(draw, text):
    """``text`` with one change to its pieces or counter: a piece outside
    the inventory anywhere, a ``_0``, leading-zero or non-digit counter,
    two neighbouring pieces swapped, a piece repeated, or the counter one
    off."""
    body, _, counter = text.partition("_")
    pieces = PIECE_TEXT.findall(body)
    change = draw(hs.sampled_from(LABEL_CHANGES), label="label change")
    if change == "outside":
        at = draw(hs.integers(0, len(pieces)), label="at")
        pieces.insert(at, draw(hs.sampled_from(OUTSIDE_TEXTS), label="piece"))
    elif change == "zero":
        counter = "0"
    elif change == "leading-zero":
        counter = "0" + (counter or "1")
    elif change == "non-digit":
        counter = draw(hs.sampled_from(["x", "1a", "", "²"]), label="counter")
    elif change == "swap" and len(pieces) > 1:
        at = draw(hs.integers(0, len(pieces) - 2), label="at")
        pieces[at:at + 2] = pieces[at + 1], pieces[at]
    elif change == "repeat":
        pieces.insert(draw(hs.integers(0, len(pieces)), label="at"), draw(hs.sampled_from(pieces)))
    elif change in ("counter+1", "counter-1") and DIGITS.fullmatch(counter):
        n = int(counter or 0) + (1 if change == "counter+1" else -1)
        counter = str(n) if n > 0 else ""
    suffix = f"_{counter}" if counter or change == "non-digit" else ""
    return "".join(pieces) + suffix


GRAMMAR_CHANGES = (
    "label", "reverse", "interleave", "share", "unary-off", "repeat-rule", "repeat-root", "S"
)
# Piece texts whose text order is not their sort order (A1 before Al, A10
# before A2), for renaming an inventory.
RENAMED_PIECES = ("A", "Al", "Ar", "A1", "A2", "A10", "B", "B3", "B12", "Cl", "Cr", "C")


def sorted_label(pieces, counter: str) -> str:
    """The label text of piece texts ``pieces``, put in sort order."""
    body = "".join(sorted(pieces, key=oracle_key))
    return f"{body}_{counter}" if counter else body


def renamed_lines(lines, names) -> list[str]:
    """A grammar file's lines with each piece renamed by ``names`` and
    every label's pieces put back in sort order."""

    def rename(token):
        body, _, counter = token.partition("_")
        return sorted_label([names[p] for p in PIECE_TEXT.findall(body)], counter)

    out = lines[:1] + ["pieces: " + " ".join(names[p] for p in lines[1].split()[1:])]
    out.append(" ".join(["roots:", *map(rename, lines[2].split()[1:])]))
    for line in lines[3:]:
        parent, kids = line.split(" -> ")
        out.append(f"{rename(parent)} -> {' '.join(map(rename, kids.split()))}")
    return out


@hs.composite
def mutated_grammar_texts(draw):
    """The file of a random or chain grammar, its pieces perhaps renamed to
    ones whose text order is not their sort order, with up to four changes:
    a label changed on a rule or the roots line, a binary rule's children
    reversed, replaced by two that interleave or made to share a piece, a
    unary child's counter one off, a rule or root repeated, or the roots
    line written with ``S``/``S_n``."""
    seed = draw(hs.integers(0, 2**64 - 1), label="seed")
    if draw(hs.booleans(), label="chain"):
        grammar = chain_grammar(1 + SplitMix64(seed).randrange(12))
    else:
        rng = SplitMix64(seed)
        grammar = random_grammar(rng, "m", 2 + rng.randrange(6), 1 + rng.randrange(4))
    lines = grammar_to_text(grammar).splitlines()
    if draw(hs.booleans(), label="renamed"):
        pieces = lines[1].split()[1:]
        names = draw(hs.permutations(RENAMED_PIECES), label="names")
        lines = renamed_lines(lines, dict(zip(pieces, names)))
    for _ in range(draw(hs.integers(0, 4), label="changes")):
        change = draw(hs.sampled_from(GRAMMAR_CHANGES), label="change")
        at = draw(hs.integers(3, len(lines) - 1), label="rule line")
        parent, kids = lines[at].split(" -> ")
        kids = kids.split()
        roots = lines[2].split()[1:]
        if change == "label":
            if draw(hs.booleans(), label="on the roots line"):
                i = draw(hs.integers(0, len(roots) - 1))
                roots[i] = draw(mutated_label(roots[i]))
            else:
                tokens = [parent, *kids]
                i = draw(hs.integers(0, len(tokens) - 1))
                tokens[i] = draw(mutated_label(tokens[i]))
                parent, *kids = tokens
        elif change == "reverse":
            kids.reverse()
        elif change == "interleave":
            body, _, counter = parent.partition("_")
            pieces = PIECE_TEXT.findall(body)
            if len(pieces) > 2:
                kids = ["".join(pieces[0::2]) + (f"_{counter}" if counter else ""), "".join(pieces[1::2])]
        elif change == "share" and len(kids) == 2:
            # A piece of the first child added to the second: children that
            # share a piece and whose union is still the parent's pieces.
            first, _, _ = kids[0].partition("_")
            body, _, counter = kids[1].partition("_")
            shared = draw(hs.sampled_from(PIECE_TEXT.findall(first)), label="shared")
            kids[1] = sorted_label([*PIECE_TEXT.findall(body), shared], counter)
        elif change == "unary-off" and len(kids) == 1 and DIGITS.fullmatch(kids[0].partition("_")[2]):
            body, _, counter = kids[0].partition("_")
            n = int(counter or 0) + draw(hs.sampled_from([1, -1]), label="off by")
            kids = [body + (f"_{n}" if n > 0 else "")]
        elif change == "repeat-rule":
            lines.insert(draw(hs.integers(3, len(lines))), lines[at])
        elif change == "repeat-root":
            roots.append(draw(hs.sampled_from(roots)))
        elif change == "S":
            counter = roots[0].partition("_")[2]
            roots = [f"S_{counter}" if counter else "S"]
        lines[2] = " ".join(["roots:", *roots])
        lines[at] = f"{parent} -> {' '.join(kids)}"
    return "\n".join(lines) + "\n"


@given(mutated_grammar_texts())
@example("pattern: p\npieces: A B\nroots: AB\nAB -> B A\nAB -> A B\n")
@example("pattern: p\npieces: A B C\nroots: ABC ABQ\nAB_2 -> AB\nABC -> A C\nAB -> A B\n")
@example("pattern: p\npieces: A B C\nroots: AQ\nAQ -> Q A\n")
@example("pattern: p\npieces: A B C D\nroots: S_1\nABCD_1 -> AC_1 BD\nAC_1 -> AC\nAC -> A C\nBD -> D B\n")
@example("pattern: p\npieces: B A1 Al\nroots: S\nAlA1B -> B AlA1\nAlA1 -> A1 Al\n")  # Al sorts before A1
@example("pattern: p\npieces: A B\nroots: AB\nAB -> A B\nAB_1 -> BA\n")  # pieces out of order
def test_parse_grammar_matches_the_object_oracle(text):
    """``parse_grammar``, which reads labels into masks, against the object
    reader and the set-and-walk validator: the same message and problems,
    or else the same label texts, expansions, root positions, root and
    rule texts and derivation counts, keyed by the root texts."""
    try:
        pattern_id, inventory, roots, rules = read_grammar_oracle(text)
        problems = validate_grammar_oracle(inventory, roots, rules)
        expected = problems and GrammarError(
            f"pattern {pattern_id!r}: invalid grammar: " + "; ".join(problems[:3]), problems
        )
    except GrammarError as exc:
        expected = exc
    if expected:
        with pytest.raises(GrammarError) as got:
            parse_grammar(text)
        assert (str(got.value), got.value.problems) == (str(expected), expected.problems)
        return
    g = parse_grammar(text)
    roots, rules = list(dict.fromkeys(roots)), list(dict.fromkeys(rules))
    assert (g.roots, g.rules) == (tuple(map(str, roots)), tuple(label_rule(*rule) for rule in rules))
    labels = sorted(
        {*roots, *(label for parent, children in rules for label in (parent, *children))},
        key=lambda label: (len(label.pieces), label.self_attach, str(label)),
    )
    position = {label: p for p, label in enumerate(labels)}
    assert g.labels == tuple(map(str, labels))
    assert g.expansions == tuple(
        tuple((label_rule(parent, children), tuple(position[c] for c in children))
              for parent, children in rules if parent == label)
        for label in labels
    )
    assert g.root_positions == tuple(position[root] for root in roots)
    counts = count_derivations(g)
    assert counts == count_derivations_oracle(roots, rules)
    assert list(counts) == list(map(str, roots))


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 8), hs.integers(1, 3))
def test_a_grammar_built_from_rule_texts_is_its_file_read_back(seed, n_pieces, n_trees):
    """A grammar built from the root texts and the rule texts of random
    trees keeps each once, in first-seen order, and equals the grammar
    ``parse_grammar`` reads from its file."""
    rng = SplitMix64(seed)
    inventory = random_inventory(rng, n_pieces)
    trees = [random_tree(rng, inventory) for _ in range(n_trees)]
    roots = [root for root, _ in trees]
    rules = [rule for tree in trees for rule in subtrees_of(tree)]
    g = GoldGrammar("p", frozenset(inventory), roots, rules)
    assert (g.roots, g.rules) == (tuple(dict.fromkeys(roots)), tuple(dict.fromkeys(rules)))
    assert parse_grammar(grammar_to_text(g)) == g
