"""Randomized structural properties over small synthetic grammars.

A quick slice runs here; the full 1,000-grammar sweep lives in the
acceptance suite.
"""

import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from sewtree.experiments import roundtrip_grammar
from sewtree.labels import (
    NodeLabel,
    PieceLabel,
    child_order_key,
    parse_node_label,
    parse_piece_label,
)
from sewtree.pipeline import build_forest, extract_document, linearize_gold_tree, placeholder_spec
from sewtree.grammar import GoldGrammar, GrammarError, parse_grammar, validate_grammar
from sewtree.rng import SplitMix64
from sewtree.synth import grammar_from_trees, grammar_to_text, random_inventory, random_tree
from sewtree.tree import canonical_serialize, parse_serialized, subtrees_of

from helpers import (
    as_pair,
    check_grammar_properties,
    check_rule_graph,
    glued_forest,
    gold_tree_oracle,
    make_random_grammar,
    node_oracle,
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
    lambda letter, suffix: PieceLabel(letter + suffix),
    letters,
    hs.sampled_from(["", "l", "r"]) | hs.integers(1, 999).map(str),
)


@given(hs.sets(piece_labels, min_size=1, max_size=8), hs.integers(0, 120))
def test_node_label_format_parse_roundtrip(pieces, counter):
    label = NodeLabel(tuple(sorted(pieces)), counter)
    assert parse_node_label(str(label)) == label


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


@hs.composite
def perturbed_rules(draw, grammar):
    """Rules of ``grammar`` with a counter changed, or a child replaced,
    dropped or joined by another of its labels: every line parses and uses
    known pieces, and most break the label arithmetic."""
    rules = sorted(grammar.rules, key=str)
    if not rules:
        return []
    labels = sorted({label for rule in rules for label in (rule.parent, *rule.children)}, key=str)
    lines = []
    for _ in range(draw(hs.integers(0, 4), label="perturbed rules")):
        rule = draw(hs.sampled_from(rules))
        nodes = [rule.parent, *rule.children]
        change = draw(hs.sampled_from(["counter", "replace", "drop" if len(nodes) == 3 else "add"]))
        if change == "counter":
            at = draw(hs.integers(0, len(nodes) - 1))
            nodes[at] = NodeLabel(nodes[at].pieces, draw(hs.integers(0, 3)))
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
            assert node_oracle(rule.parent, rule.children) == []
            for label in (rule.parent, *rule.children):
                assert label.piece_set <= parsed.inventory


@given(hs.integers(0, 2**64 - 1), hs.integers(2, 6), hs.integers(1, 2), hs.data())
def test_validate_grammar_matches_the_set_and_walk_oracle(seed, n_pieces, n_trees, data):
    """On a synthetic grammar with rules dropped, valid perturbed rules
    added and its roots redrawn from its labels, validate_grammar gives the
    oracle's lines: the labels no rule expands, the rules a recursive walk
    from the roots does not reach, the roots missing pieces.  Its file
    parses iff there are none, and is refused with all of them."""
    rng = SplitMix64(seed)
    inventory = random_inventory(rng, n_pieces)
    grammar = grammar_from_trees("fuzz", [random_tree(rng, inventory) for _ in range(n_trees)])
    dropped = data.draw(hs.sets(hs.sampled_from(grammar.rules)), label="dropped")
    rules = [rule for rule in grammar.rules if rule not in dropped]
    for line in data.draw(perturbed_rules(grammar), label="perturbed"):
        try:
            rules.append(rule_oracle(0, line, grammar.inventory))
        except GrammarError:
            pass
    labels = sorted({label for r in grammar.rules for label in (r.parent, *r.children)}, key=str)
    roots = data.draw(hs.one_of(
        hs.just(list(grammar.roots)),
        hs.lists(hs.sampled_from(labels), min_size=1, max_size=3, unique=True),
    ), label="roots")
    g = GoldGrammar("fuzz", grammar.inventory, tuple(roots), tuple(dict.fromkeys(rules)))
    check_rule_graph(g)
    expected = validate_grammar_oracle(g)
    assert validate_grammar(g) == expected
    text = grammar_to_text(g)
    if expected:
        with pytest.raises(GrammarError) as exc:
            parse_grammar(text)
        assert exc.value.problems == expected
    else:
        assert parse_grammar(text) == g


@given(hs.sets(piece_labels, min_size=1, max_size=6), hs.integers(1, 2), hs.data())
def test_parse_grammar_accepts_a_rule_iff_it_is_a_valid_step(inventory, n_children, data):
    """A one-rule grammar over labels from the inventory has its rule
    refused iff the rule's label arithmetic fails, its children in canonical
    order (the parser puts them in that order); any other refusal is of the
    grammar as a whole."""
    pieces = sorted(inventory)

    def draw_label(name):
        chosen = data.draw(hs.sets(hs.sampled_from(pieces), min_size=1), label=name)
        return NodeLabel(tuple(sorted(chosen)), data.draw(hs.integers(0, 2), label=f"{name} counter"))

    parent = draw_label("parent")
    children = tuple(draw_label(f"child {i}") for i in range(n_children))
    text = (f"pattern: p\npieces: {' '.join(map(str, pieces))}\nroots: S\n"
            f"{parent} -> {' '.join(map(str, children))}\n")
    try:
        parse_grammar(text)
    except GrammarError as exc:
        accepted = not str(exc).startswith("line 4: ")
        if accepted:
            assert str(exc).startswith("pattern 'p': invalid grammar: ")
    else:
        accepted = True
    assert accepted == (node_oracle(parent, sorted(children, key=child_order_key)) == [])


# The differential test's inventory, a mirrored pair among plain pieces so
# that child order depends on variants too; Q is the piece outside it.  The
# prelude's valid rules come first, so the drawn line meets labels that the
# parser has already seen in other roles.
RULE_INVENTORY = ("A", "B", "C", "Dl", "Dr")
RULE_PRELUDE = ("AB -> A B", "CDlDr_1 -> CDlDr")
MALFORMED_LABELS = ("BA", "AA", "A_0", "AB_01", "a", "_1", "A0")


def node_text(pieces, counter: int) -> str:
    return str(NodeLabel(tuple(sorted(map(parse_piece_label, pieces))), counter))


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
def test_parse_grammar_checks_rules_like_the_oracle(line):
    """Each rule line gives the oracle's rule, or its error message.

    No rule line expands the root S, whose five pieces no drawn parent has,
    so a file whose rules all pass is refused as a whole, and the refusal
    names every rule in file order as one no root reaches."""
    inventory = frozenset(map(parse_piece_label, RULE_INVENTORY))
    lines = [*RULE_PRELUDE, line]
    text = f"pattern: p\npieces: {' '.join(RULE_INVENTORY)}\nroots: S\n" + "\n".join(lines)
    with pytest.raises(GrammarError) as got:
        parse_grammar(text)
    try:
        expected = [rule_oracle(lineno, l, inventory) for lineno, l in enumerate(lines, start=4)]
    except GrammarError as exc:
        assert str(got.value) == str(exc)
    else:
        rules = tuple(dict.fromkeys(expected))
        unreached = [p for p in got.value.problems if p.endswith(": no root reaches this rule")]
        assert unreached == [f"{rule}: no root reaches this rule" for rule in rules]
        root = NodeLabel(tuple(sorted(inventory)), 0)
        assert got.value.problems == validate_grammar(GoldGrammar("p", inventory, (root,), rules))
