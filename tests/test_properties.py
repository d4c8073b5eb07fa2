"""Randomized structural properties over small synthetic grammars.

A quick slice runs here; the full 1,000-grammar sweep lives in the
acceptance suite.
"""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.experiments import roundtrip_grammar
from sewtree.labels import (
    COPY,
    LEFT,
    PLAIN,
    RIGHT,
    NodeLabel,
    PieceLabel,
    attachment_violations,
    parse_node_label,
)
from sewtree.pipeline import build_forest, extract_document, linearize_gold_tree, placeholder_spec
from sewtree.grammar import GrammarError, parse_grammar, validate_grammar
from sewtree.rng import SplitMix64
from sewtree.synth import grammar_from_trees, grammar_to_text, random_inventory, random_tree
from sewtree.tree import canonical_serialize, parse_serialized, subtrees_of

from helpers import as_pair, check_grammar_properties, glued_forest, gold_tree_oracle, make_random_grammar


@pytest.mark.parametrize("index", range(100))
def test_random_grammar_properties(index):
    check_grammar_properties(make_random_grammar(2024, index))


@pytest.mark.parametrize("index", range(25))
def test_random_grammar_roundtrip(index):
    grammar = make_random_grammar(77, index)
    assert roundtrip_grammar(grammar, cap=50_000) == []


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
piece_labels = hs.one_of(
    hs.builds(PieceLabel, letters, hs.sampled_from([PLAIN, LEFT, RIGHT])),
    hs.builds(PieceLabel, letters, hs.just(COPY), hs.integers(1, 999)),
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
    is a valid assembly step over its inventory; a label that no rule
    expands or a root that misses pieces is left to validate_grammar.  The
    added lines are fuzz and perturbed copies of the grammar's own rules."""
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
        for rule in parsed.rules:
            assert attachment_violations(rule.parent, rule.children) == []
            for label in (rule.parent, *rule.children):
                assert label.piece_set <= parsed.inventory


@given(hs.sets(piece_labels, min_size=1, max_size=6), hs.integers(1, 2), hs.data())
def test_parse_grammar_accepts_a_rule_iff_it_is_a_valid_step(inventory, n_children, data):
    """A one-rule grammar over labels from the inventory parses iff the
    rule's label arithmetic holds."""
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
    except GrammarError:
        accepted = False
    else:
        accepted = True
    assert accepted == (attachment_violations(parent, children) == [])
