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
    format_node_label,
    parse_node_label,
)
from sewtree.pipeline import build_forest, extract_document, linearize_gold_tree, placeholder_spec
from sewtree.grammar import GrammarError, enumerate_gold_trees, parse_grammar, validate_grammar
from sewtree.rng import SplitMix64
from sewtree.synth import grammar_from_trees, grammar_to_text, random_inventory, random_tree
from sewtree.tree import canonical_serialize, depth_one_subtrees, glue_subtrees, parse_serialized

from helpers import check_grammar_properties, make_random_grammar


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
    trees = enumerate_gold_trees(grammar, cap=50_000)
    doc = linearize_gold_tree(trees[0], spec)
    if not doc.steps:
        return
    report = build_forest(doc, extract_document(doc, spec), spec)
    glued = glue_subtrees(
        (st for _, st in report.subtree_trace), report.forest.isolated_leaves()
    )
    assert glued == report.forest
    assert report.subtrees() == depth_one_subtrees(trees[0])


letters = hs.sampled_from(string.ascii_uppercase)
piece_labels = hs.one_of(
    hs.builds(PieceLabel, letters, hs.sampled_from([PLAIN, LEFT, RIGHT])),
    hs.builds(PieceLabel, letters, hs.just(COPY), hs.integers(1, 999)),
)


@given(hs.sets(piece_labels, min_size=1, max_size=8), hs.integers(0, 120))
def test_node_label_format_parse_roundtrip(pieces, counter):
    label = NodeLabel(tuple(sorted(pieces)), counter)
    assert parse_node_label(format_node_label(label)) == label


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 12), hs.integers(0, 60), hs.booleans())
def test_serialize_parse_roundtrip(seed, n_pieces, unary_percent, chain):
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent, chain=chain)
    assert parse_serialized(canonical_serialize(tree)) == tree


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


@given(hs.integers(0, 2**64 - 1), hs.integers(1, 6), grammar_lines(), hs.data())
def test_parse_grammar_rejects_or_keeps_every_rule_valid(seed, n_pieces, noise, data):
    """On a synthetic grammar file with lines added and deleted,
    parse_grammar raises GrammarError or returns a grammar in which
    validate_grammar finds no defect of a single rule; what it may still
    report is a label that no rule expands or a root that misses pieces,
    which only validate_grammar checks."""
    rng = SplitMix64(seed)
    grammar = grammar_from_trees("fuzz", [random_tree(rng, random_inventory(rng, n_pieces))])
    lines = grammar_to_text(grammar).splitlines()
    assert parse_grammar("\n".join(lines)) == grammar
    assert validate_grammar(grammar) == []

    for line in noise:
        lines.insert(data.draw(hs.integers(0, len(lines)), label="at"), line)
    dropped = data.draw(hs.sets(hs.integers(0, len(lines) - 1)), label="dropped")
    try:
        parsed = parse_grammar("\n".join(l for i, l in enumerate(lines) if i not in dropped))
    except GrammarError:
        return
    global_kinds = ("no rule expands this non-leaf label", "does not cover the full piece inventory")
    assert all(v.endswith(global_kinds) for v in validate_grammar(parsed))
