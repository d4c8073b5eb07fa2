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
from sewtree.grammar import enumerate_gold_trees
from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory, random_tree
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
