"""grammar_score against its oracle, tree_score over the enumerated gold texts.

Precision, recall and F1 must be equal with ``==``: the DP computes them
with the same float expression as the oracle, so any difference is a bug.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc, score_document
from sewtree.grammar import enumerate_gold_trees, parse_grammar
from sewtree.metrics import grammar_score, tree_score
from sewtree.pipeline import (
    InstructionDoc,
    build_forest,
    extract_document,
    linearize_gold_tree,
    placeholder_spec,
)
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_from_trees, random_grammar, random_inventory, random_tree
from sewtree.tree import AssemblyNode, depth_one_subtrees, parse_serialized

from conftest import GRAMMAR_NAMES, load_grammar
from helpers import gold_tree_oracle

PLANS = (
    ErrorInjectionPlan(swap_adjacent=1),
    ErrorInjectionPlan(drop_step=1),
    ErrorInjectionPlan(wrong_piece=1),
    ErrorInjectionPlan(swap_adjacent=1, wrong_piece=1),
)


def assert_matches_oracle(predicted, grammar, gold):
    dp = grammar_score(predicted, grammar)
    oracle = tree_score(predicted, gold)
    assert (dp.precision, dp.recall, dp.f1) == (oracle.precision, oracle.recall, oracle.f1)
    assert dp.best_gold_tree == oracle.best_gold_tree
    assert dp.matched == oracle.matched


def corpus_predictions(grammar, seed: int, extra_trees=(), plans=PLANS):
    """Predicted subtree sets of the first gold trees and of other trees over the same
    pieces, each linearized as written, permuted and error-injected."""
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    for index, tree in enumerate((*gold_tree_oracle(grammar)[:2], *extra_trees)):
        doc = linearize_gold_tree(tree, spec)
        if not doc.steps:
            continue
        docs = [doc, *permute_doc(doc, seed, 1)]
        for plan in plans:
            if plan.drop_step + plan.swap_adjacent < len(doc.steps):
                docs.append(inject_errors(doc, plan, derive_seed(seed, str(index)), spec)[0])
        for variant in docs:
            yield build_forest(variant, extract_document(variant, spec), spec).subtrees()


@pytest.mark.parametrize("name", GRAMMAR_NAMES)
def test_fixture_grammars_match_oracle(name):
    grammar = load_grammar(name)
    gold = enumerate_gold_trees(grammar)
    rng = SplitMix64(derive_seed(3, name))
    others = [random_tree(rng, sorted(grammar.inventory)) for _ in range(3)]
    for predicted in corpus_predictions(grammar, 11, others):
        assert_matches_oracle(predicted, grammar, gold)
    assert_matches_oracle(frozenset(), grammar, gold)


@pytest.mark.parametrize("block", range(6))
def test_synthetic_grammars_match_oracle(block):
    # 6 blocks x 50 grammars of 2-8 pieces, 1-6 gold trees each: enough
    # ambiguity that many documents tie on F1 across several gold trees.
    for index in range(50 * block, 50 * (block + 1)):
        rng = SplitMix64(derive_seed(2025, "dp", str(index)))
        grammar = random_grammar(rng, f"g{index}", 2 + rng.randrange(7), 1 + rng.randrange(6))
        gold = enumerate_gold_trees(grammar)
        other = random_tree(rng, sorted(grammar.inventory))
        plans = (PLANS[index % 2], PLANS[2 + index % 2])
        for predicted in corpus_predictions(grammar, index, [other], plans):
            assert_matches_oracle(predicted, grammar, gold)


TIE_GRAMMAR = """\
pattern: tie
pieces: A B C
roots: ABC ABC_4
AB -> A B
ABC -> AB C
AB_1 -> AB
ABC_1 -> AB_1 C
ABC_2 -> ABC_1
ABC_3 -> ABC_2
ABC_4 -> ABC_3
"""


def test_tie_on_f1_with_different_precision_and_recall():
    # Predicted subtrees: AB -> A B and AB_1 -> AB, so |P| = 2.  The short
    # gold tree matches 1 of its 2 rules (P = R = 1/2); the long one matches
    # 2 of its 6 (P = 1, R = 1/3).  Both give F1 = 0.5 exactly, and the
    # oracle keeps the first in sorted order, the short tree.
    grammar = parse_grammar(TIE_GRAMMAR)
    gold = enumerate_gold_trees(grammar)
    predicted = depth_one_subtrees(parse_serialized("(AB_1 (AB A B))"))
    short = "(ABC (AB A B) C)"
    assert gold[0] == short
    assert [tree_score(predicted, (t,)).f1 for t in gold] == [0.5, 0.5]

    result = grammar_score(predicted, grammar)
    assert (result.precision, result.recall, result.f1) == (0.5, 0.5, 0.5)
    assert result.best_gold_tree == short
    assert_matches_oracle(predicted, grammar, gold)


def test_score_document_same_row_for_grammar_and_tree_list(skirt_grammar, skirt_spec, skirt_doc):
    by_grammar, _ = score_document(skirt_doc, skirt_grammar, skirt_spec)
    by_trees, _ = score_document(skirt_doc, enumerate_gold_trees(skirt_grammar), skirt_spec)
    assert by_grammar == by_trees
    assert by_grammar["best_gold_tree"] == "(ABC_1 (AB_1 (AB A B)) C)"


def post_order(tree: AssemblyNode) -> list[AssemblyNode]:
    """Internal nodes in the order linearize_gold_tree emits their steps."""
    out = []
    for child in tree.children:
        out.extend(post_order(child))
    if tree.children:
        out.append(tree)
    return out


def tree_respecting_order(tree: AssemblyNode, rng: SplitMix64) -> list[int]:
    """A random order of the internal nodes (as post-order indices) in which
    every node comes after its children."""
    nodes = post_order(tree)
    index = {id(node): i for i, node in enumerate(nodes)}
    done: set[int] = set()
    order: list[int] = []
    while len(order) < len(nodes):
        ready = [
            i for i, node in enumerate(nodes)
            if i not in done and all(c.is_leaf() or index[id(c)] in done for c in node.children)
        ]
        pick = ready[rng.randrange(len(ready))]
        done.add(pick)
        order.append(pick)
    return order


@given(hs.integers(0, 2**64 - 1), hs.integers(2, 9), hs.integers(1, 5))
def test_f1_invariant_under_tree_respecting_permutations(seed, n_pieces, n_gold):
    rng = SplitMix64(seed)
    inventory = random_inventory(rng, n_pieces)
    grammar = grammar_from_trees("perm", [random_tree(rng, inventory) for _ in range(n_gold)])
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    source = random_tree(rng, inventory)
    doc = linearize_gold_tree(source, spec)
    order = tree_respecting_order(source, rng)
    permuted = InstructionDoc(doc.pattern_id, doc.doc_id, tuple(doc.steps[i] for i in order))

    def score(d):
        return grammar_score(build_forest(d, extract_document(d, spec), spec).subtrees(), grammar)

    assert score(permuted) == score(doc)
