"""Shared checks for the randomized-grammar property suite."""

from sewtree.grammar import GoldGrammar, count_derivations, enumerate_gold_trees, validate_grammar
from sewtree.labels import parse_node_label
from sewtree.pipeline import linearize_gold_tree, placeholder_spec
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import random_grammar
from sewtree.tree import canonical_serialize, glue_subtrees, subtrees_of, validate_tree


def make_random_grammar(seed: int, index: int) -> GoldGrammar:
    rng = SplitMix64(derive_seed(seed, f"grammar{index}"))
    n_pieces = 2 + rng.randrange(5)  # 2..6
    n_trees = 1 + rng.randrange(2)
    return random_grammar(rng, f"synthetic-{index}", n_pieces, n_trees)


def make_chain_corpus():
    """22 single-tree chain grammars, each linearizing to >= 4 steps.

    Chain shape means exactly one valid assembly order, so permutation and
    error-injection experiments have maximal headroom.  Returns
    (grammar, spec, gold_trees, linearized_doc) tuples.
    """
    corpus = []
    for i in range(22):
        rng = SplitMix64(derive_seed(99, f"chain{i}"))
        grammar = random_grammar(
            rng, f"chain-{i}", 5 + rng.randrange(2), 1, unary_prob_percent=30, chain=True
        )
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        gold = enumerate_gold_trees(grammar)
        doc = linearize_gold_tree(gold[0], spec)
        assert len(doc.steps) >= 4
        corpus.append((grammar, spec, gold, doc))
    return corpus


def check_grammar_properties(g: GoldGrammar, cap: int = 50_000) -> None:
    assert validate_grammar(g) == [], f"{g.pattern_id}: invalid grammar"
    trees = enumerate_gold_trees(g, cap)
    counts = count_derivations(g)
    assert sum(counts.values()) == len(trees) > 0
    for tree in trees:
        assert validate_tree(tree) == [], f"{g.pattern_id}: invalid enumerated tree"
        glued = glue_subtrees(subtrees_of(tree))
        assert glued == (tree,), f"{g.pattern_id}: subtree set not lossless"
        for node in tree.walk():
            leaf_pieces = frozenset(
                p for n in node.walk() if n.is_leaf() for p in n.label.pieces
            )
            assert leaf_pieces == node.label.piece_set

    # enumeration must not depend on the order rules are listed in
    reversed_rules = GoldGrammar(g.pattern_id, g.inventory, g.roots, tuple(reversed(g.rules)))
    a = {canonical_serialize(t) for t in trees}
    b = {canonical_serialize(t) for t in enumerate_gold_trees(reversed_rules, cap)}
    assert a == b, f"{g.pattern_id}: enumeration depends on rule order"


def glued_forest(report) -> tuple[str, ...]:
    """The report's trace and isolated leaves glued back into trees by
    ``glue_subtrees``, serialized: the oracle for ``report.forest``."""
    isolated = tuple(parse_node_label(t) for t in report.forest if not t.startswith("("))
    glued = glue_subtrees((st for _, st in report.subtree_trace), isolated)
    return tuple(canonical_serialize(t) for t in glued)
