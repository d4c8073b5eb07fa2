"""Shared checks for the randomized-grammar property suite."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

from sewtree.grammar import (
    DEFAULT_CAP,
    CapExceededError,
    GoldGrammar,
    check_grammar,
    count_derivations,
    enumerate_gold_trees,
    validate_grammar,
)
from sewtree.labels import parse_node_label
from sewtree.pipeline import linearize_gold_tree, placeholder_spec
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import random_grammar
from sewtree.tree import (
    AssemblyNode,
    canonical_serialize,
    glue_subtrees,
    subtrees_of,
    validate_tree,
)


def gold_tree_oracle(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[AssemblyNode, ...]:
    """Every derivation of ``g`` built as an ``AssemblyNode`` tree, sorted by
    serialization: the reference for ``enumerate_gold_trees``'s texts, and
    the gold trees of tests that need trees."""
    check_grammar(g)
    total = sum(count_derivations(g).values())
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
            for _, kids in expansions
            for combo in itertools.product(*(trees[c] for c in kids))
        ))
    return tuple(sorted((t for root in graph.roots for t in trees[root]), key=canonical_serialize))


def check_enumeration(g: GoldGrammar, cap: int = DEFAULT_CAP) -> tuple[str, ...]:
    """``enumerate_gold_trees(g)``, checked against the tree oracle and
    against the derivation count: derivations and trees are in bijection."""
    texts = enumerate_gold_trees(g, cap)
    assert texts == tuple(canonical_serialize(t) for t in gold_tree_oracle(g, cap)), g.pattern_id
    assert len(set(texts)) == len(texts) == sum(count_derivations(g).values()), g.pattern_id
    return texts


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
        doc = linearize_gold_tree(gold_tree_oracle(grammar)[0], spec)
        assert len(doc.steps) >= 4
        corpus.append((grammar, spec, gold, doc))
    return corpus


def check_grammar_properties(g: GoldGrammar, cap: int = 50_000) -> None:
    assert validate_grammar(g) == [], f"{g.pattern_id}: invalid grammar"
    texts = check_enumeration(g, cap)
    trees = gold_tree_oracle(g, cap)
    assert len(trees) > 0
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
    assert enumerate_gold_trees(reversed_rules, cap) == texts, (
        f"{g.pattern_id}: enumeration depends on rule order"
    )


def glued_forest(report) -> tuple[str, ...]:
    """The report's trace and isolated leaves glued back into trees by
    ``glue_subtrees``, serialized: the oracle for ``report.forest``."""
    isolated = tuple(parse_node_label(t) for t in report.forest if not t.startswith("("))
    glued = glue_subtrees((st for _, st in report.subtree_trace), isolated)
    return tuple(canonical_serialize(t) for t in glued)


def run_fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout,
    with ``env`` added to the environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
