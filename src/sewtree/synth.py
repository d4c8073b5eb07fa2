"""Synthetic patterns, trees, and grammars for experiments and stress tests."""

from __future__ import annotations

import string

from .grammar import GoldGrammar
from .labels import (
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    child_order_key,
    merge_labels,
)
from .rng import SplitMix64
from .tree import subtrees_of


def random_inventory(rng: SplitMix64, n_pieces: int) -> list[PieceLabel]:
    """An inventory of roughly ``n_pieces`` pieces mixing plain pieces,
    mirrored pairs, and numbered copies."""
    pieces: list[PieceLabel] = []
    for letter in string.ascii_uppercase:
        if len(pieces) >= n_pieces:
            break
        kind = rng.randrange(4)
        if kind == 0 and len(pieces) + 2 <= n_pieces:
            pieces.append(PieceLabel(letter + "l"))
            pieces.append(PieceLabel(letter + "r"))
        elif kind == 1 and len(pieces) + 2 <= n_pieces:
            pieces.append(PieceLabel(letter + "1"))
            pieces.append(PieceLabel(letter + "2"))
        else:
            pieces.append(PieceLabel(letter))
    return pieces


def random_tree(
    rng: SplitMix64,
    pieces,
    unary_prob_percent: int = 25,
    chain: bool = False,
) -> tuple[NodeLabel, dict[NodeLabel, tuple[NodeLabel, ...]]]:
    """A random valid assembly tree over the given pieces, as its root
    label and the map from each internal label to its children.

    ``chain=True`` builds a caterpillar (each merge extends one growing
    component), which admits exactly one assembly order; useful for
    permutation experiments where reordered steps must actually break.
    """
    labels = [NodeLabel((p,), 0) for p in pieces]
    rng.shuffle(labels)
    children_of: dict[NodeLabel, tuple[NodeLabel, ...]] = {}
    while len(labels) > 1:
        if chain:
            i, j = 0, 1
        else:
            i = rng.randrange(len(labels))
            j = rng.randrange(len(labels) - 1)
            if j >= i:
                j += 1
        a = labels[i]
        b = labels[j]
        for idx in sorted((i, j), reverse=True):
            del labels[idx]
        label = merge_labels(a, b)
        children_of[label] = tuple(sorted((a, b), key=child_order_key))
        while rng.randrange(100) < unary_prob_percent:
            child, label = label, bump_self_attach(label)
            children_of[label] = (child,)
        labels.insert(0, label)
    return labels[0], children_of


def grammar_from_trees(pattern_id: str, trees) -> GoldGrammar:
    """The grammar whose rules are exactly the depth-1 subtrees of a list of
    ``(root, children_of)`` trees."""
    roots = [root for root, _ in trees]
    inventory = frozenset({piece for root in roots for piece in root.pieces})
    rules = [rule for tree in trees for rule in subtrees_of(tree)]
    return GoldGrammar(pattern_id, inventory, [str(root) for root in roots], rules)


def random_grammar(
    rng: SplitMix64,
    pattern_id: str,
    n_pieces: int,
    n_trees: int = 1,
    unary_prob_percent: int = 25,
    chain: bool = False,
) -> GoldGrammar:
    inventory = random_inventory(rng, n_pieces)
    trees = [
        random_tree(rng, inventory, unary_prob_percent, chain=chain) for _ in range(n_trees)
    ]
    return grammar_from_trees(pattern_id, trees)


def grammar_to_text(g: GoldGrammar) -> str:
    """Render back into the grammar file format."""
    lines = [
        f"pattern: {g.pattern_id}",
        "pieces: " + " ".join(str(p) for p in sorted(g.inventory)),
        "roots: " + " ".join(g.roots),
        *g.rules,
    ]
    return "\n".join(lines) + "\n"
