"""Synthetic patterns, trees, and grammars for experiments and stress tests."""

from __future__ import annotations

import string

from .grammar import GoldGrammar
from .labels import LabelReader, label_pieces
from .rng import SplitMix64
from .tree import subtrees_of


def random_inventory(rng: SplitMix64, n_pieces: int) -> list[str]:
    """An inventory of roughly ``n_pieces`` piece texts mixing plain
    pieces, mirrored pairs, and numbered copies, in piece order."""
    pieces: list[str] = []
    for letter in string.ascii_uppercase:
        if len(pieces) >= n_pieces:
            break
        kind = rng.randrange(4)
        if kind == 0 and len(pieces) + 2 <= n_pieces:
            pieces += (letter + "l", letter + "r")
        elif kind == 1 and len(pieces) + 2 <= n_pieces:
            pieces += (letter + "1", letter + "2")
        else:
            pieces.append(letter)
    return pieces


def random_tree(
    rng: SplitMix64,
    pieces,
    unary_prob_percent: int = 25,
    chain: bool = False,
) -> tuple[str, dict[str, tuple[str, ...]]]:
    """A random valid assembly tree over the given piece texts, as its root
    label and the map from each internal label to its children, all texts.

    ``chain=True`` builds a caterpillar (each merge extends one growing
    component), which admits exactly one assembly order; useful for
    permutation experiments where reordered steps must actually break.
    """
    reader = LabelReader(pieces)
    labels = list(pieces)
    rng.shuffle(labels)
    children_of: dict[str, tuple[str, ...]] = {}
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
        label, children = reader.join(a, b)
        children_of[label] = children
        while rng.randrange(100) < unary_prob_percent:
            child, label = label, reader.bump(label)
            children_of[label] = (child,)
        labels.insert(0, label)
    return labels[0], children_of


def grammar_from_trees(pattern_id: str, trees) -> GoldGrammar:
    """The grammar whose rules are exactly the depth-1 subtrees of a list of
    ``(root, children_of)`` trees."""
    roots = [root for root, _ in trees]
    inventory = frozenset({piece for root in roots for piece in label_pieces(root)[0]})
    rules = [rule for tree in trees for rule in subtrees_of(tree)]
    return GoldGrammar(pattern_id, inventory, roots, rules)


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
        "pieces: " + " ".join(g.inventory),
        "roots: " + " ".join(g.roots),
        *g.rules,
    ]
    return "\n".join(lines) + "\n"
