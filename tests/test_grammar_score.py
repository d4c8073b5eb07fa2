"""grammar_score against its oracle, tree_score over the enumerated gold texts.

Precision, recall and F1 must be equal with ``==``: the DP computes them
with the same float expression as the oracle, so any difference is a bug.
"""

import re
import statistics
import string
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as hs

from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc, score_document
from sewtree.grammar import GoldGrammar, enumerate_gold_trees, parse_grammar
from sewtree.labels import split_counter
from sewtree.metrics import grammar_score, tree_score
from sewtree.pipeline import (
    InstructionDoc,
    PatternSpec,
    build_forest,
    extract_document,
    linearize_gold_tree,
    placeholder_spec,
)
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import (
    grammar_from_trees,
    grammar_to_text,
    random_grammar,
    random_inventory,
    random_tree,
)
from sewtree.tree import canonical_serialize, parse_serialized, rule_text, subtrees_of

from conftest import GRAMMAR_NAMES, load_grammar
from helpers import (
    Label,
    as_pair,
    best_tree_oracle,
    bump,
    chain_grammar,
    first_piece,
    g_indexed_dp_oracle,
    gold_tree_oracle,
    label_of,
    label_rule,
    oracle_key,
    rule_labels,
    subtree_set,
)

PLANS = (
    ErrorInjectionPlan(swap_adjacent=1),
    ErrorInjectionPlan(drop_step=1),
    ErrorInjectionPlan(wrong_piece=1),
    ErrorInjectionPlan(swap_adjacent=1, wrong_piece=1),
)


def assert_matches_oracle(predicted, grammar, gold):
    """``grammar_score`` equals ``tree_score`` over the enumerated gold texts,
    the DP that recomputes every label's g-indexed table and, field for
    field, the node-tree oracle, which never parses a text."""
    dp = grammar_score(predicted, grammar)
    assert dp == tree_score(predicted, gold)
    assert dp == g_indexed_dp_oracle(predicted, grammar)
    assert dp == best_tree_oracle(predicted, grammar)


def corpus_predictions(grammar, seed: int, extra_trees=(), plans=PLANS):
    """Predicted subtree sets of the first gold trees and of other trees over the same
    pieces, each linearized as written, permuted and error-injected."""
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    for index, tree in enumerate((*map(as_pair, gold_tree_oracle(grammar)[:2]), *extra_trees)):
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


# Two trees: the g=5 one has the smaller text, the g=4 one fewer nodes.
ALL_TIE_GRAMMAR = """\
pattern: p
pieces: A B C D
roots: ABCD_1
ABCD_1 -> AD_1 BC
AD_1 -> AD
AD -> A D
BC -> B C
ABCD_1 -> AB_1 CD_1
AB_1 -> AB
AB -> A B
CD_1 -> CD
CD -> C D
"""


@pytest.mark.parametrize("predicted", ["", "(AC A C)"], ids=["empty", "disjoint"])
def test_all_tie_keeps_the_smallest_text(predicted):
    """When every gold tree scores F1 = 0, every tree ties and the smallest
    text wins, whatever its node count: a DP that keeps only the trees with
    the fewest nodes would pick the other one."""
    predicted = subtree_set(predicted) if predicted else frozenset()
    grammar = parse_grammar(ALL_TIE_GRAMMAR)
    gold = enumerate_gold_trees(grammar)
    assert [text.count("(") for text in gold] == [5, 4]
    dp = grammar_score(predicted, grammar)
    assert dp.f1 == 0.0
    assert dp.best_gold_tree == gold[0] == tree_score(predicted, gold).best_gold_tree


# ALL_TIE_GRAMMAR's ABCD_1 under one more rule.  ABCD_1's tree with the
# fewest rules is not its smallest text, so the m = 0 side of a rule with
# a hit joins through the one and a tree with no hit through the other.
UNDER_TIE_GRAMMAR = """\
pattern: p
pieces: A B C D E F
roots: ABCDEF_1
ABCDEF_1 -> ABCD_1 EF
EF -> E F
""" + ALL_TIE_GRAMMAR.split("roots: ABCD_1\n")[1]


@pytest.mark.parametrize(
    "predicted,best,f1",
    [
        ("(EF E F)", "(ABCDEF_1 (ABCD_1 (AD_1 (AD A D)) (BC B C)) (EF E F))", 2 / 7),
        ("", "(ABCDEF_1 (ABCD_1 (AB_1 (AB A B)) (CD_1 (CD C D))) (EF E F))", 0.0),
    ],
    ids=["hit-joins-fewest-rules", "no-hit-takes-smallest-text"],
)
def test_clean_child_joins_a_hit_through_its_fewest_rules(predicted, best, f1):
    """A child no predicted rule lies under joins a parent tree that holds a
    hit through its tree with the fewest rules (F1 = 2m/(|P| + g) falls as
    g grows), not through its smallest text; with no hit at all, every
    tree ties at F1 = 0 and the smallest text wins."""
    predicted = subtree_set(predicted) if predicted else frozenset()
    grammar = parse_grammar(UNDER_TIE_GRAMMAR)
    gold = enumerate_gold_trees(grammar)
    assert [text.count("(") for text in gold] == [7, 6]
    dp = grammar_score(predicted, grammar)
    assert dp.best_gold_tree == best
    assert dp.f1 == f1
    assert_matches_oracle(predicted, grammar, gold)


# AB_2's binary rule comes first; its unary rule then derives a tree with
# one more rule and the smaller text, since "(AB_1" sorts before "(A_2".
UNARY_AFTER_BINARY_GRAMMAR = """\
pattern: p
pieces: A B C
roots: ABC_2
ABC_2 -> AB_2 C
AB_2 -> A_2 B
AB_2 -> AB_1
AB_1 -> A_1 B_1
A_2 -> A_1
A_1 -> A
B_1 -> B
"""


def test_a_unary_rule_keeps_its_fewest_rules_over_a_smaller_text():
    """At the same m, a unary rule's tree with more rules does not replace
    the entry an earlier binary rule left, though its text is smaller."""
    grammar = parse_grammar(UNARY_AFTER_BINARY_GRAMMAR)
    predicted = frozenset({"ABC_2 -> AB_2 C"})
    dp = grammar_score(predicted, grammar)
    assert (dp.f1, dp.best_gold_tree) == (0.4, "(ABC_2 (AB_2 (A_2 (A_1 A)) B) C)")
    assert_matches_oracle(predicted, grammar, enumerate_gold_trees(grammar))


@given(hs.integers(0, 2**64 - 1))
def test_a_label_keeps_its_fewest_rules_over_a_smaller_text(seed):
    """A random tree and its variant with one leaf child of a binary node
    bumped, ``C`` under ``(C_1 C)``, beside a sibling whose counter is 1 or
    more, so that their parent keeps its label: at the same m, the variant's
    tree of that label has one more rule and, since ``(`` sorts before any
    capital, the smaller text.  With a random half of the rules predicted,
    ``grammar_score`` matches the full DP only if it keeps the entry with
    the fewest rules."""
    rng = SplitMix64(seed)
    root, children_of = random_tree(rng, random_inventory(rng, 3 + rng.randrange(6)), 40)
    bumpable = [
        (parent, i)
        for parent, kids in children_of.items() if len(kids) == 2
        for i in (0, 1) if kids[i] not in children_of and split_counter(kids[1 - i])[1] >= 1
    ]
    assume(bumpable)
    parent, i = bumpable[rng.randrange(len(bumpable))]
    kids = list(children_of[parent])
    leaf, kids[i] = kids[i], f"{kids[i]}_1"
    variant = {**children_of, parent: tuple(kids), kids[i]: (leaf,)}
    grammar = grammar_from_trees("g", [(root, children_of), (root, variant)])
    rules = list(grammar.rules)
    rng.shuffle(rules)
    predicted = frozenset(rules[: len(rules) // 2])
    assert grammar_score(predicted, grammar) == g_indexed_dp_oracle(predicted, grammar)


@given(hs.integers(0, 2**64 - 1), hs.booleans(), hs.integers(0, 100), hs.integers(0, 3))
def test_sparse_dp_matches_the_full_dp(seed, chain, keep_percent, n_foreign):
    """``grammar_score`` against the DP that recomputes every label's full
    table, over a random part of the grammar's own rules plus the rules of
    random trees, which may or may not be in it: so the labels on or above
    a hit range from none (no predicted rule in the grammar, or none
    predicted) to every label."""
    rng = SplitMix64(seed)
    if chain:
        grammar = chain_grammar(1 + rng.randrange(30))
    else:
        grammar = random_grammar(rng, "g", 2 + rng.randrange(7), 1 + rng.randrange(6))
    own = [rule for rule in grammar.rules if rng.randrange(100) < keep_percent]
    foreign = [
        rule
        for _ in range(n_foreign)
        for rule in subtrees_of(random_tree(rng, random_inventory(rng, 2 + rng.randrange(6))))
    ]
    predicted = frozenset(own + foreign)
    expected = g_indexed_dp_oracle(predicted, grammar)
    assert grammar_score(predicted, grammar) == expected
    assert best_tree_oracle(predicted, grammar) == expected


def test_sixteen_piece_grammar_matches_the_full_dp():
    """At scale: the 16-piece grammar of 2,000 trees against the subtree
    sets of 16 random trees over its inventory, drawn in turn from one
    generator.  Each dirties thousands of labels, whose refilled tables
    join the bare tables of the clean labels around them."""
    grammar = random_grammar(SplitMix64(derive_seed(1, "huge")), "huge", 16, 2000)
    rng = SplitMix64(7)
    inventory = sorted(grammar.inventory)
    for _ in range(16):
        predicted = frozenset(subtrees_of(random_tree(rng, inventory)))
        assert grammar_score(predicted, grammar) == g_indexed_dp_oracle(predicted, grammar)


def test_score_tables_are_built_on_first_score_and_kept_unchanged():
    """Reading a grammar builds none of the tables scoring keeps on it, and
    scores on one grammar object do not depend on the documents scored
    before: a, b, a scores as each does on a freshly read grammar."""
    text = grammar_to_text(random_grammar(SplitMix64(derive_seed(30, "cache")), "c", 7, 5))
    grammar = parse_grammar(text)
    assert set(vars(grammar)) == {
        "pattern_id", "inventory", "labels", "expansions", "root_positions", "roots", "rules",
    }
    rules = grammar.rules
    docs = [frozenset(rules[::3]), frozenset(rules[1::4]) | subtree_set("(AB A B)"), frozenset()]
    for predicted in (docs[0], docs[1], docs[0], docs[2], docs[1]):
        assert grammar_score(predicted, grammar) == grammar_score(predicted, parse_grammar(text))
    assert {"score_tables", "smallest_tree"} <= set(vars(grammar))
    assert grammar_score(docs[0], grammar) != grammar_score(docs[1], grammar)


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


@pytest.mark.parametrize("block", range(2))
def test_rule_order_is_presentation(block):
    """A grammar file with its rule lines shuffled and the children of its
    binary rules swapped parses to the same rules, scores every document
    the same and enumerates the same trees."""
    for index in range(20 * block, 20 * (block + 1)):
        rng = SplitMix64(derive_seed(15, "presentation", str(index)))
        grammar = random_grammar(rng, f"g{index}", 2 + rng.randrange(7), 1 + rng.randrange(6))
        text = grammar_to_text(grammar)
        # Reversing every rule's children swaps those of the binary rules.
        rule_lines = [
            label_rule(parent, children[::-1]) for parent, children in map(rule_labels, grammar.rules)
        ]
        rng.shuffle(rule_lines)
        original = parse_grammar(text)
        reordered = parse_grammar("\n".join(text.splitlines()[:3] + rule_lines))
        assert set(reordered.rules) == set(original.rules)
        assert enumerate_gold_trees(reordered) == enumerate_gold_trees(original)
        other = random_tree(rng, sorted(grammar.inventory))
        for predicted in corpus_predictions(original, index, [other], PLANS[:2]):
            assert grammar_score(predicted, reordered) == grammar_score(predicted, original)


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
    predicted = subtree_set("(AB_1 (AB A B))")
    short = "(ABC (AB A B) C)"
    assert gold[0] == short
    assert [tree_score(predicted, (t,)).f1 for t in gold] == [0.5, 0.5]

    result = grammar_score(predicted, grammar)
    assert (result.precision, result.recall, result.f1) == (0.5, 0.5, 0.5)
    assert result.best_gold_tree == short
    assert_matches_oracle(predicted, grammar, gold)


# Both roots derive one tree each, and both score F1 = 1/3 exactly against
# the two predicted chain rules: (m, g) = (1, 4) under ABC_2 and (2, 10)
# under ABC_8, whose float F1s are 0.3333333333333333 and 0.33333333333333337.
ROUNDING_TIE_GRAMMAR = """\
pattern: rounding
pieces: A B C
roots: ABC_2 ABC_8
AB -> A B
AB_1 -> AB
ABC_1 -> AB_1 C
""" + "".join(f"ABC_{i} -> ABC_{i - 1}\n" for i in range(2, 9))


def test_equal_f1_that_rounds_apart_goes_to_the_smaller_text():
    grammar = parse_grammar(ROUNDING_TIE_GRAMMAR)
    gold = enumerate_gold_trees(grammar)
    predicted = frozenset(r for r in grammar.rules if r in ("ABC_2 -> ABC_1", "ABC_8 -> ABC_7"))
    assert len(predicted) == 2
    assert [tree_score(predicted, (t,)).f1 for t in gold] == [0.3333333333333333, 0.33333333333333337]
    for result in (grammar_score(predicted, grammar), tree_score(predicted, gold)):
        assert (result.precision, result.recall, result.f1) == (0.5, 0.25, 1 / 3)
        assert result.best_gold_tree == gold[0] == "(ABC_2 (ABC_1 (AB_1 (AB A B)) C))"


@given(hs.integers(0, 2**64 - 1), hs.integers(2, 5), hs.integers(1, 40))
def test_both_scorers_rank_by_exact_f1(seed, n_pieces, height):
    """Trees along one long unary chain over a random tree, and a random
    part of their rules as the prediction.  Plain draws rarely tie on
    exact F1, so where heights of different (m, g) tie, those trees are
    the roots and the ranking meets a tie whose floats can differ;
    otherwise the roots are the top of the chain and a random height."""
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces))
    trees = [tree]
    label, children_of = tree
    for _ in range(height):
        child, label = label, str(bump(label_of(label)))
        children_of = {**children_of, label: (child,)}
        trees.append((label, children_of))
    predicted = frozenset(rule for rule in subtrees_of(trees[-1]) if rng.randrange(3) == 0)
    by_f1 = defaultdict(list)
    for tree in trees:
        m = len(predicted.intersection(subtrees_of(tree)))
        if m:
            by_f1[Fraction(2 * m, len(predicted) + len(tree[1]))].append((m, tree))
    ties = [group for group in by_f1.values() if len({m for m, _ in group}) > 1]
    roots = [tree for _, tree in rng.choice(ties)] if ties else [trees[-1], rng.choice(trees)]
    grammar = grammar_from_trees("chains", roots)
    expected = best_tree_oracle(predicted, grammar)
    assert grammar_score(predicted, grammar) == expected
    assert tree_score(predicted, enumerate_gold_trees(grammar)) == expected


def test_score_document_same_row_for_grammar_and_tree_list(skirt_grammar, skirt_spec, skirt_doc):
    by_grammar, _ = score_document(skirt_doc, skirt_grammar, skirt_spec)
    by_trees, _ = score_document(skirt_doc, enumerate_gold_trees(skirt_grammar), skirt_spec)
    assert by_grammar == by_trees
    assert by_grammar["best_gold_tree"] == "(ABC_1 (AB_1 (AB A B)) C)"


def post_order(tree) -> list:
    """The internal labels of a ``(root, children_of)`` tree in the order
    linearize_gold_tree emits their steps."""
    root, children_of = tree
    out = []

    def visit(label):
        for kid in children_of.get(label, ()):
            visit(kid)
        if label in children_of:
            out.append(label)

    visit(root)
    return out


def tree_respecting_order(tree, rng: SplitMix64) -> list[int]:
    """A random order of the internal labels (as post-order indices) in
    which every label comes after its children."""
    children_of = tree[1]
    labels = post_order(tree)
    done: set = set()
    order: list[int] = []
    while len(order) < len(labels):
        ready = [
            i for i, label in enumerate(labels)
            if label not in done and all(k in done or k not in children_of for k in children_of[label])
        ]
        pick = ready[rng.randrange(len(ready))]
        done.add(labels[pick])
        order.append(pick)
    return order


def score_linearization(doc, spec, grammar):
    return grammar_score(build_forest(doc, extract_document(doc, spec), spec).subtrees(), grammar)


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
    assert score_linearization(permuted, spec, grammar) == score_linearization(doc, spec, grammar)


def descendants(tree, label) -> set:
    """The internal labels below ``label``."""
    children_of = tree[1]
    out, stack = set(), list(children_of[label])
    while stack:
        kid = stack.pop()
        if kid in children_of:
            out.add(kid)
            stack.extend(children_of[kid])
    return out


@given(hs.integers(0, 2**64 - 1), hs.integers(3, 10), hs.integers(0, 60))
def test_f1_below_one_when_a_step_precedes_a_step_it_depends_on(seed, n_pieces, unary_percent):
    """One gold tree, linearized; one step moved in front of a step it
    depends on (one that builds a component below its own).  When that
    changes the document, it no longer rebuilds the tree: tree F1 < 1."""
    rng = SplitMix64(seed)
    tree = random_tree(rng, random_inventory(rng, n_pieces), unary_percent)
    grammar = grammar_from_trees("order", [tree])
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    doc = linearize_gold_tree(tree, spec)
    assert score_linearization(doc, spec, grammar).f1 == 1.0
    labels = post_order(tree)  # step i builds labels[i]
    moves = [
        (labels.index(below), j)
        for j, label in enumerate(labels)
        for below in sorted(descendants(tree, label), key=labels.index)
    ]
    before, j = moves[rng.randrange(len(moves))]
    steps = list(doc.steps)
    steps.insert(before, steps.pop(j))
    moved = InstructionDoc(doc.pattern_id, doc.doc_id, tuple(steps))
    if moved.steps != doc.steps:
        assert score_linearization(moved, spec, grammar).f1 < 1.0


def renamed_piece(piece: str, letters: dict) -> str:
    return letters[piece[0]] + piece[1:]


def renamed_label(label: Label, letters: dict) -> Label:
    pieces = sorted((renamed_piece(p, letters) for p in label.pieces), key=oracle_key)
    return Label(tuple(pieces), label.self_attach)


def renamed_step(parent: Label, kids, letters: dict) -> tuple[str, tuple[str, ...]]:
    """One rule or tree node renamed, as its parent and children label
    texts, its children back in canonical order."""
    new_kids = sorted((renamed_label(k, letters) for k in kids), key=first_piece)
    return str(renamed_label(parent, letters)), tuple(map(str, new_kids))


def renamed_grammar(grammar: GoldGrammar, letters: dict) -> GoldGrammar:
    return GoldGrammar(
        grammar.pattern_id,
        frozenset(renamed_piece(p, letters) for p in grammar.inventory),
        tuple(str(renamed_label(label_of(r), letters)) for r in grammar.roots),
        tuple(rule_text(*renamed_step(*rule_labels(r), letters)) for r in grammar.rules),
    )


def renamed_tree_text(text: str, letters: dict) -> str:
    root, children_of = parse_serialized(text)
    steps = [renamed_step(label_of(p), map(label_of, kids), letters) for p, kids in children_of.items()]
    return canonical_serialize(str(renamed_label(label_of(root), letters)), dict(steps))


def renamed_doc(doc: InstructionDoc, letters: dict) -> InstructionDoc:
    def rename(m):
        return f"({renamed_piece(m[1], letters)})"

    steps = tuple(re.sub(r"\(([A-Z][0-9lr]*)\)", rename, step) for step in doc.steps)
    return InstructionDoc(doc.pattern_id, doc.doc_id, steps)


@given(hs.integers(0, 2**64 - 1), hs.integers(2, 9), hs.integers(1, 5), hs.booleans())
def test_tree_columns_invariant_under_renaming(seed, n_pieces, n_gold, order_preserving):
    """Renaming pieces consistently in the grammar, spec and document (each
    letter to another, keeping every mirror or copy variant) leaves tree F1
    as it was.  A renaming that keeps the letters' order also keeps
    precision and recall and renames the best gold tree; any other may move
    the tie-break between gold trees of equal F1."""
    rng = SplitMix64(seed)
    inventory = random_inventory(rng, n_pieces)
    grammar = grammar_from_trees("rename", [random_tree(rng, inventory) for _ in range(n_gold)])
    spec = PatternSpec("rename", {p: f"Panel {i}" for i, p in enumerate(inventory)})
    doc = linearize_gold_tree(random_tree(rng, inventory, 40), spec)
    plan = PLANS[rng.randrange(len(PLANS))]
    if rng.randrange(2) and plan.drop_step + plan.swap_adjacent < len(doc.steps):
        doc = inject_errors(doc, plan, seed, spec)[0]

    used = sorted({p[0] for p in inventory})
    targets = list(string.ascii_uppercase)
    rng.shuffle(targets)
    targets = targets[:len(used)]
    if order_preserving:
        targets.sort()
    letters = dict(zip(used, targets))
    new_spec = PatternSpec("rename", {renamed_piece(p, letters): n for p, n in spec.pieces.items()})

    row, _ = score_document(doc, grammar, spec)
    new_row, _ = score_document(renamed_doc(doc, letters), renamed_grammar(grammar, letters), new_spec)
    assert new_row["tree_f1"] == row["tree_f1"]
    if order_preserving:
        assert (new_row["tree_precision"], new_row["tree_recall"]) == (
            row["tree_precision"], row["tree_recall"]
        )
        assert new_row["best_gold_tree"] == renamed_tree_text(row["best_gold_tree"], letters)


@pytest.mark.parametrize(
    "plan,medians",
    [
        pytest.param(
            ErrorInjectionPlan(swap_adjacent=1),
            {"tree_f1": 0.8153409090909092, "bleu": 1.0, "rouge_l": 0.9455046649703138},
            id="swap_adjacent",
        ),
        pytest.param(
            ErrorInjectionPlan(wrong_piece=1),
            {"tree_f1": 0.6666666666666666, "bleu": 0.9841991615311813,
             "rouge_l": 0.9937689261588633},
            id="wrong_piece",
        ),
    ],
)
def test_counterfactuals_keep_bleu_and_lose_tree_f1(plan, medians):
    """The paper's claim as a seeded known answer: one edit of a gold
    linearization keeps the text close to it (median BLEU >= 0.95) while
    the tree metric sees the assembly break (median tree F1 <= 0.9).  Each
    of 100 one-tree ``synth`` grammars of 6-11 pieces is scored against its
    own uncorrupted linearization as the reference; the medians are
    recorded exactly."""
    seed = 6
    columns = {"tree_f1": [], "bleu": [], "rouge_l": []}
    for i in range(100):
        rng = SplitMix64(derive_seed(seed, f"counterfactual{i}"))
        tree = random_tree(rng, random_inventory(rng, 6 + rng.randrange(6)))
        grammar = grammar_from_trees(f"cf{i}", [tree])
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        doc = linearize_gold_tree(tree, spec)
        corrupted, applied = inject_errors(doc, plan, seed, spec)
        assert applied == 1
        row, _ = score_document(corrupted, grammar, spec, reference=doc)
        for column, values in columns.items():
            values.append(row[column])
    found = {column: statistics.median(values) for column, values in columns.items()}
    assert found["bleu"] >= 0.95 and found["tree_f1"] <= 0.9
    assert found == medians
