import copy
import pickle
import tracemalloc
from collections import Counter

import pytest

import sewtree.labels
from sewtree.grammar import (
    CapExceededError,
    GoldGrammar,
    GrammarError,
    count_derivations,
    enumerate_gold_trees,
    parse_grammar,
    validate_grammar,
)
from sewtree.labels import _LABEL_MEMO_SIZE, label_pieces
from sewtree.metrics import grammar_score
from sewtree.tree import canonical_serialize, parse_serialized

from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_to_text, random_grammar

from conftest import GRAMMAR_NAMES, load_grammar
from helpers import chain_grammar, check_enumeration, check_rule_graph, label_rule, rule_oracle


class TestParseGrammar:
    def test_skirt(self, skirt_grammar):
        assert skirt_grammar.pattern_id == "skirt"
        assert len(skirt_grammar.rules) == 3
        assert skirt_grammar.roots == ("ABC_1",)

    def test_pants_b_five_rules(self, grammars):
        assert len(grammars["pants_b"].rules) == 5

    def test_rule_arithmetic_checked(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar("pattern: x\npieces: A B C\nroots: ABC\nAB -> A C\n")
        assert exc.value.problems == ["AB -> A C: children's pieces do not cover the parent"]
        assert str(exc.value) == (
            "pattern 'x': invalid grammar: AB -> A C: children's pieces do not cover the parent"
        )

    def test_unknown_piece(self):
        with pytest.raises(GrammarError, match="unknown"):
            parse_grammar("pattern: x\npieces: A B\nroots: AB\nAB -> A Q\n")

    def test_duplicate_header(self):
        with pytest.raises(GrammarError, match="duplicate"):
            parse_grammar("pattern: x\npieces: A\npieces: A\nroots: A\n")

    @pytest.mark.parametrize("line", ["roots: S_\u00b2", "roots: AB_\u00b2", "AB_\u00b2 -> AB"])
    def test_non_ascii_digit_counter(self, line):
        # "\u00b2" passes str.isdigit() but int() rejects it.
        with pytest.raises(GrammarError, match="malformed"):
            parse_grammar(f"pattern: x\npieces: A B\n{line}\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_grammar("# top\npattern: x\n\npieces: A B  # inline\nroots: AB\nAB -> A B\n")
        assert len(g.rules) == 1

    def test_rules_deduplicated(self):
        g = parse_grammar("pattern: x\npieces: A B\nroots: AB\nAB -> A B\nAB -> B A\n")
        assert len(g.rules) == 1

    def test_s_alias_expands_to_full_inventory(self, grammars):
        assert set(grammars["jumpsuit"].roots) == {"ABCD_1", "ABCD_2"}

    @pytest.mark.parametrize("root", ["S_", "S_x", "AB_"])
    def test_malformed_root_counter(self, root):
        # The S shorthand takes its counter by the node-label rule: S_ is
        # not S_0.
        with pytest.raises(GrammarError) as exc:
            parse_grammar(f"pattern: x\npieces: A B\nroots: {root}\nAB -> A B\n")
        assert str(exc.value) == f"line 3: malformed self-attachment counter in {root!r}"

    @pytest.mark.parametrize("root", ["S_0", "S_01", "AB_0", "AB_01"])
    def test_non_canonical_root_counter(self, root):
        # S_0 would otherwise be the root written S, S_01 the one written S_1.
        with pytest.raises(GrammarError) as exc:
            parse_grammar(f"pattern: x\npieces: A B\nroots: {root}\nAB -> A B\nAB_1 -> AB\n")
        assert str(exc.value).startswith("line 3: ") and repr(root) in str(exc.value)

    # A line is a rule when it holds "->" and is not a header: a header's
    # value and a comment may hold "->" too, and tabs may surround it.
    @pytest.mark.parametrize("text,pattern_id,rules", [
        ("pattern: a->b\npieces: A B\nroots: AB\nAB -> A B\n", "a->b", ["AB -> A B"]),
        ("pattern: p  # x -> y\npieces: A B\nroots: AB\n# AB -> B A\nAB -> A B  # AB -> A A\n",
         "p", ["AB -> A B"]),
        ("pattern: p\npieces: A B\nroots: AB\nAB\t->\tB\tA\n", "p", ["AB -> A B"]),
    ], ids=["pattern-value", "comments", "tabs"])
    def test_arrow_outside_a_rule(self, text, pattern_id, rules):
        g = parse_grammar(text)
        assert (g.pattern_id, list(g.rules)) == (pattern_id, rules)

    @pytest.mark.parametrize("text,message", [
        ("pattern: p\npieces: A -> B\nroots: AB\nAB -> A B\n", "line 2: malformed piece label '->'"),
        ("pattern: p\npieces: A B\nroots: AB -> A\nAB -> A B\n",
         "line 3: malformed node label '->' at position 0"),
        ("pattern: p\npieces: A B\nroots: AB\npattern -> A B\n",
         "line 4: malformed node label 'pattern' at position 0"),
        ("AB -> A B\npattern: p\npieces: A B\nroots: AB\n", "line 1: rule before pieces header"),
    ], ids=["pieces-value", "roots-value", "header-word-rule", "rule-first"])
    def test_arrow_lines_refused_with_their_line(self, text, message):
        with pytest.raises(GrammarError) as exc:
            parse_grammar(text)
        assert exc.value.problems == [message]


def test_each_label_text_is_parsed_once_per_parse(monkeypatch):
    # A, B, AB and AB_1 to AB_5000: more texts than the label parser's own
    # bounded memo holds, each on two rule lines but read once, into its
    # facts, and never through the checking parser ``label_pieces``, also
    # when a caller reads the roots or rules.
    read, parsed = Counter(), Counter()
    read_label = sewtree.labels.LabelReader.__missing__

    def counting_read(facts, text):
        read[text] += 1
        return read_label(facts, text)

    def counting_parse(text):
        parsed[text] += 1
        return label_pieces(text)

    monkeypatch.setattr(sewtree.labels.LabelReader, "__missing__", counting_read)
    monkeypatch.setattr(sewtree.labels, "label_pieces", counting_parse)
    first = chain_grammar(5000)
    assert len(read) == 5003 > _LABEL_MEMO_SIZE
    assert set(read.values()) == {1}
    assert not parsed
    read.clear()
    assert chain_grammar(5000) == first
    assert len(read) == 5003 and set(read.values()) == {1}
    assert not parsed
    assert (first.roots, first.rules[:2]) == (("AB_5000",), ("AB -> A B", "AB_1 -> AB"))
    assert not parsed


class TestValidateGrammar:
    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_fixtures_valid(self, name):
        assert validate_grammar(load_grammar(name)) == []

    def test_unary_counter_violation(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar("pattern: x\npieces: A B\nroots: AB_2\nAB -> A B\nAB_2 -> AB_1\n")
        assert exc.value.problems == [
            "AB_1: no rule expands this non-leaf label",
            "AB -> A B: no root reaches this rule",
        ]

    def test_root_coverage(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar("pattern: x\npieces: A B C\nroots: AB\nAB -> A B\n")
        assert exc.value.problems == ["root AB: does not cover the full piece inventory"]
        assert str(exc.value) == (
            "pattern 'x': invalid grammar: root AB: does not cover the full piece inventory"
        )

    def test_rules_no_root_reaches_are_named_in_file_order(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar(
                "pattern: x\npieces: A B C\nroots: AB\nAB -> A B\nBC_1 -> BC\nAC -> A C\n"
            )
        assert exc.value.problems == [
            "BC: no rule expands this non-leaf label",
            "BC_1 -> BC: no root reaches this rule",
            "AC -> A C: no root reaches this rule",
            "root AB: does not cover the full piece inventory",
        ]
        # The message names the first three problems.
        assert str(exc.value) == "pattern 'x': invalid grammar: " + "; ".join(
            exc.value.problems[:3]
        )


# Grammars the constructor refuses, as (pieces, roots, rule lines, problems).
# Before the constructor checked them, counting, enumeration and scoring of
# the first raised IndexError (A_1 sorts before its child AB) and scoring
# of the second ValueError (no gold tree).
INVALID_GRAMMARS = {
    "unary-child-with-other-pieces": (
        "A B", "AB_1", ["AB_1 -> A_1 B", "A_1 -> AB", "AB -> A B"],
        ["A_1 -> AB: unary child must have the same pieces"],
    ),
    "no-roots": ("A B", "", ["AB -> A B"], ["no roots", "AB -> A B: no root reaches this rule"]),
    "no-children": ("A B", "AB", ["AB -> A B", "AB ->"], ["AB -> : rules need 1 or 2 children"]),
    "three-children": (
        "A B C", "ABC", ["ABC -> A B C"], ["ABC -> A B C: rules need 1 or 2 children"]
    ),
    "unknown-piece-in-a-rule": (
        "A B", "AB", ["AB -> A B", "BQ -> B Q"], ["BQ -> B Q: unknown pieces Q"]
    ),
    "unknown-piece-in-a-root": ("A B", "AB ABQ", ["AB -> A B"], ["root ABQ: unknown pieces Q"]),
    # Every bad rule is named, in rule order, and nothing that follows from
    # them: AC, which no root reaches, is not.
    "three-bad-rules": (
        "A B C", "ABC_1",
        ["ABC_1 -> AB_1 C", "AB_1 -> AB", "AB -> A C", "AB_1 -> A B", "AC -> A Q"],
        ["AB -> A C: children's pieces do not cover the parent",
         "AB_1 -> A B: parent counter must be the children's max",
         "AC -> A Q: unknown pieces Q"],
    ),
}


@pytest.mark.parametrize(
    "pieces,roots,lines,problems", INVALID_GRAMMARS.values(), ids=INVALID_GRAMMARS
)
def test_invalid_grammar_is_refused_when_built_and_when_read(pieces, roots, lines, problems):
    with pytest.raises(GrammarError) as built:
        GoldGrammar("x", frozenset(pieces.split()), roots.split(), [label_rule(*rule_oracle(0, line)) for line in lines])
    with pytest.raises(GrammarError) as read:
        parse_grammar(f"pattern: x\npieces: {pieces}\nroots: {roots}\n" + "\n".join(lines))
    for exc in (built, read):
        assert exc.value.problems == problems
        assert str(exc.value) == "pattern 'x': invalid grammar: " + "; ".join(problems[:3])


# Piece, root and rule texts the constructor cannot read, as (pieces,
# roots, rules, message): each is named, in a GrammarError and never a
# bare LabelError.  Three children read well, and are refused as an
# invalid rule.
ABC = ["A", "B", "C"]
UNREADABLE_TEXTS = {
    "no-arrow": (ABC, ["AB"], ["AB <- A B"], "'AB <- A B': a rule is written 'parent -> children'"),
    "bad-child": (ABC, ["AB"], ["AB -> A Bx"], "'AB -> A Bx': malformed node label 'Bx' at position 1"),
    "double-space": (ABC, ["AB"], ["AB -> A  B"], "'AB -> A  B': empty node label"),
    "bad-parent": (ABC, ["AB"], ["AB_0 -> A B"],
                   "'AB_0 -> A B': self-attachment counter is 0 or has a leading zero in 'AB_0'"),
    "bad-root": (ABC, ["BA"], ["AB -> A B"], "'BA': 'BA': pieces must be strictly sorted, got B before A"),
    "three-children": (ABC, ["ABC"], ["ABC -> A B C"],
                       "invalid grammar: ABC -> A B C: rules need 1 or 2 children"),
    "lowercase-piece": (["A", "B", "a"], ["AB"], ["AB -> A B"], "'a': malformed piece label 'a'"),
    "zero-copy-piece": (["A", "B", "A0"], ["AB"], ["AB -> A B"], "'A0': copy index must be >= 1 in 'A0'"),
    "empty-piece": (["A", "B", ""], ["AB"], ["AB -> A B"], "'': empty piece label"),
}


@pytest.mark.parametrize("pieces,roots,rules,message", UNREADABLE_TEXTS.values(), ids=UNREADABLE_TEXTS)
def test_a_text_the_constructor_cannot_read_is_named(pieces, roots, rules, message):
    with pytest.raises(GrammarError) as exc:
        GoldGrammar("x", frozenset(pieces), roots, rules)
    assert str(exc.value) == f"pattern 'x': {message}"


@pytest.mark.parametrize("pieces", [["A", "A", "B"], ["A", "B", "A"]])
def test_a_repeated_piece_is_named_when_built_and_when_read(pieces):
    # A repeat would take a second bit, and no root could cover the
    # inventory; it is named instead.
    with pytest.raises(GrammarError) as built:
        GoldGrammar("p", pieces, ["AB"], ["AB -> A B"])
    assert str(built.value) == "pattern 'p': duplicate pieces in inventory: A"
    with pytest.raises(GrammarError) as read:
        parse_grammar(f"pattern: p\npieces: {' '.join(pieces)}\nroots: AB\nAB -> A B\n")
    assert str(read.value) == "line 2: duplicate pieces in inventory"


# Expected enumerations, hand-derived by exhaustively expanding each fixture.
EXPECTED_TREE_COUNTS = {
    "skirt": 1,
    "pants_a": 1,
    "pants_b": 1,
    "pants_combined": 4,
    "shirt": 2,
    "jumpsuit": 4,
}

# Grammars whose texts the enumeration composes out of order before it
# merges them, checked beside the fixtures.
ORDER_GRAMMARS = {
    # Roots ABC_2 and ABC_10 of two trees each: label order puts ABC_2
    # first, text order "(ABC_10 ".
    "root-counters": "\n".join(
        ["pattern: root-counters", "pieces: A B C", "roots: ABC_10 ABC_2",
         "AB -> A B", "BC -> B C", "ABC -> AB C", "ABC -> A BC", "ABC_1 -> ABC"]
        + [f"ABC_{i} -> ABC_{i - 1}" for i in range(2, 11)]
    ),
    # Two rules of ABCDE_1 over ABC_1, which has two trees: their blocks
    # interleave, (ABC_1 a) with DE, then with DE_1, then (ABC_1 b) with each.
    "interleaved-blocks": "\n".join(
        ["pattern: interleaved-blocks", "pieces: A B C D E", "roots: ABCDE_1",
         "AB -> A B", "BC -> B C", "ABC -> AB C", "ABC -> A BC", "ABC_1 -> ABC",
         "DE -> D E", "DE_1 -> DE", "ABCDE_1 -> ABC_1 DE", "ABCDE_1 -> ABC_1 DE_1"]
    ),
}
ENUMERATION_CASES = GRAMMAR_NAMES + list(ORDER_GRAMMARS)


def enumeration_case(name: str) -> GoldGrammar:
    return parse_grammar(ORDER_GRAMMARS[name]) if name in ORDER_GRAMMARS else load_grammar(name)


class TestEnumeration:
    def test_skirt_single_tree(self, skirt_grammar):
        assert enumerate_gold_trees(skirt_grammar) == ("(ABC_1 (AB_1 (AB A B)) C)",)

    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_counts(self, name):
        trees = enumerate_gold_trees(load_grammar(name))
        assert len(trees) == EXPECTED_TREE_COUNTS[name]

    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_all_trees_valid(self, name):
        # parse_serialized raises on a tree that breaks any constraint
        for text in enumerate_gold_trees(load_grammar(name)):
            assert canonical_serialize(*parse_serialized(text)) == text

    def test_combined_roots_two_each(self, grammars):
        counts = count_derivations(grammars["pants_combined"])
        assert counts == {"BlBrFlFr_1": 2, "BlBrFlFr_2": 2}

    @pytest.mark.parametrize("name", ENUMERATION_CASES)
    def test_count_matches_enumeration(self, name):
        g = enumeration_case(name)
        assert sum(count_derivations(g).values()) == len(enumerate_gold_trees(g))

    def test_cap_exceeded_reports_count(self, grammars):
        with pytest.raises(CapExceededError) as exc:
            enumerate_gold_trees(grammars["pants_combined"], cap=3)
        assert str(exc.value) == "grammar derives 4 trees, cap is 3"

    def test_rule_order_invariance(self, skirt_grammar):
        text = (
            "pattern: skirt\npieces: A B C\nroots: ABC_1\n"
            "ABC_1 -> AB_1 C\nAB_1 -> AB\nAB -> A B\n"
        )
        reordered = parse_grammar(text)
        assert enumerate_gold_trees(skirt_grammar) == enumerate_gold_trees(reordered)

    def test_unexpanded_root_is_refused_when_read_and_when_built(self):
        # AB_1 has no expanding rule, so it has no derivation: the grammar
        # is refused whether it is read or built in memory, so it is never
        # counted or enumerated
        problems = [
            "AB_1: no rule expands this non-leaf label",
            "AB -> A B: no root reaches this rule",
        ]
        with pytest.raises(GrammarError) as exc:
            parse_grammar("pattern: x\npieces: A B\nroots: AB_1\nAB -> A B\n")
        assert exc.value.problems == problems
        with pytest.raises(GrammarError) as exc:
            GoldGrammar("x", frozenset({"A", "B"}), ("AB_1",), ("AB -> A B",))
        assert exc.value.problems == problems

    def test_repeated_roots_and_rules_are_kept_once(self):
        # Derivations are trees only while roots and rules are distinct: a
        # grammar built in memory keeps each once, in first-seen order.
        shirt = load_grammar("shirt")
        repeated = GoldGrammar(
            "shirt", shirt.inventory, shirt.roots * 2, shirt.rules[:3] + shirt.rules
        )
        assert repeated == shirt
        assert validate_grammar(repeated) == []
        assert count_derivations(repeated) == count_derivations(shirt) == {"BFSl_1": 2}
        assert check_enumeration(repeated) == enumerate_gold_trees(shirt)


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_fixture_enumeration_matches_tree_oracle(name):
    check_enumeration(enumeration_case(name))


@pytest.mark.parametrize("block", range(4))
def test_synthetic_enumeration_matches_tree_oracle(block):
    # 4 blocks x 60 grammars of 2-8 pieces and 1-6 trees, from no
    # self-attachments to long unary chains, every third a caterpillar.
    for index in range(60 * block, 60 * (block + 1)):
        rng = SplitMix64(derive_seed(8, "enumerate", str(index)))
        g = random_grammar(
            rng, f"g{index}", 2 + rng.randrange(7), 1 + rng.randrange(6),
            unary_prob_percent=(0, 25, 60, 85)[index % 4], chain=index % 3 == 0,
        )
        check_enumeration(g)


def test_unary_chain_enumeration_matches_tree_oracle():
    # 1,200 self-attachments: deeper than the interpreter's recursion limit.
    (text,) = check_enumeration(chain_grammar(1200))
    assert text.startswith("(AB_1200 (AB_1199 ") and text.endswith(" (AB A B)" + ")" * 1200)


def test_unary_chain_enumeration_memory_is_linear():
    # Each label's texts contain its child's; holding every label's list
    # would peak near 6.6 MB here, against 0.2 MB when each is dropped
    # after its parent.
    g = chain_grammar(1200)
    tracemalloc.start()
    try:
        enumerate_gold_trees(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_rule_graph_puts_children_before_parents():
    grammars = [load_grammar(name) for name in GRAMMAR_NAMES]
    for index in range(60):
        rng = SplitMix64(derive_seed(31, "rule-graph", str(index)))
        grammars.append(
            random_grammar(rng, f"g{index}", 2 + rng.randrange(7), 1 + rng.randrange(6))
        )
    for g in grammars:
        check_rule_graph(g)


def test_a_grammar_read_from_its_text_equals_it():
    """A grammar written by ``grammar_to_text`` and read back equals the
    grammar built in memory, rule graph and all; equality compares texts,
    so a grammar is unequal to one that differs only in its pattern id or
    in the order of its rules."""
    for index in range(20):
        rng = SplitMix64(derive_seed(31, "text", str(index)))
        g = random_grammar(rng, f"g{index}", 2 + rng.randrange(7), 1 + rng.randrange(6))
        text = grammar_to_text(g)
        read = parse_grammar(text)
        assert read == g and g == read
        assert (read.labels, read.expansions, read.root_positions) == (g.labels, g.expansions, g.root_positions)
        assert (read.roots, read.rules) == (g.roots, g.rules)
        assert read != parse_grammar(text.replace(f"pattern: g{index}", "pattern: other"))
        if len(g.rules) > 1:
            assert read != GoldGrammar(g.pattern_id, g.inventory, g.roots, g.rules[::-1])
    assert load_grammar("skirt") != "skirt"


def _pickled(grammar):
    return pickle.loads(pickle.dumps(grammar))


@pytest.mark.parametrize("copy_of", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_before_and_after_a_score_are_equal_and_score_alike(copy_of):
    text = grammar_to_text(random_grammar(SplitMix64(derive_seed(31, "copy")), "c", 7, 5))
    grammar = parse_grammar(text)
    rules = parse_grammar(text).rules
    docs = [frozenset(rules[::3]), frozenset(rules[1::4]), frozenset()]
    before = copy_of(grammar)
    scores = [grammar_score(doc, grammar) for doc in docs]
    after = copy_of(grammar)
    assert "score_tables" in vars(after) and "score_tables" not in vars(before)
    for copied in (before, after):
        assert copied == grammar
        assert (copied.labels, copied.expansions, copied.root_positions) == (
            grammar.labels, grammar.expansions, grammar.root_positions
        )
        assert [grammar_score(doc, copied) for doc in docs] == scores
        assert enumerate_gold_trees(copied) == enumerate_gold_trees(grammar)
        assert (copied.roots, copied.rules) == (grammar.roots, grammar.rules)
