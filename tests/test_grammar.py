import tracemalloc
from collections import Counter

import pytest

import sewtree.grammar
from sewtree.grammar import (
    CapExceededError,
    GoldGrammar,
    GrammarError,
    count_derivations,
    enumerate_gold_trees,
    parse_grammar,
    validate_grammar,
)
from sewtree.labels import _LABEL_MEMO_SIZE, parse_node_label
from sewtree.tree import DepthOneSubtree, canonical_serialize, parse_serialized

from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import random_grammar

from conftest import GRAMMAR_NAMES, load_grammar
from helpers import chain_grammar, check_enumeration, check_rule_graph


def N(text):
    return parse_node_label(text)


class TestParseGrammar:
    def test_skirt(self, skirt_grammar):
        assert skirt_grammar.pattern_id == "skirt"
        assert len(skirt_grammar.rules) == 3
        assert skirt_grammar.roots == (N("ABC_1"),)

    def test_pants_b_five_rules(self, grammars):
        assert len(grammars["pants_b"].rules) == 5

    def test_rule_arithmetic_checked(self):
        with pytest.raises(GrammarError, match="line 4"):
            parse_grammar("pattern: x\npieces: A B C\nroots: ABC\nAB -> A C\n")

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
        assert set(grammars["jumpsuit"].roots) == {N("ABCD_1"), N("ABCD_2")}

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


def test_each_label_text_is_parsed_once_per_parse(monkeypatch):
    # A, B, AB and AB_1 to AB_5000: more texts than the label parser's own
    # bounded memo holds, each on two rule lines but parsed once.
    parsed = Counter()

    def counting_parse(text):
        parsed[text] += 1
        return parse_node_label(text)

    monkeypatch.setattr(sewtree.grammar, "parse_node_label", counting_parse)
    first = chain_grammar(5000)
    assert len(parsed) == 5003 > _LABEL_MEMO_SIZE
    assert set(parsed.values()) == {1}
    parsed.clear()
    assert chain_grammar(5000) == first
    assert len(parsed) == 5003 and set(parsed.values()) == {1}


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


# Expected enumerations, hand-derived by exhaustively expanding each fixture.
EXPECTED_TREE_COUNTS = {
    "skirt": 1,
    "pants_a": 1,
    "pants_b": 1,
    "pants_combined": 4,
    "shirt": 2,
    "jumpsuit": 4,
}


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
        assert counts == {N("BlBrFlFr_1"): 2, N("BlBrFlFr_2"): 2}

    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_count_matches_enumeration(self, name):
        g = load_grammar(name)
        assert sum(count_derivations(g).values()) == len(enumerate_gold_trees(g))

    def test_cap_exceeded_reports_count(self, grammars):
        with pytest.raises(CapExceededError) as exc:
            enumerate_gold_trees(grammars["pants_combined"], cap=3)
        assert exc.value.count == 4

    def test_rule_order_invariance(self, skirt_grammar):
        text = (
            "pattern: skirt\npieces: A B C\nroots: ABC_1\n"
            "ABC_1 -> AB_1 C\nAB_1 -> AB\nAB -> A B\n"
        )
        reordered = parse_grammar(text)
        assert enumerate_gold_trees(skirt_grammar) == enumerate_gold_trees(reordered)

    def test_rootless_count_is_zero(self):
        # AB_1 has no expanding rule: zero derivations, and a grammar refused
        # when read, so never enumerated
        with pytest.raises(GrammarError) as exc:
            parse_grammar("pattern: x\npieces: A B\nroots: AB_1\nAB -> A B\n")
        assert exc.value.problems == [
            "AB_1: no rule expands this non-leaf label",
            "AB -> A B: no root reaches this rule",
        ]
        ab = DepthOneSubtree(N("AB"), (N("A"), N("B")))
        g = GoldGrammar("x", frozenset(ab.parent.pieces), (N("AB_1"),), (ab,))
        assert count_derivations(g) == {N("AB_1"): 0}


@pytest.mark.parametrize("name", GRAMMAR_NAMES)
def test_fixture_enumeration_matches_tree_oracle(name):
    check_enumeration(load_grammar(name))


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
    g.rule_graph  # built outside the measurement
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
