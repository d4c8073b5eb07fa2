import pytest

import sewtree.experiments
import sewtree.pipeline
from sewtree.experiments import (
    ErrorInjectionPlan,
    RatingRecord,
    aggregate_ratings,
    correlate_scores,
    inject_errors,
    permute_doc,
    roundtrip_grammar,
    score_document,
)
from sewtree.grammar import enumerate_gold_trees
from sewtree.pipeline import InstructionDoc, linearize_gold_tree
from sewtree.rng import SplitMix64, derive_seed

import helpers
from conftest import GRAMMAR_NAMES, load_grammar


@pytest.fixture()
def four_step_doc():
    return InstructionDoc("skirt", "perm-test", ("s0", "s1", "s2", "s3"))


class TestPermute:
    def test_single_step_identity(self):
        doc = InstructionDoc("skirt", "one", ("only step",))
        (permuted,) = permute_doc(doc, 42, 1)
        assert permuted.steps == doc.steps
        assert permuted.doc_id == "one-perm1"

    def test_fixed_seed_reproducible(self, four_step_doc):
        a = permute_doc(four_step_doc, 42, 5)
        b = permute_doc(four_step_doc, 42, 5)
        assert a == b

    def test_steps_are_a_permutation(self, four_step_doc):
        for permuted in permute_doc(four_step_doc, 7, 10):
            assert sorted(permuted.steps) == sorted(four_step_doc.steps)

    def test_matches_reference_fisher_yates(self, four_step_doc):
        # independent re-implementation of the same shuffle over the same streams
        draws = permute_doc(four_step_doc, 42, 24)
        for index, permuted in enumerate(draws, start=1):
            rng = SplitMix64(derive_seed(42, four_step_doc.doc_id, f"perm{index}"))
            expected = list(four_step_doc.steps)
            i = len(expected) - 1
            while i > 0:
                j = rng.randrange(i + 1)
                expected[i], expected[j] = expected[j], expected[i]
                i -= 1
            assert list(permuted.steps) == expected


class TestInjectErrors:
    def test_zero_plan_unchanged(self, skirt_doc, skirt_spec):
        corrupted, applied = inject_errors(skirt_doc, ErrorInjectionPlan(), 1, skirt_spec)
        assert corrupted == skirt_doc and applied == 0

    def test_drop_reduces_step_count(self, skirt_doc, skirt_spec):
        corrupted, applied = inject_errors(
            skirt_doc, ErrorInjectionPlan(drop_step=1), 1, skirt_spec
        )
        assert len(corrupted.steps) == len(skirt_doc.steps) - 1
        assert applied == 1

    def test_swap_is_deterministic_and_changes_trace(self, skirt_doc, skirt_spec):
        plan = ErrorInjectionPlan(swap_adjacent=1)
        a, _ = inject_errors(skirt_doc, plan, 5, skirt_spec)
        b, _ = inject_errors(skirt_doc, plan, 5, skirt_spec)
        assert a == b
        assert sorted(a.steps) == sorted(skirt_doc.steps)

    def test_wrong_piece_changes_a_label(self, skirt_doc, skirt_spec):
        corrupted, applied = inject_errors(
            skirt_doc, ErrorInjectionPlan(wrong_piece=1), 9, skirt_spec
        )
        assert applied == 1
        assert corrupted.steps != skirt_doc.steps

    def test_infeasible_drop(self, skirt_spec):
        doc = InstructionDoc("skirt", "one", ("Sew (A) to (B).",))
        with pytest.raises(ValueError, match="drop"):
            inject_errors(doc, ErrorInjectionPlan(drop_step=1), 1, skirt_spec)

    def test_corrupted_doc_scores_lower(self, skirt_spec, skirt_grammar):
        gold = enumerate_gold_trees(skirt_grammar)
        doc = linearize_gold_tree(helpers.as_pair(helpers.gold_tree_oracle(skirt_grammar)[0]), skirt_spec)
        base_row, _ = score_document(doc, gold, skirt_spec)
        corrupted, _ = inject_errors(
            doc, ErrorInjectionPlan(swap_adjacent=1, wrong_piece=1), 3, skirt_spec
        )
        bad_row, _ = score_document(corrupted, gold, skirt_spec)
        assert bad_row["tree_f1"] < base_row["tree_f1"] == 1.0


def patch_pipeline(monkeypatch, name: str, replacement) -> None:
    """Replace ``sewtree.pipeline``'s function ``name`` in that module and
    in ``sewtree.experiments``, which imported it."""
    for module in (sewtree.pipeline, sewtree.experiments):
        monkeypatch.setattr(module, name, replacement)


def skip_unary_update(monkeypatch) -> None:
    """``apply_step`` leaves the components as they were after a unary step."""
    original = sewtree.pipeline.apply_step

    def apply_step(component_of, resolved, reader):
        if len(resolved) == 1:
            component_of = dict(component_of)
        return original(component_of, resolved, reader)

    patch_pipeline(monkeypatch, "apply_step", apply_step)


def drop_unary_subtree(monkeypatch) -> None:
    """``apply_step`` updates the components after a unary step but emits
    no subtree for it."""
    original = sewtree.pipeline.apply_step

    def apply_step(component_of, resolved, reader):
        subtrees = original(component_of, resolved, reader)
        return subtrees if len(resolved) != 1 else []

    patch_pipeline(monkeypatch, "apply_step", apply_step)


def resolve_to_leaves(monkeypatch) -> None:
    """``resolve_components`` ignores the components built so far."""
    original = sewtree.pipeline.resolve_components
    patch_pipeline(
        monkeypatch, "resolve_components",
        lambda mentions, component_of: original(mentions, {}),
    )


def repeat_first_child(monkeypatch) -> None:
    """``write_step`` names a binary step's first child twice."""
    original = sewtree.pipeline.write_step
    patch_pipeline(
        monkeypatch, "write_step", lambda children, spec: original(children[:1] * len(children), spec)
    )


# The pipeline broken by monkeypatch (negative controls).
MUTANTS = {
    "skip-unary-update": skip_unary_update,
    "drop-unary-subtree": drop_unary_subtree,
    "resolve-to-leaves": resolve_to_leaves,
    "repeat-first-child": repeat_first_child,
}


@pytest.fixture(scope="module")
def differential_grammars():
    grammars = [load_grammar(name) for name in GRAMMAR_NAMES]
    grammars.append(helpers.chain_grammar(1200))
    grammars += [helpers.make_random_grammar(31, index) for index in range(100)]
    return grammars


class TestRoundtrip:
    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_fixture_grammars_pass(self, name, monkeypatch):
        # Each rule is checked on its own; the grammar DP never runs.
        def refuse(*args):
            raise AssertionError("roundtrip called grammar_score")

        monkeypatch.setattr(sewtree.experiments, "grammar_score", refuse)
        assert roundtrip_grammar(load_grammar(name)) == []

    def test_failure_names_rule_emitted_subtrees_and_components(self, skirt_grammar, monkeypatch):
        repeat_first_child(monkeypatch)
        assert roundtrip_grammar(skirt_grammar) == [
            "skirt rule AB -> A B: emitted [A_1 -> A], pieces in A=A_1 B=B",
            "skirt rule ABC_1 -> AB_1 C: emitted [AB_2 -> AB_1], pieces in A=AB_2 B=AB_2 C=C",
        ]

    def test_unary_failure_names_the_stale_components(self, skirt_grammar, monkeypatch):
        skip_unary_update(monkeypatch)
        assert roundtrip_grammar(skirt_grammar) == [
            "skirt rule AB_1 -> AB: emitted [AB_1 -> AB], pieces in A=AB B=AB"
        ]

    @pytest.mark.parametrize("mutant", [None, *MUTANTS])
    def test_verdict_matches_per_tree_oracle(self, mutant, differential_grammars, monkeypatch):
        if mutant is not None:
            MUTANTS[mutant](monkeypatch)
        expected = [bool(helpers.tree_roundtrip(g, cap=50_000)) for g in differential_grammars]
        verdicts = [bool(roundtrip_grammar(g)) for g in differential_grammars]
        ids = [g.pattern_id for g in differential_grammars]
        assert list(zip(ids, verdicts)) == list(zip(ids, expected))
        if mutant is None:
            assert not any(expected)
        else:
            assert sum(expected) > len(differential_grammars) // 2


class TestAggregateRatings:
    def test_all_fives(self):
        records = [RatingRecord("d", i, "S1", 5) for i in range(4)]
        (row,) = aggregate_ratings(records)
        assert (row["S1_mean"], row["S1_above3"], row["S1_below3"]) == (5.0, 1.0, 0.0)

    def test_mixed_thirds(self):
        records = [RatingRecord("d", i, "S2", r) for i, r in enumerate((1, 3, 5))]
        (row,) = aggregate_ratings(records)
        assert row["S2_mean"] == pytest.approx(3.0)
        assert row["S2_above3"] == pytest.approx(1 / 3)
        assert row["S2_below3"] == pytest.approx(1 / 3)

    def test_hand_computed_fixture(self):
        records = [
            RatingRecord("a", 0, "S3", 4),
            RatingRecord("a", 1, "S3", 2),
            RatingRecord("a", 2, "S3", 2),
            RatingRecord("a", 0, "S1", 5),
            RatingRecord("b", 0, "S3", 3),
        ]
        rows = aggregate_ratings(records)
        by_doc = {r["doc_id"]: r for r in rows}
        assert by_doc["a"]["S3_mean"] == pytest.approx(8 / 3)
        assert by_doc["a"]["S3_above3"] == pytest.approx(1 / 3)
        assert by_doc["a"]["S3_below3"] == pytest.approx(2 / 3)
        assert by_doc["a"]["S1_mean"] == 5.0
        assert by_doc["b"]["S3_above3"] == 0.0
        assert by_doc["b"]["S3_below3"] == 0.0

    def test_invalid_rating_rejected(self):
        with pytest.raises(ValueError):
            RatingRecord("d", 0, "S1", 6)
        with pytest.raises(ValueError):
            RatingRecord("d", 0, "I9", 3)


class TestCorrelate:
    def test_perfect_anti_linear(self):
        scores = [
            {"doc_id": f"d{i}", "n_steps": 10, "tree_f1": 1.0 - i / 10} for i in range(5)
        ]
        errors = [{"doc_id": f"d{i}", "errors": i} for i in range(5)]
        (result,) = correlate_scores(scores, errors, ["tree_f1"])
        assert result["r"] == pytest.approx(-1.0)

    def test_constant_column_rejected(self):
        scores = [{"doc_id": f"d{i}", "n_steps": 5, "tree_f1": 0.5} for i in range(4)]
        errors = [{"doc_id": f"d{i}", "errors": i} for i in range(4)]
        with pytest.raises(ValueError, match="constant"):
            correlate_scores(scores, errors, ["tree_f1"])

    REPEATED = (("d0", 9), ("d0", 0), ("d1", 1), ("d2", 2))

    def test_repeated_doc_id_in_errors_is_rejected(self):
        # Keeping the last d0 row would give r = 1.0 with no error.
        scores = [{"doc_id": f"d{i}", "n_steps": 1, "tree_f1": i} for i in range(3)]
        errors = [{"doc_id": d, "errors": e} for d, e in self.REPEATED]
        with pytest.raises(ValueError, match="^errors rows: doc_id 'd0' appears more than once$"):
            correlate_scores(scores, errors, ["tree_f1"])

    def test_repeated_doc_id_in_scores_is_rejected(self):
        scores = [{"doc_id": d, "n_steps": 1, "tree_f1": f} for d, f in self.REPEATED]
        errors = [{"doc_id": f"d{i}", "errors": i} for i in range(3)]
        with pytest.raises(ValueError, match="^scores rows: doc_id 'd0' appears more than once$"):
            correlate_scores(scores, errors, ["tree_f1"])

    def test_too_few_joined_rows(self):
        scores = [{"doc_id": "a", "n_steps": 5, "tree_f1": 0.5}]
        errors = [{"doc_id": "a", "errors": 1}]
        with pytest.raises(ValueError, match="joined"):
            correlate_scores(scores, errors, ["tree_f1"])

    @pytest.mark.parametrize("n_steps", [0, "", None, "nan"])
    def test_bad_step_count_names_document(self, n_steps):
        scores = [{"doc_id": f"d{i}", "n_steps": 5, "tree_f1": i / 4} for i in range(4)]
        scores[2]["n_steps"] = n_steps
        errors = [{"doc_id": f"d{i}", "errors": i} for i in range(4)]
        with pytest.raises(ValueError, match="d2: n_steps"):
            correlate_scores(scores, errors, ["tree_f1"])

    def test_missing_column(self):
        scores = [{"doc_id": f"d{i}", "n_steps": 5, "tree_f1": i / 4} for i in range(4)]
        errors = [{"doc_id": f"d{i}", "errors": i} for i in range(4)]
        with pytest.raises(ValueError, match="bleu"):
            correlate_scores(scores, errors, ["bleu"])


class TestErrorDoseResponse:
    def test_mean_tree_score_non_increasing_in_error_count(self):
        """Corpus means degrade monotonically as more errors are injected.

        This is a statistical tendency checked at a fixed seed, not a theorem:
        a dropped no-op step can leave the score unchanged, and individual
        documents do fluctuate.  The acceptance suite asserts the weaker,
        seed-robust form (Pearson r <= -0.5).
        """
        corpus = helpers.make_chain_corpus()
        means = []
        for errs in range(6):
            plan = ErrorInjectionPlan(
                swap_adjacent=(errs + 2) // 3,
                drop_step=(errs + 1) // 3,
                wrong_piece=errs // 3,
            )
            scores = []
            for grammar, spec, gold, doc in corpus:
                tagged = InstructionDoc(doc.pattern_id, f"{doc.doc_id}-e{errs}", doc.steps)
                corrupted, applied = inject_errors(tagged, plan, 1, spec)
                assert applied == errs
                row, _ = score_document(corrupted, gold, spec)
                scores.append(row["tree_f1"])
            means.append(sum(scores) / len(scores))
        assert means[0] == 1.0
        assert all(a >= b for a, b in zip(means, means[1:])), means
