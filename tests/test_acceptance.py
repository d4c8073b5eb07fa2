"""End-to-end acceptance checks, one per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.  Each test prints exactly one PASS/FAIL line.
"""

import contextlib
import math
import shutil
import time
from pathlib import Path

import pytest

from sewtree.experiments import (
    ErrorInjectionPlan,
    correlate_scores,
    inject_errors,
    permute_doc,
    roundtrip_grammar,
    score_document,
)
from sewtree.grammar import count_derivations, enumerate_gold_trees
from sewtree.metrics import bleu, ngram_precisions, pearson, rouge_l, BLEU_EPSILON
from sewtree.pipeline import InstructionDoc, build_forest, extract_document

import helpers
from conftest import FIXTURES, GRAMMAR_NAMES, load_grammar


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def chain_corpus():
    return helpers.make_chain_corpus()


def test_criterion_1_pipeline_reproduction(skirt_grammar, skirt_spec, skirt_doc):
    with criterion(1, "worked-example pipeline reproduction"):
        start = time.monotonic()
        extractions = extract_document(skirt_doc, skirt_spec)
        assert [
            [str(m) for m in x.mentions] for x in extractions
        ] == [["A", "B"], ["A", "B"], ["C", "A", "B"], [], []]

        report = build_forest(skirt_doc, extractions, skirt_spec)
        assert report.subtrees() == {
            "AB -> A B",
            "AB_1 -> AB",
            "ABC_1 -> AB_1 C",
        }

        gold = enumerate_gold_trees(skirt_grammar)
        row, _ = score_document(skirt_doc, gold, skirt_spec)
        assert row["tree_f1"] == 1.0
        assert time.monotonic() - start < 1.0


def test_criterion_2_gold_enumeration():
    with criterion(2, "gold grammar enumeration counts"):
        start = time.monotonic()
        expected = {"skirt": 1, "pants_a": 1, "pants_b": 1, "pants_combined": 4}
        for name, count in expected.items():
            trees = enumerate_gold_trees(load_grammar(name))
            assert len(trees) == count, name

        combined = enumerate_gold_trees(load_grammar("pants_combined"))
        roots = {t.split(" ", 1)[0].lstrip("(") for t in combined}
        assert roots == {"BlBrFlFr_1", "BlBrFlFr_2"}

        for name in GRAMMAR_NAMES:
            grammar = load_grammar(name)
            counts = count_derivations(grammar)
            total = sum(counts[root] for root in grammar.roots)
            assert total == len(enumerate_gold_trees(grammar)), name
        assert time.monotonic() - start < 1.0


def test_criterion_3_roundtrip_fixtures():
    with criterion(3, "linearize/rebuild round-trip on fixtures"):
        assert len(GRAMMAR_NAMES) >= 5
        for name in GRAMMAR_NAMES:
            assert roundtrip_grammar(load_grammar(name)) == [], name


def test_criterion_4_permutation_robustness(chain_corpus):
    with criterion(4, "permutation robustness"):
        start = time.monotonic()
        permuted_scores = []
        for grammar, spec, gold, doc in chain_corpus:
            row, _ = score_document(doc, gold, spec)
            assert row["tree_f1"] == 1.0, grammar.pattern_id

            reference = " ".join(doc.steps)
            base_p1 = ngram_precisions(reference, reference, 1)[0]
            for variant in permute_doc(doc, 42, 20):
                row, _ = score_document(variant, gold, spec)
                permuted_scores.append(row["tree_f1"])
                p1 = ngram_precisions(" ".join(variant.steps), reference, 1)[0]
                assert p1 == base_p1

        assert sum(permuted_scores) / len(permuted_scores) < 0.9
        assert time.monotonic() - start < 10.0


def test_criterion_5_error_correlation(chain_corpus):
    with criterion(5, "error-count correlation"):
        start = time.monotonic()
        rows, errors = [], []
        for errs in range(6):
            plan = ErrorInjectionPlan(
                swap_adjacent=(errs + 2) // 3,
                drop_step=(errs + 1) // 3,
                wrong_piece=errs // 3,
            )
            assert plan.total == errs
            for grammar, spec, gold, doc in chain_corpus:
                tagged = InstructionDoc(doc.pattern_id, f"{doc.doc_id}-e{errs}", doc.steps)
                corrupted, applied = inject_errors(tagged, plan, 1, spec)
                assert applied == errs
                row, _ = score_document(corrupted, gold, spec)
                rows.append(row)
                errors.append({"doc_id": row["doc_id"], "errors": errs})

        (result,) = correlate_scores(rows, errors, ["tree_f1"])
        assert result["n"] == 6 * len(chain_corpus)
        assert result["r"] <= -0.5
        assert time.monotonic() - start < 30.0


def test_criterion_6_metric_unit_suite():
    with criterion(6, "text metric unit suite"):
        text = "Sew the Over Skirt (A) to the Under Skirt (B)."
        assert bleu(text, text) == 1.0
        assert rouge_l(text, text) == 1.0
        assert bleu("alpha beta gamma delta", "one two three four") <= 1e-6
        assert rouge_l("alpha beta", "one two") == 0.0

        # p1..p4 = 3/4, 2/3, 1/2, 0 (smoothed to epsilon); equal lengths, BP = 1
        expected_bleu = (0.75 * (2 / 3) * 0.5 * BLEU_EPSILON) ** 0.25
        assert bleu("a b c d", "a b c e") == pytest.approx(expected_bleu, abs=1e-9)

        # LCS("a c", "a b c d") = 2 -> P = 1, R = 1/2, F1 = 2/3
        assert rouge_l("a c", "a b c d") == pytest.approx(2 / 3, abs=1e-9)

        # cov = 5.5/4, sd products -> r = 5.5 / sqrt(5 * 8.75)
        r, _, _ = pearson([1, 2, 3, 4], [1, 3, 2, 5])
        assert r == pytest.approx(5.5 / math.sqrt(5 * 8.75), abs=1e-9)


def test_criterion_7_structural_properties():
    with criterion(7, "randomized grammar structural properties"):
        for index in range(1000):
            grammar = helpers.make_random_grammar(2024, index)
            assert len(grammar.inventory) <= 6
            helpers.check_grammar_properties(grammar)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "seeded runs are byte-identical"):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(FIXTURES / "docs" / "skirt-demo.json", corpus / "skirt-demo.json")
        doc_path = corpus / "skirt-demo.json"
        spec_path = FIXTURES / "specs" / "skirt.json"

        def run(*argv):
            proc = helpers.run_fresh("-m", "sewtree.cli", *map(str, argv))
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        for run_id in ("a", "b"):
            run(
                "score",
                "--corpus", corpus,
                "--grammars", FIXTURES / "grammars",
                "--specs", FIXTURES / "specs",
                "--out", tmp_path / f"score-{run_id}",
            )
            run(
                "permute",
                "--doc", doc_path,
                "--seed", "7",
                "--k", "5",
                "--out", tmp_path / f"perm-{run_id}",
            )
            run(
                "inject-errors",
                "--doc", doc_path,
                "--spec", spec_path,
                "--seed", "7",
                "--swap", "1",
                "--drop", "1",
                "--out", tmp_path / f"inject-{run_id}",
            )

        def snapshot(directory: Path) -> dict:
            return {
                p.relative_to(directory): p.read_bytes()
                for p in sorted(directory.rglob("*"))
                if p.is_file()
            }

        reference = snapshot(tmp_path / "score-a")
        assert reference
        assert snapshot(tmp_path / "score-b") == reference
        assert snapshot(tmp_path / "perm-a") == snapshot(tmp_path / "perm-b")
        assert snapshot(tmp_path / "inject-a") == snapshot(tmp_path / "inject-b")
