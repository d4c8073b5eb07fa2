import argparse
import builtins
import contextlib
import csv
import gc
import io
import json
import shutil
import symtable
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

import sewtree.adapter
import sewtree.cli
import sewtree.grammar
import sewtree.tree
from sewtree.adapter import MAX_TIMEOUT_S, AdapterConfig, AdapterError, extract_via_adapter
from sewtree.cli import main
from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc
from sewtree.grammar import (
    DEFAULT_CAP,
    GrammarError,
    count_derivations,
    enumerate_gold_trees,
    parse_grammar,
)
from sewtree.labels import LabelError
from sewtree.metrics import ScoreBreakdown
from sewtree.pipeline import (
    BuildReport,
    Diagnostic,
    InstructionDoc,
    StepExtraction,
    build_forest,
    extract_document,
    linearize_gold_tree,
    load_doc,
    load_spec,
    placeholder_spec,
)
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_to_text, random_grammar
from sewtree.tree import parse_serialized

from conftest import FIXTURES, GRAMMAR_NAMES, _AdapterHandler, load_grammar, posted_requests, wait_for_posts
from helpers import (
    as_pair,
    gold_tree_oracle,
    run_fresh,
    split_rules,
    urllib_post,
    wide_grammar,
)


@pytest.fixture()
def workspace(tmp_path):
    """Corpus layout: fixture doc + grammars + specs, with a linearized ref."""
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    corpus.mkdir()
    shutil.copy(FIXTURES / "docs" / "skirt-demo.json", corpus / "skirt-demo.json")
    refs = tmp_path / "refs"
    refs.mkdir()
    ref = {
        "pattern_id": "skirt",
        "doc_id": "skirt-ref",
        "steps": [
            "Sew the Over Skirt (A) to the Under Skirt (B).",
            "Sew the component containing the Over Skirt (A) to itself.",
            "Sew the component containing the Over Skirt (A) to the Waistband (C).",
        ],
    }
    (refs / "skirt.json").write_text(json.dumps(ref))
    return {
        "corpus": corpus,
        "grammars": FIXTURES / "grammars",
        "specs": FIXTURES / "specs",
        "refs": refs,
        "out": out,
    }


def run(*argv):
    return main([str(a) for a in argv])


def files_under(directory: Path) -> dict[str, bytes]:
    """Every file's bytes by its path under ``directory``."""
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


UNPARSABLE_MESSAGE = "line 4: malformed node label 'a' at position 0"

# A JSON value nested deeper than the decoder's recursion allows.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def write_unparsable_grammar(directory: Path) -> Path:
    """A grammar file whose fourth line fails to parse with UNPARSABLE_MESSAGE."""
    path = directory / "bad.grammar"
    path.write_text("pattern: bad\npieces: A B\nroots: AB\nAB -> A a\n")
    return path


def grammars_with_an_unparsable_one(tmp_path: Path) -> tuple[Path, Path]:
    """The fixture grammars plus an unparsable one: (directory, bad file)."""
    grammars = tmp_path / "grammars"
    shutil.copytree(FIXTURES / "grammars", grammars)
    return grammars, write_unparsable_grammar(grammars)


class TestGenGold:
    def test_skirt(self, tmp_path, capsys):
        assert run("gen-gold", FIXTURES / "grammars" / "skirt.grammar") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trees"] == ["(ABC_1 (AB_1 (AB A B)) C)"]

    def test_builds_and_serializes_no_tree(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("gen-gold built or serialized a tree")

        for module in (sewtree.tree, sewtree.grammar, sewtree.cli):
            for name in ("parse_serialized", "canonical_serialize"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert run("gen-gold", FIXTURES / "grammars" / "pants_combined.grammar") == 0
        trees = json.loads(capsys.readouterr().out)["trees"]
        assert len(trees) == 4 and trees == sorted(trees)

    def test_cap_exceeded_exit_code(self, capsys):
        path = FIXTURES / "grammars" / "pants_combined.grammar"
        assert run("gen-gold", path, "--cap", "3") == 1
        assert capsys.readouterr().err == (
            f"error: {path}: pattern 'pants-combined': grammar derives 4 trees, cap is 3\n"
        )

    def test_invalid_grammar_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.grammar"
        bad.write_text("pattern: bad\npieces: A B\nroots: AB\nAB_1 -> AB\n")
        assert run("gen-gold", bad) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: pattern 'bad': invalid grammar: "
            "AB: no rule expands this non-leaf label; AB_1 -> AB: no root reaches this rule\n"
        )

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_refused(self, tmp_path, capsys, cap):
        out = tmp_path / "gold.json"
        path = FIXTURES / "grammars" / "skirt.grammar"
        assert run("gen-gold", path, "--cap", cap, "--out", out) == 1
        printed, err = capsys.readouterr()
        assert err == f"error: --cap must be >= 1, got {cap}\n"
        assert printed == "" and not out.exists()

    def test_missing_file_is_config_error(self, capsys):
        assert run("gen-gold", "/nonexistent/x.grammar") == 2
        assert capsys.readouterr().err.count("/nonexistent/x.grammar") == 1

    def test_unparsable_grammar_is_named(self, tmp_path, capsys):
        bad = write_unparsable_grammar(tmp_path)
        assert run("gen-gold", bad) == 1
        assert capsys.readouterr().err == f"error: {bad}: {UNPARSABLE_MESSAGE}\n"


def assert_gold_output_is_json_dumps(grammar_path: Path, out: Path, trees=None) -> None:
    """``gen-gold`` prints, and writes to ``out`` with ``--out``, exactly
    what ``json.dumps`` with indent 2 and sorted keys gives for its payload,
    plus a newline; ``trees`` defaults to the grammar's gold trees."""
    grammar = parse_grammar(grammar_path.read_text(encoding="utf-8"))
    if trees is None:
        trees = enumerate_gold_trees(grammar)
    payload = {"pattern_id": grammar.pattern_id, "trees": list(trees)}
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run("gen-gold", grammar_path) == 0
    assert printed.getvalue() == expected
    assert run("gen-gold", grammar_path, "--out", out) == 0
    assert out.read_bytes() == expected.encode("utf-8")


class TestGenGoldBytes:
    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_fixture_grammars(self, tmp_path, name):
        path = FIXTURES / "grammars" / f"{name}.grammar"
        assert_gold_output_is_json_dumps(path, tmp_path / "gold.json")

    @given(hs.integers(0, 2**64 - 1), hs.integers(1, 12), hs.integers(1, 4), hs.integers(0, 60))
    def test_synthetic_grammars(self, seed, n_pieces, n_trees, unary_percent):
        grammar = random_grammar(SplitMix64(seed), "synth", n_pieces, n_trees, unary_percent)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "synth.grammar"
            path.write_text(grammar_to_text(grammar), encoding="utf-8")
            assert_gold_output_is_json_dumps(path, Path(tmp) / "gold.json")

    def test_pattern_id_is_encoded(self, tmp_path):
        # A quote and a backslash are escaped and a non-ASCII letter becomes
        # a \u escape, as json.dumps does by default.
        path = tmp_path / "quoted.grammar"
        text = (FIXTURES / "grammars" / "skirt.grammar").read_text(encoding="utf-8")
        path.write_text(text.replace("pattern: skirt", 'pattern: say "Ärmel" \\ skirt'),
                        encoding="utf-8")
        assert_gold_output_is_json_dumps(path, tmp_path / "gold.json")
        written = (tmp_path / "gold.json").read_text(encoding="utf-8")
        assert '"pattern_id": "say \\"\\u00c4rmel\\" \\\\ skirt"' in written

    def test_no_trees(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sewtree.cli, "enumerate_gold_trees", lambda grammar, cap: ())
        path = FIXTURES / "grammars" / "skirt.grammar"
        assert_gold_output_is_json_dumps(path, tmp_path / "gold.json", trees=[])
        assert (tmp_path / "gold.json").read_text().endswith('"trees": []\n}\n')


def report_payload(doc_id: str, report: BuildReport) -> dict:
    """The JSON value of a ``build`` or ``score`` report: the reference
    that ``cli._write_report`` composes byte for byte."""
    return {
        "doc_id": doc_id,
        "forest": {
            "trees": [t for t in report.forest if t.startswith("(")],
            "isolated_leaves": [t for t in report.forest if not t.startswith("(")],
        },
        "subtree_trace": [list(entry) for entry in report.subtree_trace],
        "diagnostics": [[d.step_index, d.kind, d.message] for d in report.diagnostics],
    }


def dumped(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# Free text with what JSON must escape: quotes, backslashes, control and
# non-ASCII characters.
FREE_TEXT = hs.text(hs.one_of(hs.sampled_from('"\\\x00\x1f\x7f\n\tÄ€\u2028😀'), hs.characters()),
                    max_size=12)
SKIRT_RULES = sorted(load_grammar("skirt").rules)


class TestReportBytes:
    """``build`` and ``score`` write each report as ``json.dumps`` with
    indent 2 and sorted keys would, plus a newline, without the encoder."""

    def test_fixture_reports(self, workspace, tmp_path):
        doc = load_doc(FIXTURES / "docs" / "skirt-demo.json")
        spec = load_spec(FIXTURES / "specs" / "skirt.json")
        report = build_forest(doc, extract_document(doc, spec), spec)
        expected = dumped(report_payload(doc.doc_id, report))
        assert run("build", "--doc", FIXTURES / "docs" / "skirt-demo.json",
                   "--spec", FIXTURES / "specs" / "skirt.json", "--out", tmp_path / "build.json") == 0
        assert (tmp_path / "build.json").read_bytes() == expected
        assert run("score", "--corpus", workspace["corpus"], "--grammars", FIXTURES / "grammars",
                   "--specs", FIXTURES / "specs", "--out", workspace["out"]) == 0
        assert (workspace["out"] / "reports" / "skirt-demo.json").read_bytes() == expected

    @given(
        FREE_TEXT,
        hs.lists(hs.one_of(FREE_TEXT.map("(".__add__), FREE_TEXT.filter(lambda t: not t.startswith("(")))),
        hs.lists(hs.tuples(hs.integers(0, 10**6), hs.one_of(hs.sampled_from(SKIRT_RULES), FREE_TEXT))),
        hs.lists(hs.builds(Diagnostic, hs.integers(0, 10**6), FREE_TEXT, FREE_TEXT)),
    )
    @example("d", [], [], [])
    @example('say "\\Ärmel"\n', ["A"], [], [Diagnostic(0, "k\x00", "\x1f\u2028")])
    def test_drawn_reports(self, doc_id, forest, trace, diagnostics):
        report = BuildReport(tuple(forest), tuple(trace), tuple(diagnostics))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            sewtree.cli._write_report(doc_id, report, path)
            assert path.read_bytes() == dumped(report_payload(doc_id, report))


RECORD_TYPES = (InstructionDoc, StepExtraction, Diagnostic, BuildReport, ScoreBreakdown)
# What the commands write: dicts with text keys, lists, tuples, the
# records, texts and ints, nested; empty containers included.
JSON_VALUES = hs.recursive(
    FREE_TEXT | hs.integers(),
    lambda children: hs.one_of(
        hs.lists(children, max_size=4),
        hs.lists(children, max_size=4).map(tuple),
        hs.dictionaries(FREE_TEXT, children, max_size=4),
        *(hs.tuples(*[children] * len(record._fields)).map(record._make) for record in RECORD_TYPES),
    ),
    max_leaves=24,
)


@given(JSON_VALUES, hs.sampled_from([0.5, None, True, False]))
@example({}, None)
@example([[], (), {"b": "", "a": 1}, -1], 0.0)
def test_dumps_is_json_dumps(value, foreign):
    """``_dumps`` writes what ``json.dumps`` with indent 2 and sorted keys
    writes, and refuses a float, ``None`` or a bool at any depth, and a key
    that is not a text."""
    assert sewtree.cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    for wrapped in (foreign, [value, foreign], {"a": value, "b": {"c": foreign}}, {foreign: value}):
        with pytest.raises(TypeError):
            sewtree.cli._dumps(wrapped)


class TestValidateGrammar:
    def test_fixtures_ok(self, capsys):
        paths = sorted((FIXTURES / "grammars").glob("*.grammar"))
        assert run("validate-grammar", *paths) == 0
        assert "INVALID" not in capsys.readouterr().out

    def test_invalid_grammar(self, tmp_path, capsys):
        bad = tmp_path / "bad.grammar"
        bad.write_text("pattern: x\npieces: A B C\nroots: AB\nAB -> A B\n")
        assert run("validate-grammar", bad) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_unparsable_grammar_is_invalid_and_the_rest_are_checked(self, tmp_path, capsys):
        skirt = FIXTURES / "grammars" / "skirt.grammar"
        bad = write_unparsable_grammar(tmp_path)
        assert run("validate-grammar", skirt, bad, skirt) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            f"{skirt}: OK\n{bad}: INVALID\n  {UNPARSABLE_MESSAGE}\n{skirt}: OK\n"
        )
        assert captured.err == ""

    # Label arithmetic on piece masks: an unknown root piece, a unary
    # counter and a binary union.  A rule is named with the unknown pieces
    # of all its labels.
    PROBLEMS = {
        "masks": (
            "pattern: masks\npieces: A B C\nroots: ABC ABQ\nAB_2 -> AB\nABC -> A C\nAB -> A B\n",
            ["root ABQ: unknown pieces Q", "AB_2 -> AB: unary child counter must be parent's minus 1",
             "ABC -> A C: children's pieces do not cover the parent"],
        ),
        "unknown-pieces-of-two-labels": (
            "pattern: x\npieces: A B\nroots: AB\nAB -> Q R\n", ["AB -> Q R: unknown pieces Q, R"],
        ),
    }

    @pytest.mark.parametrize("text,problems", PROBLEMS.values(), ids=PROBLEMS)
    def test_each_problem_is_named(self, tmp_path, capsys, text, problems):
        bad = tmp_path / "bad.grammar"
        bad.write_text(text)
        assert run("validate-grammar", bad) == 1
        assert capsys.readouterr() == (f"{bad}: INVALID\n" + "".join(f"  {p}\n" for p in problems), "")

    def test_grammar_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.grammar"
        bad.write_bytes(b"pattern: x\npieces: A B\nroots: AB\nAB -> A B # \xff\n")
        assert run("validate-grammar", bad) == 2
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and "can't decode byte 0xff" in err


DEAD_RULE = "AB_2 -> AB_1"
# Rules that are not valid steps over the skirt grammar's pieces A B C.
BAD_RULES = ("AB -> A A", "CQ -> C Q")


def assert_skirt_with_rules_is_refused(workspace, tmp_path, capsys, command, rules, problems):
    """``command`` on the fixture grammars, the skirt one with ``rules``
    added, exits 1 naming ``problems`` before any output.  The skirt grammar
    sorts after the other five, so the refusal comes before any output only
    if the grammars are checked as they are read."""
    grammars = tmp_path / "grammars"
    shutil.copytree(FIXTURES / "grammars", grammars)
    bad = grammars / "skirt.grammar"
    bad.write_text(bad.read_text() + "".join(f"{rule}\n" for rule in rules))
    gold = tmp_path / "gold.json"
    args = {
        "validate-grammar": [bad],
        "gen-gold": [bad, "--out", gold],
        "score": ["--corpus", workspace["corpus"], "--grammars", grammars,
                  "--specs", workspace["specs"], "--out", workspace["out"]],
        "roundtrip": ["--grammars", grammars],
    }[command]
    assert run(command, *args) == 1
    captured = capsys.readouterr()
    if command == "validate-grammar":
        assert captured.out == f"{bad}: INVALID\n" + "".join(f"  {p}\n" for p in problems)
    else:
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: pattern 'skirt': invalid grammar: " + "; ".join(problems) + "\n"
        )
    assert not gold.exists() and not workspace["out"].exists()


@pytest.mark.parametrize("command", ["validate-grammar", "gen-gold", "score", "roundtrip"])
def test_rule_no_root_reaches_is_refused(workspace, tmp_path, capsys, command):
    # One more valid rule, whose parent no root reaches.
    assert_skirt_with_rules_is_refused(workspace, tmp_path, capsys, command, [DEAD_RULE],
                                       [f"{DEAD_RULE}: no root reaches this rule"])


@pytest.mark.parametrize("command", ["validate-grammar", "gen-gold", "score", "roundtrip"])
def test_every_invalid_rule_is_named(workspace, tmp_path, capsys, command):
    # Two more rules, neither a valid step: each is named, in file order,
    # and nothing that follows from them is.
    problems = [f"{BAD_RULES[0]}: children share pieces", f"{BAD_RULES[1]}: unknown pieces Q"]
    assert_skirt_with_rules_is_refused(workspace, tmp_path, capsys, command, BAD_RULES, problems)


def test_score_refuses_an_invalid_grammar_no_document_uses(workspace, tmp_path, capsys):
    # Every line of the shirt grammar parses, but BF_8 is a non-leaf label
    # no rule expands; the corpus holds only a skirt document.
    grammars = tmp_path / "grammars"
    shutil.copytree(FIXTURES / "grammars", grammars)
    bad = grammars / "shirt.grammar"
    bad.write_text(bad.read_text() + "BF_9 -> BF_8\n")
    assert run("score", "--corpus", workspace["corpus"], "--grammars", grammars,
               "--specs", workspace["specs"], "--out", workspace["out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}: pattern 'shirt': invalid grammar: "
        "BF_8: no rule expands this non-leaf label; BF_9 -> BF_8: no root reaches this rule\n"
    )
    assert not workspace["out"].exists()


@pytest.mark.parametrize("command", ["score", "roundtrip"])
def test_grammar_directory_reads_only_grammar_files(workspace, tmp_path, capsys, command):
    grammars = tmp_path / "grammars"
    shutil.copytree(FIXTURES / "grammars", grammars)
    (grammars / "notes.txt").write_text("Notes on these grammars.\n")
    outputs = []
    for directory in (FIXTURES / "grammars", grammars):
        score_args = ("--corpus", workspace["corpus"], "--specs", workspace["specs"], "--out", workspace["out"])
        assert run(command, "--grammars", directory, *(score_args if command == "score" else ())) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert outputs[1].err == ""


@pytest.mark.parametrize("error", [GrammarError, LabelError, ValueError])
def test_validation_error_from_a_command_exits_1(monkeypatch, capsys, error):
    def fail(args):
        raise error("bad label")

    monkeypatch.setattr(sewtree.cli, "cmd_validate_grammar", fail)
    assert run("validate-grammar", FIXTURES / "grammars" / "skirt.grammar") == 1
    assert capsys.readouterr().err == "error: bad label\n"


def deep_skirt_doc(n_steps: int) -> dict:
    """One merge, then ``n_steps - 1`` self-attachments of the merged panels."""
    steps = ["Sew the Over Skirt (A) to the Under Skirt (B)."]
    steps += ["Sew the component containing the Over Skirt (A) to itself."] * (n_steps - 1)
    return {"pattern_id": "skirt", "doc_id": "deep", "steps": steps}


class TestExtractAndBuild:
    def test_extract(self, tmp_path, capsys):
        assert (
            run(
                "extract",
                "--doc", FIXTURES / "docs" / "skirt-demo.json",
                "--spec", FIXTURES / "specs" / "skirt.json",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["pieces_per_step"] == [["A", "B"], ["A", "B"], ["C", "A", "B"], [], []]

    def test_build(self, capsys):
        assert (
            run(
                "build",
                "--doc", FIXTURES / "docs" / "skirt-demo.json",
                "--spec", FIXTURES / "specs" / "skirt.json",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["forest"]["trees"] == ["(ABC_1 (AB_1 (AB A B)) C)"]

    def test_thousand_step_document(self, tmp_path, capsys):
        # Deeper than the interpreter's recursion limit.
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps(deep_skirt_doc(1000)))
        assert run("build", "--doc", doc, "--spec", FIXTURES / "specs" / "skirt.json") == 0
        payload = json.loads(capsys.readouterr().out)
        (tree,) = payload["forest"]["trees"]
        assert tree.startswith("(AB_999 (AB_998 ") and tree.endswith(" (AB A B)" + ")" * 999)
        assert payload["forest"]["isolated_leaves"] == ["C"]


class TestScore:
    def test_score_writes_csv_and_reports(self, workspace, capsys):
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--refs", workspace["refs"],
            "--out", workspace["out"],
        )
        assert code == 0
        with open(workspace["out"] / "scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["doc_id"] == "skirt-demo"
        assert row["tree_f1"] == "1.000000"
        assert row["bleu"] != "" and row["rouge_l"] != ""
        assert (workspace["out"] / "reports" / "skirt-demo.json").exists()

    def test_unknown_pattern_named_in_error(self, workspace, capsys):
        doc = {"pattern_id": "hat", "doc_id": "hat-1", "steps": ["Sew (A) to (B)."]}
        (workspace["corpus"] / "hat-1.json").write_text(json.dumps(doc))
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--out", workspace["out"],
        )
        assert code == 2
        assert "hat-1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,only",
        [({"D": "Pocket"}, "only in the spec: D"), ({"C": None}, "only in the grammar: C")],
    )
    def test_spec_with_other_pieces_than_its_grammar_is_config_error(
        self, workspace, tmp_path, capsys, change, only
    ):
        specs = tmp_path / "specs"
        specs.mkdir()
        spec = json.loads((FIXTURES / "specs" / "skirt.json").read_text())
        for piece, name in change.items():
            if name is None:
                del spec["pieces"][piece]
            else:
                spec["pieces"][piece] = name
        (specs / "skirt.json").write_text(json.dumps(spec))
        assert run(*self.score_args(workspace, specs=specs)) == 2
        printed, err = capsys.readouterr()
        grammar = workspace["grammars"] / "skirt.grammar"
        assert err == (
            f"error: {specs / 'skirt.json'} and {grammar} have different pieces "
            f"for pattern 'skirt': {only}\n"
        )
        assert printed == "" and not workspace["out"].exists()

    def test_union_equals_concatenation(self, workspace, tmp_path, capsys):
        # scoring two docs together equals scoring them separately
        doc2 = json.loads((FIXTURES / "docs" / "skirt-demo.json").read_text())
        doc2["doc_id"] = "skirt-demo-copy"
        (workspace["corpus"] / "copy.json").write_text(json.dumps(doc2))
        out_union = tmp_path / "union"
        run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--out", out_union,
        )
        with open(out_union / "scores.csv", newline="") as fh:
            union_rows = list(csv.DictReader(fh))
        assert [r["doc_id"] for r in union_rows] == ["skirt-demo", "skirt-demo-copy"]
        assert union_rows[0]["tree_f1"] == union_rows[1]["tree_f1"] == "1.000000"

    def score_args(self, workspace, **paths):
        dirs = {k: workspace[k] for k in ("corpus", "grammars", "specs", "out")}
        dirs.update(paths)
        return ["score", *(arg for k, v in dirs.items() for arg in (f"--{k}", v))]

    @pytest.mark.parametrize("kind", ["corpus", "specs", "refs"])
    def test_json_nested_too_deeply_is_io_error(self, workspace, tmp_path, capsys, kind):
        directory = tmp_path / f"deep-{kind}"
        shutil.copytree(workspace[kind], directory)
        bad = directory / ("skirt-demo.json" if kind == "corpus" else "skirt.json")
        bad.write_text(DEEP_JSON)
        assert run(*self.score_args(workspace, **{kind: directory})) == 2
        printed, err = capsys.readouterr()
        assert err == f"error: {bad}: value nested too deeply: line 1 column 1 (char 0)\n"
        assert printed == "" and not workspace["out"].exists()

    def test_never_enumerates_gold_trees(self, workspace, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("score enumerated the gold trees")

        monkeypatch.setattr(sewtree.cli, "enumerate_gold_trees", refuse)
        monkeypatch.setattr(sewtree.grammar, "enumerate_gold_trees", refuse)
        assert run(*self.score_args(workspace)) == 0
        with open(workspace["out"] / "scores.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["best_gold_tree"] == "(ABC_1 (AB_1 (AB A B)) C)"

    def test_grammar_past_enumeration_cap(self, tmp_path, capsys):
        text, tree = wide_grammar()
        grammar = parse_grammar(text)
        assert sum(count_derivations(grammar).values()) == 15**5 > DEFAULT_CAP

        for name in ("corpus", "grammars", "specs"):
            (tmp_path / name).mkdir()
        (tmp_path / "grammars" / "wide.grammar").write_text(text)
        spec = placeholder_spec("wide", grammar.inventory)
        (tmp_path / "specs" / "wide.json").write_text(json.dumps(spec.to_json()))
        doc = linearize_gold_tree(as_pair(tree), spec)
        (tmp_path / "corpus" / "wide.json").write_text(json.dumps(doc.to_json()))

        code = run("score", "--corpus", tmp_path / "corpus", "--grammars", tmp_path / "grammars",
                   "--specs", tmp_path / "specs", "--out", tmp_path / "out")
        assert code == 0, capsys.readouterr().err
        with open(tmp_path / "out" / "scores.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["tree_f1"] == "1.000000"

    def test_invalid_grammar_is_validation_error(self, workspace, tmp_path, capsys):
        grammars = tmp_path / "grammars"
        grammars.mkdir()
        (grammars / "skirt.grammar").write_text("pattern: skirt\npieces: A B C\nroots: AB\nAB -> A B\n")
        assert run(*self.score_args(workspace, grammars=grammars)) == 1
        assert "invalid grammar: root AB" in capsys.readouterr().err

    def test_grammar_that_fails_validation_is_named(self, workspace, tmp_path, capsys):
        # Every rule parses, but BC_2 is a non-leaf label no rule expands,
        # and no root reaches either new rule.
        grammars = tmp_path / "grammars"
        shutil.copytree(FIXTURES / "grammars", grammars)
        bad = grammars / "skirt.grammar"
        bad.write_text(bad.read_text() + "BC -> B C\nABC_2 -> A BC_2\n")
        assert run(*self.score_args(workspace, grammars=grammars)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: pattern 'skirt': invalid grammar: "
            "BC_2: no rule expands this non-leaf label; BC -> B C: no root reaches this rule; "
            "ABC_2 -> A BC_2: no root reaches this rule\n"
        )

    def test_thousand_step_document(self, workspace, capsys):
        # Deeper than the interpreter's recursion limit.
        (workspace["corpus"] / "skirt-demo.json").unlink()
        (workspace["corpus"] / "deep.json").write_text(json.dumps(deep_skirt_doc(1000)))
        assert run(*self.score_args(workspace)) == 0, capsys.readouterr().err
        with open(workspace["out"] / "scores.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        # AB -> A B and AB_1 -> AB match, of 1,000 predicted and 3 gold rules.
        assert (row["n_steps"], row["tree_precision"], row["tree_recall"]) == (
            "1000", "0.002000", "0.666667"
        )

    def test_unparsable_grammar_is_named(self, workspace, tmp_path, capsys):
        grammars, bad = grammars_with_an_unparsable_one(tmp_path)
        assert run(*self.score_args(workspace, grammars=grammars)) == 1
        assert capsys.readouterr().err == f"error: {bad}: {UNPARSABLE_MESSAGE}\n"

    def test_cap_option_removed(self, workspace):
        with pytest.raises(SystemExit) as exc:
            run(*self.score_args(workspace), "--cap", "10")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "kind,content,message",
        [
            *(pytest.param(kind, b"{\n  'pattern_id': 'skirt'\n}\n", "line 2 column 3", id=kind)
              for kind in ("corpus", "specs", "refs")),
            *(pytest.param(kind, b'{"pattern_id": "skirt\xff"}\n', "can't decode byte 0xff",
                           id=f"{kind}-not-utf8")
              for kind in ("corpus", "specs", "refs")),
        ],
    )
    def test_file_that_is_not_json_is_named(
        self, workspace, tmp_path, capsys, kind, content, message
    ):
        directory = workspace[kind] if kind != "specs" else tmp_path / "bad-specs"
        if kind == "specs":
            shutil.copytree(workspace["specs"], directory)
        bad = directory / "skirt.json"
        bad.write_bytes(content)
        assert run(*self.score_args(workspace, **{kind: directory})) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    @pytest.mark.parametrize("kind", ["corpus", "specs", "refs", "grammars"])
    def test_two_files_with_one_key_are_rejected(self, workspace, tmp_path, capsys, kind):
        directory = tmp_path / f"dup-{kind}"
        shutil.copytree(workspace[kind], directory)
        name = {"corpus": "skirt-demo.json", "specs": "skirt.json",
                "refs": "skirt.json", "grammars": "skirt.grammar"}[kind]
        first = directory / name
        second = directory / f"zz-{name}"
        shutil.copy(first, second)
        paths = {"refs": workspace["refs"], kind: directory}
        assert run(*self.score_args(workspace, **paths)) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err
        assert not (workspace["out"] / "scores.csv").exists()

    @pytest.mark.parametrize(
        "kind,message",
        [("corpus", "no documents in"), ("grammars", "no grammar files in"), ("specs", "no specs in")],
    )
    def test_directory_without_its_files_is_config_error(self, workspace, tmp_path, capsys, kind,
                                                         message):
        empty = tmp_path / f"empty-{kind}"
        empty.mkdir()
        assert run(*self.score_args(workspace, **{kind: empty})) == 2
        printed, err = capsys.readouterr()
        assert err == f"error: {message} {empty}\n"
        assert printed == "" and not workspace["out"].exists()

    def test_csv_header_and_row_bytes(self, workspace, capsys):
        """The header is the row dict's keys, so its order is pinned here
        byte for byte, with a fixture row under it."""
        assert run(*self.score_args(workspace, refs=workspace["refs"])) == 0
        assert (workspace["out"] / "scores.csv").read_bytes() == (
            b"doc_id,pattern_id,n_steps,tree_f1,tree_precision,tree_recall,best_gold_tree,"
            b"bleu,rouge_l,diagnostics_count\n"
            b"skirt-demo,skirt,5,1.000000,1.000000,1.000000,(ABC_1 (AB_1 (AB A B)) C),"
            b"0.192080,0.384236,2\n"
        )


class TestReferences:
    """With ``--refs``, every document needs its pattern's reference, or
    nothing is written."""

    def score(self, workspace, refs):
        return run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--refs", refs,
            "--out", workspace["out"],
        )

    @pytest.mark.parametrize("kind", ["missing", "empty"])
    def test_directory_without_references_is_config_error(self, workspace, tmp_path, capsys, kind):
        refs = tmp_path / "no-refs"
        if kind == "empty":
            refs.mkdir()
        assert self.score(workspace, refs) == 2
        assert capsys.readouterr().err == f"error: no references in {refs}\n"
        assert not workspace["out"].exists()

    def test_document_without_a_reference_is_named(self, workspace, capsys):
        spec = load_spec(FIXTURES / "specs" / "shirt.json")
        text = enumerate_gold_trees(load_grammar("shirt"))[0]
        doc = linearize_gold_tree(parse_serialized(text), spec)
        (workspace["corpus"] / "shirt.json").write_text(json.dumps(doc.to_json()))
        assert self.score(workspace, workspace["refs"]) == 2
        assert capsys.readouterr().err == (
            f"error: document {doc.doc_id}: no reference for pattern 'shirt'\n"
        )
        assert not workspace["out"].exists()


class TestInputSchema:
    @pytest.mark.parametrize(
        "kind,payload,field",
        [
            ("doc", {"pattern_id": "skirt", "doc_id": "bad", "steps": "Sew (A) to (B)."}, "steps"),
            ("doc", {"pattern_id": "skirt", "doc_id": "bad", "steps": ["Sew (A) to (B).", 3]}, "steps"),
            ("doc", {"pattern_id": "skirt", "doc_id": "bad"}, "steps"),
            ("spec", {"pattern_id": "skirt", "pieces": ["A", "B", "C"]}, "pieces"),
            ("spec", {"pattern_id": "skirt", "pieces": {"A": "Over Skirt", "B": 5, "C": "Waistband"}}, "B"),
        ],
    )
    def test_malformed_input_is_validation_error(
        self, workspace, tmp_path, capsys, kind, payload, field
    ):
        specs = workspace["specs"]
        if kind == "doc":
            bad = workspace["corpus"] / "bad.json"
        else:
            specs = tmp_path / "specs"
            shutil.copytree(workspace["specs"], specs)
            bad = specs / "skirt.json"
        bad.write_text(json.dumps(payload))
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", specs,
            "--out", workspace["out"],
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(field) in err

    def test_spec_with_a_non_canonical_piece_name_is_validation_error(
        self, workspace, tmp_path, capsys
    ):
        # A01 and A1 would otherwise name one piece, and one name be lost.
        specs = tmp_path / "specs"
        shutil.copytree(workspace["specs"], specs)
        bad = specs / "skirt.json"
        bad.write_text(json.dumps(
            {"pattern_id": "skirt", "pieces": {"A01": "Over Skirt", "A1": "Lining", "B": "Under Skirt"}}
        ))
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", specs,
            "--out", workspace["out"],
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "'A01'" in err
        assert not workspace["out"].exists()


class TestUnsafeDocId:
    """A report is written to ``<doc_id>.json``, so a ``doc_id`` that is not
    a file name is a validation error, raised before anything is written."""

    BAD_IDS = ["../escaped", "sub/dir", "", ".", "..", "back\\slash", "nul\0"]

    def write_doc(self, path: Path, doc_id: str) -> Path:
        path.write_text(json.dumps({"pattern_id": "skirt", "doc_id": doc_id, "steps": ["Sew (A) to (B)."]}))
        return path

    @pytest.mark.parametrize("doc_id", BAD_IDS)
    def test_score_writes_nothing(self, workspace, capsys, doc_id):
        bad = self.write_doc(workspace["corpus"] / "zz-bad.json", doc_id)
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--out", workspace["out"],
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "'doc_id'" in err
        assert sorted(p.name for p in workspace["out"].parent.iterdir()) == ["corpus", "refs"]

    @pytest.mark.parametrize("doc_id", BAD_IDS)
    def test_permute_writes_nothing(self, tmp_path, capsys, doc_id):
        bad = self.write_doc(tmp_path / "bad.json", doc_id)
        assert run("permute", "--doc", bad, "--seed", "1", "--k", "2", "--out", tmp_path / "out") == 1
        assert str(bad) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("doc_id", ["skirt-demo", "a.b", "..a", "doc 1", "ärmel"])
    def test_file_names_are_accepted(self, tmp_path, capsys, doc_id):
        doc = self.write_doc(tmp_path / "doc.json", doc_id)
        assert run("permute", "--doc", doc, "--seed", "1", "--out", tmp_path / "out") == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == [f"{doc_id}-perm1.json"]


class TestAdapterOptions:
    @pytest.mark.parametrize(
        "option",
        [
            ("--adapter-timeout", "-1"),
            ("--adapter-timeout", "0"),
            ("--adapter-retries", "-3"),
            ("--adapter-timeout", "inf"),
            ("--adapter-timeout", "1e300"),
            ("--adapter-timeout", "nan"),
            ("--adapter-url", "file:"),
            ("--adapter-url", "htp://x"),
            ("--adapter-url", "http://"),
        ],
        ids=[
            "negative-timeout",
            "zero-timeout",
            "negative-retries",
            "infinite-timeout",
            "huge-timeout",
            "nan-timeout",
            "file-url",
            "misspelt-scheme",
            "no-host",
        ],
    )
    def test_bad_value_is_rejected_not_fallen_back_from(self, capsys, option):
        code = run(
            "build",
            "--doc", FIXTURES / "docs" / "skirt-demo.json",
            "--spec", FIXTURES / "specs" / "skirt.json",
            "--extractor", "adapter", "--adapter-url", "http://127.0.0.1:1/none",
            "--adapter-fallback", *option,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option[0].removeprefix("--").replace("-", " ") in err

    def test_largest_timeout_is_accepted(self, capsys):
        # Refused at once, so the timeout is only handed to the socket.
        code = run(
            "build",
            "--doc", FIXTURES / "docs" / "skirt-demo.json",
            "--spec", FIXTURES / "specs" / "skirt.json",
            "--extractor", "adapter", "--adapter-url", "http://127.0.0.1:1/none",
            "--adapter-fallback", "--adapter-timeout", str(MAX_TIMEOUT_S),
        )
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("fallback", [(), ("--adapter-fallback",)], ids=["strict", "fallback"])
    def test_non_http_url_writes_nothing(self, workspace, capsys, fallback):
        for url in [
            "file:///dev/null",
            "http://127.0.0.1:abc/x",
            "http://127.0.0.1:99999/x",
            "http://u:p@127.0.0.1/x",
        ]:
            code = run(
                "score",
                "--corpus", workspace["corpus"],
                "--grammars", workspace["grammars"],
                "--specs", workspace["specs"],
                "--out", workspace["out"],
                "--extractor", "adapter", "--adapter-url", url, *fallback,
            )
            assert code == 1, url
            out, err = capsys.readouterr()
            assert err.startswith("error: ") and "not an http(s) URL" in err
            assert out == "" and not workspace["out"].exists()


ADAPTER_ONLY_OPTIONS = [
    pytest.param(("--adapter-url", "http://127.0.0.1:1/x"), "--adapter-url", id="url"),
    pytest.param(("--adapter-timeout", "0"), "--adapter-timeout", id="zero-timeout"),
    pytest.param(("--adapter-retries", "-3"), "--adapter-retries", id="negative-retries"),
    pytest.param(("--adapter-fallback",), "--adapter-fallback", id="fallback"),
    pytest.param(("--extractor", "rule-based", "--adapter-timeout", "10"), "--adapter-timeout",
                 id="rule-based-named"),
    pytest.param(("--adapter-url", "http://127.0.0.1:1/x", "--adapter-retries", "5", "--adapter-fallback"),
                 "--adapter-url, --adapter-retries, --adapter-fallback", id="three"),
]


class TestAdapterOptionsWithoutAdapter:
    """An adapter option without ``--extractor adapter`` would be ignored,
    so it is refused, named, before any input is read or output written."""

    def assert_refused(self, code, capsys, named):
        assert code == 2
        printed, err = capsys.readouterr()
        assert err == f"error: {named} given without --extractor adapter\n"
        assert printed == ""

    @pytest.mark.parametrize("command", ["extract", "build"])
    @pytest.mark.parametrize("options,named", ADAPTER_ONLY_OPTIONS)
    def test_one_document_command(self, tmp_path, capsys, command, options, named):
        out = tmp_path / "out.json"
        code = run(command, "--doc", tmp_path / "missing.json", "--spec", FIXTURES / "specs" / "skirt.json",
                   "--out", out, *options)
        self.assert_refused(code, capsys, named)
        assert not out.exists()

    @pytest.mark.parametrize("options,named", ADAPTER_ONLY_OPTIONS)
    def test_score(self, workspace, capsys, options, named):
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--out", workspace["out"],
            *options,
        )
        self.assert_refused(code, capsys, named)
        assert not workspace["out"].exists()

    def test_checked_before_any_input_is_read(self, tmp_path, capsys):
        code = run("score", "--corpus", tmp_path / "no-corpus", "--grammars", tmp_path / "no-grammars",
                   "--specs", tmp_path / "no-specs", "--out", tmp_path / "out", "--adapter-fallback")
        self.assert_refused(code, capsys, "--adapter-fallback")


def write_repeating_corpus(corpus: Path) -> int:
    """The fixture doc and a linearization of every skirt and shirt gold
    tree, each with a permuted and an error-injected copy, so most step
    texts occur in several documents.  Returns the number of steps."""
    corpus.mkdir()
    specs = {name: load_spec(FIXTURES / "specs" / f"{name}.json") for name in ("skirt", "shirt")}
    docs = [load_doc(FIXTURES / "docs" / "skirt-demo.json")]
    for name, spec in specs.items():
        for index, text in enumerate(enumerate_gold_trees(load_grammar(name))):
            steps = linearize_gold_tree(parse_serialized(text), spec).steps
            docs.append(InstructionDoc(name, f"{name}-gold{index}", steps))
    plan = ErrorInjectionPlan(swap_adjacent=1, wrong_piece=1)
    for doc in list(docs):
        docs.extend(permute_doc(doc, 7, 1))
        corrupted, _ = inject_errors(doc, plan, 7, specs[doc.pattern_id])
        docs.append(InstructionDoc(doc.pattern_id, f"{doc.doc_id}-err", corrupted.steps))
    for doc in docs:
        (corpus / f"{doc.doc_id}.json").write_text(json.dumps(doc.to_json()))
    return sum(len(doc.steps) for doc in docs)


STEP = "Sew the Over Skirt (A) to the Under Skirt (B)."


def build_with_adapter(tmp_path: Path, steps: list[str], url: str, *options) -> int:
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"pattern_id": "skirt", "doc_id": "doc", "steps": steps}))
    return run(
        "build",
        "--doc", doc,
        "--spec", FIXTURES / "specs" / "skirt.json",
        "--extractor", "adapter", "--adapter-url", url, *options,
    )


def score_with_adapter(corpus: Path, out: Path, url: str, capsys) -> dict[str, bytes]:
    """``score`` of ``corpus`` through the backend at ``url``: every output
    file's bytes by its path under ``out``."""
    code = run(
        "score",
        "--corpus", corpus,
        "--grammars", FIXTURES / "grammars",
        "--specs", FIXTURES / "specs",
        "--out", out,
        "--extractor", "adapter", "--adapter-url", url,
    )
    assert code == 0, capsys.readouterr().err
    return files_under(out)


class TestAdapterMemo:
    def test_outputs_match_one_request_per_step(self, tmp_path, adapter_server, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        n_steps = write_repeating_corpus(corpus)
        memoized = score_with_adapter(corpus, tmp_path / "memo", adapter_server, capsys)
        posted = posted_requests()
        monkeypatch.setattr(sewtree.cli, "extract_once_per_run", lambda extract: extract)
        reference = score_with_adapter(corpus, tmp_path / "reference", adapter_server, capsys)

        assert memoized == reference
        assert len(reference) == 1 + len(list(corpus.iterdir()))
        per_step = posted_requests()[len(posted):]
        assert len(per_step) == n_steps
        assert len(posted) == len(set(posted)) < n_steps
        assert set(posted) == set(per_step)

    def test_repeated_step_keeps_its_own_step_index(self, tmp_path, adapter_server, capsys):
        steps = [STEP, "Sew the Waistband (C) to the Over Skirt (A).", STEP]
        assert build_with_adapter(tmp_path, steps, adapter_server) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == [
            [0, "AB -> A B"],
            [1, "ABC -> AB C"],
            [2, "ABC_1 -> ABC"],
        ]
        assert len(posted_requests()) == 2

    def test_timed_out_step_is_posted_again_under_fallback(self, tmp_path, adapter_server, capsys):
        _AdapterHandler.behavior = "slow"
        code = build_with_adapter(
            tmp_path, [STEP, STEP], adapter_server,
            "--adapter-fallback", "--adapter-timeout", "0.1", "--adapter-retries", "0",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [d[:2] for d in report["diagnostics"]] == [[0, "adapter-fallback"], [1, "adapter-fallback"]]
        assert wait_for_posts(2) == [(STEP, ("A", "B", "C"))] * 2

    def test_malformed_reply_exits_1_on_first_occurrence(self, tmp_path, adapter_server, capsys):
        _AdapterHandler.behavior = "bad-label"
        assert build_with_adapter(tmp_path, [STEP, STEP], adapter_server) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "not in the inventory" in err
        assert out == ""
        assert len(posted_requests()) == 1


def http_reply(status: bytes, *headers: bytes, body: bytes = b"") -> bytes:
    return b"\r\n".join([b"HTTP/1.0 " + status, *headers, b"", body])


AB_BODY = b'{"pieces": ["A", "B"]}'
AB_REPLY = http_reply(b"200 OK", b"Content-Length: %d" % len(AB_BODY), body=AB_BODY)
FALLBACK = [(), ("--adapter-fallback",)]


def assert_failed_attempt(code: int, capsys, fallback, reason: str = "") -> None:
    """The step's only attempt failed: exit 1 with ``reason`` in the
    message, or a fallback diagnostic."""
    out, err = capsys.readouterr()
    if fallback:
        assert code == 0, err
        assert [d[:2] for d in json.loads(out)["diagnostics"]] == [[0, "adapter-fallback"]]
    else:
        assert code == 1
        assert err.startswith("error: extraction backend unreachable") and reason in err
        assert out == ""


class TestAdapterTransport:
    """The HTTP/1.0 client against the ``urllib.request`` transport it
    replaced, and against a backend that replies with given bytes."""

    def test_outputs_and_requests_match_urllib(self, tmp_path, adapter_server, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        write_repeating_corpus(corpus)
        raw = score_with_adapter(corpus, tmp_path / "raw", adapter_server, capsys)
        posted = posted_requests()
        monkeypatch.setattr(sewtree.adapter, "_post", urllib_post)
        reference = score_with_adapter(corpus, tmp_path / "reference", adapter_server, capsys)
        assert raw == reference
        assert posted_requests()[len(posted):] == posted

    @pytest.mark.parametrize(
        "replies,options",
        [
            (
                [http_reply(b"503 Service Unavailable", b"Content-Length: 0"), AB_REPLY],
                ("--adapter-retries", "1"),
            ),
            ([http_reply(b"200 OK", body=AB_BODY)], ()),
        ],
        ids=["503-then-200", "200-to-eof"],
    )
    def test_reply_is_read(self, tmp_path, scripted_server, capsys, replies, options):
        scripted_server.replies = list(replies)
        assert build_with_adapter(tmp_path, [STEP], scripted_server.url, *options) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == [[0, "AB -> A B"]] and report["diagnostics"] == []
        assert len(scripted_server.requests) == len(replies)
        head = scripted_server.requests[0].split(b"\r\n\r\n")[0].split(b"\r\n")
        assert head[0] == b"POST /extract HTTP/1.0"
        assert b"Content-Type: application/json" in head[1:]

    @pytest.mark.parametrize("fallback", FALLBACK, ids=["strict", "fallback"])
    @pytest.mark.parametrize(
        "reply,reason",
        [
            (http_reply(b"302 Found", b"Location: /elsewhere", b"Content-Length: 0"), "302 Found"),
            (http_reply(b"200 OK", b"Content-Length: 40", body=AB_BODY), "22 of 40 bytes"),
            (
                http_reply(
                    b"200 OK",
                    b"Transfer-Encoding: chunked",
                    body=b"16\r\n" + AB_BODY + b"\r\n0\r\n\r\n",
                ),
                "transfer coding",
            ),
            (http_reply(b"200 OK", b"Content-Length: -1", body=AB_BODY), "bad Content-Length"),
            (b"HTTP/1.0 200 OK\r\nContent-Length: 22\r\n", "before the end of its headers"),
        ],
        ids=["redirect", "short-body", "chunked", "bad-length", "no-blank-line"],
    )
    def test_bad_reply_is_a_failed_attempt(
        self, tmp_path, scripted_server, capsys, reply, reason, fallback
    ):
        scripted_server.replies = [reply]
        code = build_with_adapter(
            tmp_path, [STEP], scripted_server.url, "--adapter-retries", "0", *fallback
        )
        assert_failed_attempt(code, capsys, fallback, reason)
        assert len(scripted_server.requests) == 1

    @pytest.mark.parametrize("fallback", FALLBACK, ids=["strict", "fallback"])
    def test_https_to_plain_http_is_a_failed_attempt(
        self, tmp_path, adapter_server, capsys, fallback
    ):
        url = adapter_server.replace("http://", "https://", 1)
        code = build_with_adapter(
            tmp_path, [STEP], url, "--adapter-retries", "0", "--adapter-timeout", "1", *fallback
        )
        assert_failed_attempt(code, capsys, fallback)

    def test_reply_with_length_ends_before_the_connection(self, tmp_path, scripted_server, capsys):
        scripted_server.replies = [AB_REPLY]
        scripted_server.hold_open = True
        start = time.monotonic()
        code = build_with_adapter(tmp_path, [STEP], scripted_server.url, "--adapter-timeout", "5")
        assert code == 0, capsys.readouterr().err
        assert time.monotonic() - start < 2.5


def mutated_reply(rng: SplitMix64) -> tuple[int, bytes]:
    """The kind of one seeded change to ``AB_REPLY``'s bytes and the reply
    it makes: cut inside its head (0) or body (1), a byte flipped in the
    status line (2), a header (3) or the ``Content-Length`` value (4), a
    body that is not UTF-8 (5), or a ``Content-Length`` thousands of digits
    long (6)."""
    head, _, body = AB_REPLY.partition(b"\r\n\r\n")
    status_end = head.index(b"\r\n")
    value_at = head.index(b"Content-Length: ") + len(b"Content-Length: ")
    reply = bytearray(AB_REPLY)
    kind = rng.randrange(7)
    if kind == 0:
        return kind, bytes(reply[:rng.randrange(len(head) + 4)])
    if kind == 1:
        return kind, bytes(reply[:len(head) + 4 + rng.randrange(len(body))])
    if kind in (2, 3, 4):
        low, high = [(0, status_end), (status_end, len(head)), (value_at, len(head))][kind - 2]
        reply[low + rng.randrange(high - low)] ^= 1 + rng.randrange(255)
        return kind, bytes(reply)
    if kind == 5:
        junk = bytes(0x80 + rng.randrange(128) for _ in range(1 + rng.randrange(len(body))))
        junk = body[:rng.randrange(len(body))] + junk
        return kind, http_reply(b"200 OK", b"Content-Length: %d" % len(junk), body=junk)
    digits = bytes(48 + rng.randrange(10) for _ in range(1000 + rng.randrange(9000)))
    if rng.randrange(2):
        digits = digits.translate(bytes.maketrans(b"123456789", b"000000000")) + b"22"
    return kind, http_reply(b"200 OK", b"Content-Length: " + digits, body=AB_BODY)


@pytest.mark.parametrize(
    "retries,fallback,expected",
    [(1, False, {"success", "retried"}), (0, False, {"success", "error"}),
     (0, True, {"success", "fallback"})],
    ids=["retry", "strict", "fallback"],
)
def test_mutated_reply_bytes_end_as_an_outcome_never_a_traceback(
    scripted_server, retries, fallback, expected
):
    """Seeded byte mutations of a valid reply, each followed by the valid
    reply: every post ends as a success, a failed attempt that is retried
    and then answered, a fallback, or an ``AdapterError``; any other
    exception fails the test.  A body that is not UTF-8 is named as such,
    by its first bytes."""
    spec = load_spec(FIXTURES / "specs" / "skirt.json")
    config = AdapterConfig(scripted_server.url, timeout=5.0, retries=retries, fallback_to_rules=fallback)
    outcomes = Counter()
    for seed in range(120):
        kind, reply = mutated_reply(SplitMix64(derive_seed(31, "reply", str(seed))))
        scripted_server.replies = [reply, AB_REPLY]
        scripted_server.requests.clear()
        try:
            result = extract_via_adapter(STEP, spec, config)
        except AdapterError as exc:
            # A line long: a Content-Length of thousands of digits is named
            # as bad, not by int()'s limit on digits.
            assert str(exc).startswith("extraction backend unreachable: ")
            assert "int_max_str_digits" not in str(exc) and len(str(exc)) < 200
            if kind == 5:
                body = reply.partition(b"\r\n\r\n")[2]
                reason = f"reply body is not UTF-8 JSON: {body[:80]!r}"
                assert str(exc) == f"extraction backend unreachable: {reason}"
                outcomes["not UTF-8"] += 1
            outcomes["error"] += 1
            continue
        if result.source == "fallback":
            outcomes["fallback"] += 1
        else:
            assert [str(p) for p in result.mentions] == ["A", "B"]
            outcomes["retried" if len(scripted_server.requests) == 2 else "success"] += 1
    assert set(outcomes) - {"not UTF-8"} == expected, outcomes
    assert ("not UTF-8" in outcomes) == ("error" in expected), outcomes


class TestRuleBasedMemo:
    """``score`` extracts each distinct (step, inventory) once per run with
    the rule-based extractor too."""

    def test_outputs_match_one_extraction_per_step(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        n_steps = write_repeating_corpus(corpus)
        calls = []
        extract = sewtree.cli.extract_pieces_rule_based

        def counted(step, spec):
            calls.append((step, spec.inventory))
            return extract(step, spec)

        def score(out: Path) -> dict[str, bytes]:
            code = run(
                "score",
                "--corpus", corpus,
                "--grammars", FIXTURES / "grammars",
                "--specs", FIXTURES / "specs",
                "--out", out,
            )
            assert code == 0, capsys.readouterr().err
            return files_under(out)

        monkeypatch.setattr(sewtree.cli, "extract_pieces_rule_based", counted)
        memoized = score(tmp_path / "memo")
        memo_calls = list(calls)
        monkeypatch.setattr(sewtree.cli, "extract_once_per_run", lambda extract: extract)
        reference = score(tmp_path / "reference")

        assert memoized == reference
        assert len(reference) == 1 + len(list(corpus.iterdir()))
        assert len(calls) - len(memo_calls) == n_steps
        assert len(memo_calls) == len(set(memo_calls)) < n_steps
        assert set(memo_calls) == set(calls[len(memo_calls):])

    def test_repeated_step_keeps_its_own_index_and_diagnostics(self, tmp_path, capsys):
        press = "Press the Over Skirt (A) and the Lining (Q) flat."
        sew = "Sew the Over Skirt (A) to the Under Skirt (B)."
        doc = tmp_path / "doc.json"
        steps = [press, sew, press, sew]
        doc.write_text(json.dumps({"pattern_id": "skirt", "doc_id": "doc", "steps": steps}))
        assert run("build", "--doc", doc, "--spec", FIXTURES / "specs" / "skirt.json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == [[1, "AB -> A B"], [3, "AB_1 -> AB"]]
        assert report["diagnostics"] == [
            [i, kind, message]
            for i in (0, 2)
            for kind, message in [
                ("unknown-label", "(Q) is not in the inventory"),
                ("no-attachment-verb", "ignored mentions [A]"),
            ]
        ]


class TestRepeatedMultiComponentStep:
    """A repeat of a three-component step gets the kept extraction, and
    each occurrence's subtrees and diagnostics carry its own position."""

    THREE = "Sew the Over Skirt (A), the Under Skirt (B) and the Waistband (C) to the Lining (Q)."
    STEPS = ["Press the fabric.", THREE, THREE]
    TRACE = [[1, "AB -> A B"], [1, "ABC -> AB C"], [2, "ABC_1 -> ABC"]]
    MULTI = [1, "multi-component", "3 components in one step, folding left to right"]

    def test_rule_based(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"pattern_id": "skirt", "doc_id": "doc", "steps": self.STEPS}))
        assert run("build", "--doc", doc, "--spec", FIXTURES / "specs" / "skirt.json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == self.TRACE
        unknown = "(Q) is not in the inventory"
        assert report["diagnostics"] == [
            [1, "unknown-label", unknown], self.MULTI, [2, "unknown-label", unknown]
        ]

    def test_adapter(self, tmp_path, adapter_server, capsys):
        assert build_with_adapter(tmp_path, self.STEPS, adapter_server) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == self.TRACE
        assert report["diagnostics"] == [self.MULTI]
        assert posted_requests() == [(step, ("A", "B", "C")) for step in self.STEPS[:2]]


ONE_DOC_COMMANDS = ["extract", "build", "inject-errors"]


def run_one_doc(command: str, doc: Path, spec: Path, out: Path) -> int:
    """``command``, one of ``ONE_DOC_COMMANDS``, on ``doc`` and ``spec``,
    writing to ``out``."""
    plan = ("--seed", "7", "--wrong-piece", "1") if command == "inject-errors" else ()
    return run(command, "--doc", doc, "--spec", spec, "--out", out, *plan)


class TestOneDocumentCommands:
    @pytest.mark.parametrize("command", ONE_DOC_COMMANDS)
    def test_doc_for_another_pattern_is_config_error(self, tmp_path, capsys, command):
        doc = tmp_path / "hat-1.json"
        doc.write_text(json.dumps(
            {"pattern_id": "hat", "doc_id": "hat-1", "steps": ["Sew the Over Skirt (A) to the Under Skirt (B)."]}
        ))
        spec = FIXTURES / "specs" / "skirt.json"
        out = tmp_path / "out.json"
        assert run_one_doc(command, doc, spec, out) == 2
        printed, err = capsys.readouterr()
        assert err.startswith("error: document hat-1 ") and "'hat'" in err
        assert str(spec) in err and "'skirt'" in err
        assert printed == "" and not out.exists()

    @pytest.mark.parametrize("command", ONE_DOC_COMMANDS)
    @pytest.mark.parametrize("kind", ["doc", "spec"])
    def test_json_nested_too_deeply_is_io_error(self, tmp_path, capsys, command, kind):
        doc, spec = FIXTURES / "docs" / "skirt-demo.json", FIXTURES / "specs" / "skirt.json"
        bad = tmp_path / f"{kind}.json"
        bad.write_text(" " + DEEP_JSON)
        out = tmp_path / "out.json"
        assert run_one_doc(command, *((bad, spec) if kind == "doc" else (doc, bad)), out) == 2
        printed, err = capsys.readouterr()
        assert err == f"error: {bad}: value nested too deeply: line 1 column 2 (char 1)\n"
        assert printed == "" and not out.exists()

    @pytest.mark.parametrize("command", ONE_DOC_COMMANDS)
    def test_spec_piece_name_that_is_not_a_string_is_validation_error(self, tmp_path, capsys, command):
        spec = tmp_path / "skirt.json"
        spec.write_text(json.dumps({"pattern_id": "skirt", "pieces": {"A": 5, "B": None, "C": ["x"]}}))
        out = tmp_path / "out.json"
        assert run_one_doc(command, FIXTURES / "docs" / "skirt-demo.json", spec, out) == 1
        printed, err = capsys.readouterr()
        assert err.startswith(f"error: {spec}: piece 'A': ")
        assert printed == "" and not out.exists()


class TestPermuteCli:
    def test_writes_k_docs(self, workspace, capsys):
        out = workspace["out"] / "perms"
        code = run(
            "permute",
            "--doc", workspace["corpus"] / "skirt-demo.json",
            "--seed", "42",
            "--k", "3",
            "--out", out,
        )
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_refused(self, tmp_path, capsys, k):
        out = tmp_path / "perms"
        doc = FIXTURES / "docs" / "skirt-demo.json"
        assert run("permute", "--doc", doc, "--seed", "1", "--k", k, "--out", out) == 1
        assert capsys.readouterr() == ("", f"error: --k must be >= 1, got {k}\n")
        assert not out.exists()


class TestInjectErrorsCli:
    def test_inject_and_report_count(self, workspace, capsys):
        out = workspace["out"] / "corrupted.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        code = run(
            "inject-errors",
            "--doc", workspace["corpus"] / "skirt-demo.json",
            "--spec", workspace["specs"] / "skirt.json",
            "--seed", "7",
            "--swap", "1",
            "--drop", "1",
            "--out", out,
        )
        assert code == 0
        assert "applied 2 edits" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert len(doc["steps"]) == 4

    def test_infeasible_plan_fails(self, workspace, tmp_path, capsys):
        doc = {"pattern_id": "skirt", "doc_id": "tiny", "steps": ["Sew (A) to (B)."]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code = run(
            "inject-errors",
            "--doc", path,
            "--spec", workspace["specs"] / "skirt.json",
            "--seed", "1",
            "--drop", "1",
            "--out", tmp_path / "o.json",
        )
        assert code == 1


class TestCorrelateCli:
    def test_correlate(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        errors = tmp_path / "errors.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["doc_id", "n_steps", "tree_f1"])
            for i in range(5):
                w.writerow([f"d{i}", 10, 1.0 - i / 10])
        with open(errors, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["doc_id", "errors"])
            for i in range(5):
                w.writerow([f"d{i}", i])
        code = run("correlate", "--scores", scores, "--errors", errors, "--columns", "tree_f1")
        assert code == 0
        assert "r=-1.0000" in capsys.readouterr().out

    def test_out_header_and_row_bytes(self, tmp_path, capsys):
        """The header is the result rows' keys, so its order is pinned here
        byte for byte, with one row under it."""
        scores = self.write_csv(tmp_path / "scores.csv", ["doc_id", "n_steps", "tree_f1"],
                                [["d0", 10, 1.0], ["d1", 10, 0.9], ["d2", 10, 0.7], ["d3", 10, 0.75]])
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"],
                                [[f"d{i}", i] for i in range(4)])
        out = tmp_path / "correlation.csv"
        assert run("correlate", "--scores", scores, "--errors", errors, "--out", out) == 0
        assert out.read_bytes() == b"column,n,r,t,p\ntree_f1,4,-0.890734,-2.771435,0.109266\n"

    def write_csv(self, path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return path

    @pytest.mark.parametrize("n_steps", ["0", "ten"])
    def test_bad_step_count_names_document(self, tmp_path, capsys, n_steps):
        scores = self.write_csv(tmp_path / "scores.csv", ["doc_id", "n_steps", "tree_f1"],
                                [["d0", 10, 1.0], ["d1", n_steps, 0.5], ["d2", 10, 0.2]])
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"],
                                [["d0", 0], ["d1", 1], ["d2", 2]])
        assert run("correlate", "--scores", scores, "--errors", errors) == 1
        err = capsys.readouterr().err
        assert "d1: n_steps" in err

    def test_missing_column_names_file_and_column(self, tmp_path, capsys):
        scores = self.write_csv(tmp_path / "scores.csv", ["doc_id", "n_steps", "tree_f1"],
                                [[f"d{i}", 10, i / 4] for i in range(3)])
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "count"],
                                [[f"d{i}", i] for i in range(3)])
        assert run("correlate", "--scores", scores, "--errors", errors) == 1
        err = capsys.readouterr().err
        assert str(errors) in err and "'errors'" in err

    @pytest.mark.parametrize("repeated", ["scores", "errors"])
    def test_repeated_doc_id_is_rejected(self, tmp_path, capsys, repeated):
        scores_rows = [[f"d{i}", 10, i / 4] for i in range(3)]
        errors_rows = [[f"d{i}", i] for i in range(3)]
        if repeated == "scores":
            scores_rows += [["d1", 10, 0.9]]
        else:
            errors_rows = [["a", i] for i in range(10)] + errors_rows
        scores = self.write_csv(tmp_path / "scores.csv", ["doc_id", "n_steps", "tree_f1"],
                                scores_rows)
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"], errors_rows)
        assert run("correlate", "--scores", scores, "--errors", errors) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        bad, doc_id = (scores, "'d1'") if repeated == "scores" else (errors, "'a'")
        assert str(bad) in captured.err and doc_id in captured.err

    @pytest.mark.parametrize(
        "columns,message",
        [
            (",", "no columns to correlate"),
            ("", "no columns to correlate"),
            ("tree_f1,tree_f1", "column 'tree_f1' named more than once"),
            ("tree_f1, bleu ,tree_f1", "column 'tree_f1' named more than once"),
        ],
        ids=["comma", "empty", "repeated", "repeated-apart"],
    )
    def test_no_column_or_a_repeated_one_is_rejected(self, tmp_path, capsys, columns, message):
        scores = self.write_csv(tmp_path / "scores.csv", ["doc_id", "n_steps", "tree_f1", "bleu"],
                                [[f"d{i}", 10, i / 4, i / 5] for i in range(5)])
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"],
                                [[f"d{i}", i] for i in range(5)])
        out = tmp_path / "r.csv"
        code = run("correlate", "--scores", scores, "--errors", errors, "--columns", columns,
                   "--out", out)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"], [["d0", 0]])
        assert run("correlate", "--scores", tmp_path / "absent.csv", "--errors", errors) == 2

    @pytest.mark.parametrize(
        "command,flag",
        [("correlate", "--scores"), ("aggregate-ratings", "--ratings")],
        ids=["correlate", "aggregate-ratings"],
    )
    def test_csv_that_is_not_utf8_is_named(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"doc_id,n_steps,tree_f1\nd\xff,10,1.0\n")
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"], [["d0", 0]])
        other = ("--errors", errors) if command == "correlate" else ("--out", tmp_path / "o.csv")
        assert run(command, flag, bad, *other) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "command,flag,text,lineno",
        [
            ("correlate", "--scores", "doc_id,n_steps,{long}\nd0,10,1.0\n", 1),
            ("correlate", "--scores", "doc_id,n_steps,tree_f1\nd0,10,1.0\nd1,10,{long}\n", 3),
            ("aggregate-ratings", "--ratings",
             "doc_id,step_index,question,rating\nd0,0,S1,4\nd0,1,{long},4\n", 3),
        ],
        ids=["correlate-header", "correlate-row", "aggregate-ratings-row"],
    )
    def test_field_over_the_csv_limit_names_the_line(self, tmp_path, capsys, command, flag,
                                                     text, lineno):
        bad = tmp_path / "bad.csv"
        bad.write_text(text.format(long="x" * (csv.field_size_limit() + 1)))
        errors = self.write_csv(tmp_path / "errors.csv", ["doc_id", "errors"], [["d0", 0]])
        out = tmp_path / "o.csv"
        other = ("--errors", errors) if command == "correlate" else ("--out", out)
        assert run(command, flag, bad, *other) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: {bad} line {lineno}: field larger than field limit"
            f" ({csv.field_size_limit()})\n"
        )


class TestRoundtripCli:
    def test_all_fixtures_pass(self, capsys):
        assert run("roundtrip", "--grammars", FIXTURES / "grammars") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_two_grammars_with_one_pattern_are_rejected(self, tmp_path, capsys):
        grammars = tmp_path / "grammars"
        shutil.copytree(FIXTURES / "grammars", grammars)
        shutil.copy(grammars / "skirt.grammar", grammars / "skirt-copy.grammar")
        assert run("roundtrip", "--grammars", grammars) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(grammars / "skirt.grammar") in captured.err
        assert str(grammars / "skirt-copy.grammar") in captured.err

    def test_unparsable_grammar_is_named(self, tmp_path, capsys):
        grammars, bad = grammars_with_an_unparsable_one(tmp_path)
        assert run("roundtrip", "--grammars", grammars) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {UNPARSABLE_MESSAGE}\n"

    def test_cap_option_removed(self):
        with pytest.raises(SystemExit) as exc:
            run("roundtrip", "--grammars", FIXTURES / "grammars", "--cap", "1")
        assert exc.value.code == 2

    def test_grammar_past_enumeration_cap_passes(self, tmp_path, capsys):
        grammars = tmp_path / "grammars"
        grammars.mkdir()
        (grammars / "wide.grammar").write_text(wide_grammar()[0])
        assert run("roundtrip", "--grammars", grammars) == 0
        assert capsys.readouterr().out == "wide: PASS\n"

    def test_never_enumerates_or_parses_gold_trees(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("roundtrip enumerated or parsed gold trees")

        # In every sewtree module that holds either name, imported or defined.
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sewtree"]:
            for name in ("enumerate_gold_trees", "parse_serialized"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert run("roundtrip", "--grammars", FIXTURES / "grammars") == 0
        assert capsys.readouterr().out.count(": PASS\n") == 6

    def test_invalid_grammar_is_named(self, tmp_path, capsys):
        grammars = tmp_path / "grammars"
        grammars.mkdir()
        shutil.copy(FIXTURES / "grammars" / "skirt.grammar", grammars)
        bad = grammars / "bad.grammar"
        bad.write_text("pattern: bad\npieces: A B C\nroots: ABC\nABC -> AB C\n")
        assert run("roundtrip", "--grammars", grammars) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: pattern 'bad': invalid grammar: "
            "AB: no rule expands this non-leaf label\n"
        )


CHAIN_LENGTH = 1200


def write_chain_grammar(directory: Path) -> Path:
    """Pieces A B and root AB_1200: ``AB -> A B`` under a chain of 1,200
    self-attachments, deeper than the interpreter's recursion limit."""
    lines = ["pattern: chain", "pieces: A B", f"roots: AB_{CHAIN_LENGTH}", "AB -> A B", "AB_1 -> AB"]
    lines += [f"AB_{i} -> AB_{i - 1}" for i in range(2, CHAIN_LENGTH + 1)]
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "chain.grammar"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestUnaryChain:
    def test_gen_gold(self, tmp_path, capsys):
        assert run("gen-gold", write_chain_grammar(tmp_path)) == 0
        (tree,) = json.loads(capsys.readouterr().out)["trees"]
        assert tree.startswith(f"(AB_{CHAIN_LENGTH} (AB_{CHAIN_LENGTH - 1} ")
        assert tree.endswith(" (AB A B)" + ")" * CHAIN_LENGTH)

    def test_roundtrip(self, tmp_path, capsys):
        write_chain_grammar(tmp_path / "grammars")
        assert run("roundtrip", "--grammars", tmp_path / "grammars") == 0
        assert capsys.readouterr().out == "chain: PASS\n"

    def test_score_linearized_document(self, tmp_path, capsys):
        grammar_path = write_chain_grammar(tmp_path / "grammars")
        grammar = parse_grammar(grammar_path.read_text())
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        (tree,) = gold_tree_oracle(grammar)
        doc = linearize_gold_tree(as_pair(tree), spec)
        assert len(doc.steps) == CHAIN_LENGTH + 1
        for name, payload in (("corpus", doc.to_json()), ("specs", spec.to_json())):
            (tmp_path / name).mkdir()
            (tmp_path / name / "chain.json").write_text(json.dumps(payload))
        code = run(
            "score",
            "--corpus", tmp_path / "corpus",
            "--grammars", tmp_path / "grammars",
            "--specs", tmp_path / "specs",
            "--out", tmp_path / "out",
        )
        assert code == 0, capsys.readouterr().err
        with open(tmp_path / "out" / "scores.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["n_steps"], row["tree_f1"]) == (str(CHAIN_LENGTH + 1), "1.000000")


class TestAggregateRatingsCli:
    def test_aggregate(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        with open(ratings, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["doc_id", "step_index", "question", "rating"])
            for i, r in enumerate((1, 3, 5)):
                w.writerow(["d", i, "S1", r])
        out = tmp_path / "summary.csv"
        assert run("aggregate-ratings", "--ratings", ratings, "--out", out) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["S1_mean"] == "3.000000"
        assert row["S1_above3"] == row["S1_below3"] == "0.333333"

    def test_malformed_row(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("doc_id,step_index,question,rating\nd,0,S1,9\n")
        assert run("aggregate-ratings", "--ratings", ratings, "--out", tmp_path / "o.csv") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "doc_id,step_index,question,rating\nd,0,S1,4\n\nd,1,S1,x\n",
            'doc_id,step_index,question,rating\n"d\nx",0,S1,4\nd,1,S1,x\n',
        ],
        ids=["blank-line", "quoted-newline"],
    )
    def test_bad_row_is_named_by_its_line_in_the_file(self, tmp_path, capsys, text):
        """A skipped blank line and a field spanning two lines each put the
        bad row on line 4, though it is the file's third record."""
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(text, newline="")
        out = tmp_path / "o.csv"
        assert run("aggregate-ratings", "--ratings", ratings, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: {ratings} line 4: invalid literal for int() with base 10: 'x'\n"
        )

    @pytest.mark.parametrize("text", ["x,y\n", ""], ids=["other-columns", "empty"])
    def test_file_without_its_columns_is_rejected(self, tmp_path, capsys, text):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(text)
        out = tmp_path / "o.csv"
        assert run("aggregate-ratings", "--ratings", ratings, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {ratings}: missing column 'doc_id'\n"

    def test_header_missing_one_column_names_it(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("doc_id,step_index,rating\nd,0,4\n")
        assert run("aggregate-ratings", "--ratings", ratings, "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == f"error: {ratings}: missing column 'question'\n"


BOM = "\ufeff".encode("utf-8")


def correlate_inputs(tmp_path):
    scores = "doc_id,n_steps,tree_f1\n" + "".join(f"d{i},10,{1 - i / 10}\n" for i in range(5))
    errors = "doc_id,errors\n" + "".join(f"d{i},{i * i}\n" for i in range(5))
    files = {tmp_path / "scores.csv": scores, tmp_path / "errors.csv": errors}
    return files, ["correlate", "--scores", tmp_path / "scores.csv", "--errors",
                   tmp_path / "errors.csv", "--columns", "tree_f1", "--out", tmp_path / "out"]


def ratings_inputs(tmp_path):
    ratings = "doc_id,step_index,question,rating\n" + "".join(
        f"d,{i},S1,{r}\n" for i, r in enumerate((1, 3, 5))
    )
    return {tmp_path / "ratings.csv": ratings}, [
        "aggregate-ratings", "--ratings", tmp_path / "ratings.csv", "--out", tmp_path / "out"
    ]


def grammar_inputs(tmp_path):
    grammar = (FIXTURES / "grammars" / "pants_combined.grammar").read_text(encoding="utf-8")
    path = tmp_path / "pants.grammar"
    return {path: grammar}, ["gen-gold", path, "--out", tmp_path / "out"]


def doc_and_spec_inputs(tmp_path):
    doc, spec = tmp_path / "doc.json", tmp_path / "spec.json"
    files = {doc: (FIXTURES / "docs" / "skirt-demo.json").read_text(encoding="utf-8"),
             spec: (FIXTURES / "specs" / "skirt.json").read_text(encoding="utf-8")}
    return files, ["build", "--doc", doc, "--spec", spec, "--out", tmp_path / "out"]


@pytest.mark.parametrize(
    "inputs", [correlate_inputs, ratings_inputs, grammar_inputs, doc_and_spec_inputs],
    ids=["correlate", "ratings", "grammar", "doc-and-spec"],
)
def test_a_leading_byte_order_mark_is_not_content(tmp_path, capsys, inputs):
    # Spreadsheet tools save CSVs with a UTF-8 byte-order mark; an input
    # file that starts with one gives what it gives without.
    files, argv = inputs(tmp_path)
    out = tmp_path / "out"
    results = []
    for prefix in (b"", BOM):
        for path, text in files.items():
            path.write_bytes(prefix + text.encode("utf-8"))
        code = run(*argv)
        results.append((code, capsys.readouterr(), out.read_bytes()))
        out.unlink()
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_a_byte_order_mark_after_the_first_is_content(tmp_path, capsys):
    grammar = tmp_path / "skirt.grammar"
    grammar.write_bytes(BOM * 2 + (FIXTURES / "grammars" / "skirt.grammar").read_bytes())
    assert run("validate-grammar", grammar) == 1
    # The fixture's first line is a comment, so what is left of it is U+FEFF.
    assert capsys.readouterr().out == f"{grammar}: INVALID\n  line 1: unrecognized line '\\ufeff'\n"


class TestDeterminism:
    def test_score_byte_identical_across_runs(self, workspace, tmp_path, capsys):
        outputs = []
        for index in range(2):
            out = tmp_path / f"run{index}"
            run(
                "score",
                "--corpus", workspace["corpus"],
                "--grammars", workspace["grammars"],
                "--specs", workspace["specs"],
                "--refs", workspace["refs"],
                "--out", out,
            )
            outputs.append((out / "scores.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_permute_byte_identical(self, workspace, tmp_path, capsys):
        blobs = []
        for index in range(2):
            out = tmp_path / f"p{index}"
            run(
                "permute",
                "--doc", workspace["corpus"] / "skirt-demo.json",
                "--seed", "42", "--k", "4", "--out", out,
            )
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.json"))))
        assert blobs[0] == blobs[1]


# Start-up cost of modules that ``import sewtree.cli`` does not need: the
# dataclass machinery (with inspect, ast, dis and tokenize) and hashlib,
# which only seed derivation uses.
SLOW_STDLIB_MODULES = {"dataclasses", "inspect", "hashlib", "_hashlib"}


def test_import_loads_no_third_party_modules():
    # Only what the import adds counts: with site, a .pth file may load
    # modules (inspect, typing) before sewtree is imported.
    code = (
        "import sys; before = set(sys.modules); import sewtree.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    for flags in [(), ("-S",)]:
        proc = run_fresh(*flags, "-c", code)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "sewtree.cli" in loaded
        assert loaded.isdisjoint({"scipy", "numpy", "requests", "urllib3"})
        # Only an adapter run needs a socket.
        assert loaded.isdisjoint({"socket", "http.client", "urllib.request", "email", "ssl"})
        assert loaded.isdisjoint(SLOW_STDLIB_MODULES | {"typing"}), flags


def test_adapter_run_loads_no_http_stack(adapter_server):
    proc = run_fresh(
        "-c",
        "import sys; from sewtree.cli import main; code = main(sys.argv[1:]); "
        "print(' '.join(sorted(sys.modules)), file=sys.stderr); sys.exit(code)",
        "build",
        "--doc", str(FIXTURES / "docs" / "skirt-demo.json"),
        "--spec", str(FIXTURES / "specs" / "skirt.json"),
        "--extractor", "adapter", "--adapter-url", adapter_server,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "socket" in loaded
    assert loaded.isdisjoint({"http.client", "urllib.request", "email", "ssl"})


# What ``gen-gold`` and ``validate-grammar`` load of the package, and what
# they must not load: the other commands' modules, and the codec module a
# byte-order mark would cost.
GRAMMAR_TIER = {"sewtree", "sewtree.cli", "sewtree.grammar", "sewtree.labels", "sewtree.tree"}
SCORING_TIER = {"sewtree.pipeline", "sewtree.experiments", "sewtree.metrics", "sewtree.rng",
                "sewtree.adapter", "csv", "encodings.utf_8_sig"}


def modules_after_main(*argv) -> set[str]:
    """The modules that ``import sewtree.cli`` and then ``main(argv)`` load
    in a fresh interpreter, where ``main`` must return 0; with no ``argv``,
    the import alone.  Modules loaded before the import, as the
    interpreter's start loads them, do not count."""
    code = "import sys; before = set(sys.modules); from sewtree.cli import main; "
    if argv:
        code += "assert main(sys.argv[1:]) == 0; "
    proc = run_fresh(
        "-c", code + "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)", *map(str, argv)
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("argv", [
    (),
    ("gen-gold", FIXTURES / "grammars" / "pants_combined.grammar"),
    ("validate-grammar", *sorted((FIXTURES / "grammars").glob("*.grammar"))),
], ids=["import", "gen-gold", "validate-grammar"])
def test_grammar_commands_load_only_the_grammar(argv):
    loaded = modules_after_main(*argv)
    assert {name for name in loaded if name.partition(".")[0] == "sewtree"} == GRAMMAR_TIER
    assert loaded.isdisjoint(SCORING_TIER)


def test_score_loads_the_scoring_modules(workspace):
    loaded = modules_after_main(
        "score", "--corpus", workspace["corpus"], "--grammars", workspace["grammars"],
        "--specs", workspace["specs"], "--out", workspace["out"],
    )
    assert {"sewtree.experiments", "sewtree.pipeline", "sewtree.adapter", "csv"} <= loaded


def test_every_global_name_cli_reads_is_bound():
    """A name that ``cli.py``'s functions read as a global is bound by the
    module body, is a builtin, or is one of ``_DEFERRED``'s, which are
    bound when a command needs them; and every deferred name is read.  So
    a name missing from the table fails here, not in a user's run."""
    path = Path(sewtree.cli.__file__)
    module = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}
    deferred = {name for names in sewtree.cli._DEFERRED.values() for name in names}
    read, tables = set(), list(module.get_children())
    while tables:
        table = tables.pop()
        read.update(s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced())
        tables += table.get_children()
    assert read - bound - deferred - set(dir(builtins)) == set()
    assert deferred - read == set()
    assert deferred & bound == set()


@pytest.mark.parametrize(
    "url,message",
    [("http://127.0.0.1:1/none", "unreachable"), ("file:///dev/null", "not an http(s) URL")],
    ids=["refused", "file-url"],
)
def test_failing_adapter_exits_1_without_fallback(url, message):
    proc = run_fresh(
        "-m", "sewtree.cli", "build",
        "--doc", str(FIXTURES / "docs" / "skirt-demo.json"),
        "--spec", str(FIXTURES / "specs" / "skirt.json"),
        "--extractor", "adapter", "--adapter-url", url,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestRun:
    """``run`` is the ``sewtree`` process: ``main``, then ``gc.freeze()``
    however ``main`` ended, then exit with its code."""

    @pytest.fixture()
    def freezes(self, monkeypatch):
        freezes = []
        monkeypatch.setattr(sewtree.cli.gc, "freeze", lambda: freezes.append(True))
        return freezes

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_freezes_then_exits_with_the_code_of_main(self, monkeypatch, freezes, code):
        monkeypatch.setattr(sewtree.cli, "main", lambda: code)
        with pytest.raises(SystemExit) as exc:
            sewtree.cli.run()
        assert exc.value.code == code
        assert freezes == [True]

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["validate-grammar", "--bogus", "x"], 2)],
                             ids=["help", "unknown-option"])
    def test_freezes_when_argparse_exits(self, monkeypatch, capsys, freezes, argv, code):
        monkeypatch.setattr(sys, "argv", ["sewtree", *argv])
        with pytest.raises(SystemExit) as exc:
            sewtree.cli.run()
        assert exc.value.code == code
        assert freezes == [True]


def one_run_of_each_command(tmp_path: Path) -> list[list]:
    """Arguments that run each command once on the fixtures, to success."""
    doc, spec = FIXTURES / "docs" / "skirt-demo.json", FIXTURES / "specs" / "skirt.json"
    grammars = FIXTURES / "grammars"
    scores, errors, ratings = tmp_path / "scores.csv", tmp_path / "errors.csv", tmp_path / "ratings.csv"
    scores.write_text("doc_id,n_steps,tree_f1\nd0,4,1.0\nd1,4,0.5\nd2,4,0.2\n")
    errors.write_text("doc_id,errors\nd0,0\nd1,1\nd2,3\n")
    ratings.write_text("doc_id,step_index,question,rating\nd0,0,S1,4\nd0,1,S1,2\n")
    return [
        ["gen-gold", grammars / "skirt.grammar"],
        ["validate-grammar", *sorted(grammars.glob("*.grammar"))],
        ["extract", "--doc", doc, "--spec", spec],
        ["build", "--doc", doc, "--spec", spec],
        ["score", "--corpus", FIXTURES / "docs", "--grammars", grammars, "--specs",
         FIXTURES / "specs", "--out", tmp_path / "run"],
        ["permute", "--doc", doc, "--seed", "1", "--k", "2", "--out", tmp_path / "perms"],
        ["inject-errors", "--doc", doc, "--spec", spec, "--seed", "1", "--swap", "1",
         "--out", tmp_path / "corrupted.json"],
        ["correlate", "--scores", scores, "--errors", errors],
        ["roundtrip", "--grammars", grammars],
        ["aggregate-ratings", "--ratings", ratings, "--out", tmp_path / "summary.csv"],
    ]


def parse_outcome(parse, argv: list[str]) -> tuple[str, str, object]:
    """Stdout, stderr and exit code of ``parse(argv)``, an argument parse
    that argparse ends by exiting (``None`` if it returns)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def parser_exits(tmp_path: Path) -> list[list[str]]:
    """Argument lists that argparse ends with help or an error: each
    command's ``--help``, its missing required arguments, an unknown
    ``--cap x`` (a bad value for ``gen-gold``) and an extra argument after
    a run's arguments (an option, since ``validate-grammar`` reads any
    other word as one more file); no arguments, ``-h``, an unknown command
    and ``score`` with an extra word."""
    cases = [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--help"], ["-h", "score"]]
    runs = [[str(a) for a in argv] for argv in one_run_of_each_command(tmp_path)]
    for argv in runs:
        cases += [[argv[0], "--help"], [argv[0]], [*argv, "--cap", "x"], [*argv, "--extra"]]
    return [*cases, [*runs[4], "extra"]]


def test_main_builds_only_the_named_command_and_prints_what_the_full_parser_prints(tmp_path, monkeypatch):
    """``main`` builds only the subparser its first argument names, and
    its help, usage, error texts and exit codes are the all-commands
    parser's, the command list in the top-level usage line included, which
    argparse wraps to the terminal's width, 80 and 200 columns here, as the
    Python version at hand wraps it."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    commands = "{" + ",".join(sewtree.cli.COMMANDS) + "}"
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)  # argparse wraps usage to the terminal's width
        usage = sewtree.cli.build_parser().format_usage()
        assert usage.startswith("usage: sewtree [-h]") and commands in usage, usage
        for argv in parser_exits(tmp_path):
            expected = parse_outcome(sewtree.cli.build_parser().parse_args, argv)
            assert expected[2] is not None, argv
            built.clear()
            assert parse_outcome(main, argv) == expected, argv
            names_command = bool(argv) and argv[0] in sewtree.cli.COMMANDS
            assert built == ([argv[0]] if names_command else list(sewtree.cli.COMMANDS)), argv
        _, err, code = parse_outcome(main, parser_exits(tmp_path)[-1])
        assert (code, err) == (2, usage + "sewtree: error: unrecognized arguments: extra\n")
        assert parse_outcome(main, []) == (
            "", usage + "sewtree: error: the following arguments are required: command\n", 2
        )


def test_no_command_reads_a_tree_text(tmp_path, monkeypatch):
    """Every tree text a command handles is one the program wrote, and no
    command reads one back: each runs once with ``parse_serialized``, which
    checks nothing, refused in every sewtree module that binds it."""
    # Load every module that binds the name, so that each is patched.
    import sewtree.experiments
    import sewtree.metrics

    def refuse(*args, **kwargs):
        raise AssertionError("a command read a tree text")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sewtree" and hasattr(module, "parse_serialized"):
            monkeypatch.setattr(module, "parse_serialized", refuse)
            patched.add(name)
    assert {"sewtree.tree", "sewtree.metrics"} <= patched
    for argv in one_run_of_each_command(tmp_path):
        assert run(*argv) == 0, argv


def test_main_never_freezes_the_heap(tmp_path, capsys):
    """In-process callers of ``main`` (the tests, the benchmark's tracer)
    keep every object in reach of the collector."""
    for argv in one_run_of_each_command(tmp_path):
        before = gc.get_freeze_count()
        assert run(*argv) == 0, argv
        assert gc.get_freeze_count() == before, argv


def in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def process_cases(tmp_path: Path) -> dict[str, tuple[list[str], int]]:
    bad = tmp_path / "bad.grammar"
    bad.write_text("pattern: bad\npieces: A B C\nroots: ABC\nAB -> A A\nCQ -> C Q\n")
    splits = tmp_path / "splits.grammar"
    splits.write_text("pattern: splits\npieces: A B C D E F\nroots: ABCDEF\n"
                      + "".join(f"{line}\n" for line in split_rules("ABCDEF")))
    out = tmp_path / "out"
    common = ["--grammars", str(FIXTURES / "grammars"), "--specs", str(FIXTURES / "specs"), "--out", str(out)]
    return {
        "score-refs": (["score", "--corpus", str(FIXTURES / "docs"), "--refs", str(FIXTURES / "docs"),
                        *common], 0),
        # 945 trees, about 50 KB through the buffered stdout.
        "gen-gold-stdout": (["gen-gold", str(splits)], 0),
        "invalid-grammar": (["validate-grammar", str(bad)], 1),
        "missing-corpus": (["score", "--corpus", str(tmp_path / "none"), *common], 2),
        "unknown-option": (["validate-grammar", "--bogus", str(bad)], 2),
    }


@pytest.mark.parametrize("case", ["score-refs", "gen-gold-stdout", "invalid-grammar", "missing-corpus",
                                  "unknown-option"])
def test_process_exits_as_main_returns(tmp_path, capsys, case):
    """``python -m sewtree.cli`` (``run``) gives the exit code, stdout,
    stderr and files that ``main`` gives in-process: freezing the heap
    before shutdown loses no output."""
    argv, code = process_cases(tmp_path)[case]
    out = tmp_path / "out"
    expected = (*in_process(argv, capsys), files_under(out) if out.exists() else None)
    shutil.rmtree(out, ignore_errors=True)
    proc = run_fresh("-m", "sewtree.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr, files_under(out) if out.exists() else None) == expected
    assert expected[0] == code
    if case == "gen-gold-stdout":
        assert len(json.loads(proc.stdout)["trees"]) == 945


def test_process_freezes_its_heap_before_exit():
    """Run as a module, ``sewtree.cli`` exits through ``run``: by the time
    ``atexit`` handlers run, the heap is frozen, and they still run."""
    proc = run_fresh(
        "-c",
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        "sys.argv = ['sewtree', *sys.argv[1:]]; runpy.run_module('sewtree.cli', run_name='__main__')",
        "validate-grammar", str(FIXTURES / "grammars" / "skirt.grammar"),
    )
    assert proc.returncode == 0
    assert proc.stdout == f"{FIXTURES / 'grammars' / 'skirt.grammar'}: OK\n"
    assert proc.stderr == "frozen True\n"
