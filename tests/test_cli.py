import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as hs

import sewtree.adapter
import sewtree.cli
import sewtree.grammar
import sewtree.tree
from sewtree.adapter import MAX_TIMEOUT_S
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
from sewtree.pipeline import InstructionDoc, linearize_gold_tree, load_doc, load_spec, placeholder_spec
from sewtree.rng import SplitMix64
from sewtree.synth import grammar_to_text, random_grammar
from sewtree.tree import TreeError, parse_serialized

from conftest import FIXTURES, GRAMMAR_NAMES, _AdapterHandler, load_grammar, posted_requests, wait_for_posts
from helpers import (
    as_pair,
    gold_tree_oracle,
    run_fresh,
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


UNPARSABLE_MESSAGE = "line 4: AB -> A A: children share pieces"

# A JSON value nested deeper than the decoder's recursion allows.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def write_unparsable_grammar(directory: Path) -> Path:
    """A grammar file whose fourth line fails to parse with UNPARSABLE_MESSAGE."""
    path = directory / "bad.grammar"
    path.write_text("pattern: bad\npieces: A B\nroots: AB\nAB -> A A\n")
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

    def test_grammar_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.grammar"
        bad.write_bytes(b"pattern: x\npieces: A B\nroots: AB\nAB -> A B # \xff\n")
        assert run("validate-grammar", bad) == 2
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and "can't decode byte 0xff" in err


DEAD_RULE = "AB_2 -> AB_1"


@pytest.mark.parametrize("command", ["validate-grammar", "gen-gold", "score", "roundtrip"])
def test_rule_no_root_reaches_is_refused(workspace, tmp_path, capsys, command):
    # The skirt grammar with one more valid rule, whose parent no root
    # reaches.  It sorts after the other five, so the refusal comes before
    # any output only if the grammars are checked as they are read.
    grammars = tmp_path / "grammars"
    shutil.copytree(FIXTURES / "grammars", grammars)
    bad = grammars / "skirt.grammar"
    bad.write_text(bad.read_text() + DEAD_RULE + "\n")
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
    message = f"{DEAD_RULE}: no root reaches this rule"
    if command == "validate-grammar":
        assert captured.out == f"{bad}: INVALID\n  {message}\n"
    else:
        assert captured.out == ""
        assert captured.err == f"error: {bad}: pattern 'skirt': invalid grammar: {message}\n"
    assert not gold.exists() and not workspace["out"].exists()


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


@pytest.mark.parametrize("error", [GrammarError, TreeError, LabelError, ValueError])
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
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


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
            return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

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
    for flags in [(), ("-S",)]:
        proc = run_fresh(*flags, "-c", "import sys, sewtree.cli; print(' '.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "sewtree.cli" in loaded
        assert loaded.isdisjoint({"scipy", "numpy", "requests", "urllib3"})
        # Only an adapter run needs a socket.
        assert loaded.isdisjoint({"socket", "http.client", "urllib.request", "email", "ssl"})
        assert loaded.isdisjoint(SLOW_STDLIB_MODULES), flags
        if flags:
            # Without site, no .pth file has loaded typing before sewtree does.
            assert "typing" not in loaded


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
