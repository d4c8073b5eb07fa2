import csv
import itertools
import json
import shutil
from pathlib import Path

import pytest

import sewtree.cli
import sewtree.grammar
import sewtree.tree
from sewtree.adapter import MAX_TIMEOUT_S
from sewtree.cli import main
from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc
from sewtree.grammar import DEFAULT_CAP, count_derivations, enumerate_gold_trees, parse_grammar
from sewtree.labels import parse_piece_label
from sewtree.pipeline import InstructionDoc, linearize_gold_tree, load_doc, load_spec, placeholder_spec
from sewtree.tree import parse_serialized

from conftest import FIXTURES, _AdapterHandler, load_grammar, posted_requests, wait_for_posts
from helpers import (
    as_pair,
    binary,
    gold_tree_oracle,
    leaf,
    per_step_adapter_extractor,
    run_fresh,
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
        code = run("gen-gold", FIXTURES / "grammars" / "pants_combined.grammar", "--cap", "3")
        assert code == 1

    def test_missing_file_is_config_error(self, capsys):
        assert run("gen-gold", "/nonexistent/x.grammar") == 2
        assert capsys.readouterr().err.count("/nonexistent/x.grammar") == 1

    def test_unparsable_grammar_is_named(self, tmp_path, capsys):
        bad = write_unparsable_grammar(tmp_path)
        assert run("gen-gold", bad) == 1
        assert capsys.readouterr().err == f"error: {bad}: {UNPARSABLE_MESSAGE}\n"


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
        # Five blocks of four pieces, each block assembled in any of its 15
        # binary trees, then the blocks joined in a fixed chain: 15**5
        # derivations, far past the cap, from 129 rules.
        pieces = [chr(ord("A") + i) for i in range(20)]
        blocks = [pieces[i:i + 4] for i in range(0, 20, 4)]
        lines = ["pattern: wide", "pieces: " + " ".join(pieces), "roots: " + "".join(pieces)]
        for block in blocks:
            for size in (2, 3, 4):
                for first, *others in itertools.combinations(block, size):
                    # every split of the subset into two parts, once each
                    for k in range(size - 1):
                        for rest in itertools.combinations(others, k):
                            right = "".join(p for p in others if p not in rest)
                            lines.append(f"{first}{''.join(others)} -> {first}{''.join(rest)} {right}")
        for i in range(1, len(blocks)):
            joined = "".join(p for b in blocks[:i] for p in b)
            lines.append(f"{joined}{''.join(blocks[i])} -> {joined} {''.join(blocks[i])}")
        text = "\n".join(lines) + "\n"
        grammar = parse_grammar(text)
        assert sum(count_derivations(grammar).values()) == 15**5 > DEFAULT_CAP

        for name in ("corpus", "grammars", "specs"):
            (tmp_path / name).mkdir()
        (tmp_path / "grammars" / "wide.grammar").write_text(text)
        spec = placeholder_spec("wide", grammar.inventory)
        (tmp_path / "specs" / "wide.json").write_text(json.dumps(spec.to_json()))
        tree = None
        for block in blocks:
            sub = leaf(parse_piece_label(block[0]))
            for piece in block[1:]:
                sub = binary(sub, leaf(parse_piece_label(piece)))
            tree = sub if tree is None else binary(tree, sub)
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
        code = run(
            "score",
            "--corpus", workspace["corpus"],
            "--grammars", workspace["grammars"],
            "--specs", workspace["specs"],
            "--out", workspace["out"],
            "--extractor", "adapter", "--adapter-url", "file:///dev/null", *fallback,
        )
        assert code == 1
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


class TestAdapterMemo:
    STEP = "Sew the Over Skirt (A) to the Under Skirt (B)."

    def build(self, tmp_path: Path, steps: list[str], url: str, *options) -> int:
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"pattern_id": "skirt", "doc_id": "doc", "steps": steps}))
        return run(
            "build",
            "--doc", doc,
            "--spec", FIXTURES / "specs" / "skirt.json",
            "--extractor", "adapter", "--adapter-url", url, *options,
        )

    def test_outputs_match_one_request_per_step(self, tmp_path, adapter_server, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        n_steps = write_repeating_corpus(corpus)

        def score(out: Path) -> dict[str, bytes]:
            code = run(
                "score",
                "--corpus", corpus,
                "--grammars", FIXTURES / "grammars",
                "--specs", FIXTURES / "specs",
                "--out", out,
                "--extractor", "adapter", "--adapter-url", adapter_server,
            )
            assert code == 0, capsys.readouterr().err
            return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        memoized = score(tmp_path / "memo")
        posted = posted_requests()
        monkeypatch.setattr(sewtree.cli, "make_adapter_extractor", per_step_adapter_extractor)
        reference = score(tmp_path / "reference")

        assert memoized == reference
        assert len(reference) == 1 + len(list(corpus.iterdir()))
        per_step = posted_requests()[len(posted):]
        assert len(per_step) == n_steps
        assert len(posted) == len(set(posted)) < n_steps
        assert set(posted) == set(per_step)

    def test_repeated_step_keeps_its_own_step_index(self, tmp_path, adapter_server, capsys):
        steps = [self.STEP, "Sew the Waistband (C) to the Over Skirt (A).", self.STEP]
        assert self.build(tmp_path, steps, adapter_server) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subtree_trace"] == [
            [0, "AB -> A B"],
            [1, "ABC -> AB C"],
            [2, "ABC_1 -> ABC"],
        ]
        assert len(posted_requests()) == 2

    def test_timed_out_step_is_posted_again_under_fallback(self, tmp_path, adapter_server, capsys):
        _AdapterHandler.behavior = "slow"
        code = self.build(
            tmp_path, [self.STEP, self.STEP], adapter_server,
            "--adapter-fallback", "--adapter-timeout", "0.1", "--adapter-retries", "0",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [d[:2] for d in report["diagnostics"]] == [[0, "adapter-fallback"], [1, "adapter-fallback"]]
        assert wait_for_posts(2) == [(self.STEP, ("A", "B", "C"))] * 2

    def test_malformed_reply_exits_1_on_first_occurrence(self, tmp_path, adapter_server, capsys):
        _AdapterHandler.behavior = "bad-label"
        assert self.build(tmp_path, [self.STEP, self.STEP], adapter_server) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "not in the inventory" in err
        assert out == ""
        assert len(posted_requests()) == 1


class TestRuleBasedMemo:
    """``score`` extracts each distinct (step, inventory) once per run with
    the rule-based extractor too."""

    def test_outputs_match_one_extraction_per_step(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        n_steps = write_repeating_corpus(corpus)
        calls = []
        extract = sewtree.cli.extract_pieces_rule_based

        def counted(step, spec, step_index=0):
            calls.append((step, spec.inventory))
            return extract(step, spec, step_index=step_index)

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


class TestRoundtripCli:
    def test_all_fixtures_pass(self, capsys):
        assert run("roundtrip", "--grammars", FIXTURES / "grammars") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_two_grammars_with_one_pattern_are_rejected(self, tmp_path, capsys):
        grammars = tmp_path / "grammars"
        shutil.copytree(FIXTURES / "grammars", grammars)
        shutil.copy(grammars / "skirt.grammar", grammars / "skirt-copy.txt")
        assert run("roundtrip", "--grammars", grammars) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(grammars / "skirt.grammar") in captured.err
        assert str(grammars / "skirt-copy.txt") in captured.err

    def test_unparsable_grammar_is_named(self, tmp_path, capsys):
        grammars, bad = grammars_with_an_unparsable_one(tmp_path)
        assert run("roundtrip", "--grammars", grammars) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {UNPARSABLE_MESSAGE}\n"

    def test_grammar_over_the_cap_is_named(self, capsys):
        grammars = FIXTURES / "grammars"
        assert run("roundtrip", "--grammars", grammars, "--cap", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # jumpsuit sorts first, and derives 4 trees
        assert captured.err == (
            f"error: {grammars / 'jumpsuit.grammar'}: pattern 'jumpsuit': "
            "grammar derives 4 trees, cap is 1\n"
        )

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
        # Only an adapter run needs the HTTP stack.
        assert loaded.isdisjoint({"http.client", "urllib.request", "email", "ssl"})
        assert loaded.isdisjoint(SLOW_STDLIB_MODULES), flags
        if flags:
            # Without site, no .pth file has loaded typing before sewtree does.
            assert "typing" not in loaded


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
