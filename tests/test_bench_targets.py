"""The benchmark's tracer wraps functions by module and name.  A name that
no longer resolves is skipped there and its per-layer metric reads 0, so a
rename in ``sewtree`` must fail here instead; so must a change of what the
wrapped functions take, which the tracer's count hooks read."""

import importlib
import json
import shutil
import types
from pathlib import Path

import pytest

from sewtree.experiments import join_steps
from sewtree.grammar import enumerate_gold_trees
from sewtree.metrics import tokenize
from sewtree.pipeline import InstructionDoc, linearize_gold_tree, load_doc, load_spec
from sewtree.tree import parse_serialized

from conftest import FIXTURES, GRAMMAR_NAMES, load_grammar
from helpers import run_fresh

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_traced() -> types.ModuleType:
    """``perfbench/traced.py``, run from its source: nothing is written beside it."""
    module = types.ModuleType("traced")
    exec(compile(TRACED.read_text(encoding="utf-8"), str(TRACED), "exec"), module.__dict__)
    return module


def wrap_targets() -> list[tuple[str, str]]:
    traced = load_traced()
    return [
        *((module, name) for module, name, _ in traced.TARGETS),
        traced.ADAPTER_TARGET,
        # read after main() returns, for the derivation and LCS-cell counts
        ("sewtree.grammar", "count_derivations"),
        ("sewtree.metrics", "tokenize"),
    ]


@pytest.mark.parametrize("module,name", wrap_targets())
def test_wrap_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_traced_score_run_sees_every_layer(tmp_path):
    """A traced ``score --refs`` run on the fixtures, in a fresh
    interpreter: every target resolves, grammar parsing, loading, the text
    metrics, extraction and forest build take time, and the counts match
    the inputs."""
    corpus, refs = tmp_path / "corpus", tmp_path / "refs"
    corpus.mkdir()
    refs.mkdir()
    shutil.copy(FIXTURES / "docs" / "skirt-demo.json", corpus)
    pairs = []
    for name in ("skirt", "shirt"):
        spec = load_spec(FIXTURES / "specs" / f"{name}.json")
        texts = enumerate_gold_trees(load_grammar(name))
        ref = linearize_gold_tree(parse_serialized(texts[0]), spec)
        (refs / f"{name}.json").write_text(json.dumps(ref.to_json()))
        doc = linearize_gold_tree(parse_serialized(texts[-1]), spec)
        doc = InstructionDoc(name, f"{name}-last", doc.steps)
        (corpus / f"{doc.doc_id}.json").write_text(json.dumps(doc.to_json()))
    docs = [load_doc(path) for path in sorted(corpus.iterdir())]
    references = {ref.pattern_id: ref for ref in map(load_doc, refs.iterdir())}

    report = tmp_path / "trace.json"
    proc = run_fresh(
        str(TRACED), "--trace", "1", "--report", str(report), "--",
        "score", "--corpus", str(corpus), "--grammars", str(FIXTURES / "grammars"),
        "--specs", str(FIXTURES / "specs"), "--refs", str(refs), "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["exit"] == 0 and result["absent"] == []
    layers = result["layers"]
    for layer in ("grammar.parse_s", "pipeline.load_s", "metrics.bleu_s", "metrics.rouge_l_s",
                  "pipeline.extract_s", "pipeline.build_s"):
        assert layers[layer] > 0, layer
    assert layers["grammar.rules"] == sum(len(load_grammar(name).rules) for name in GRAMMAR_NAMES)
    assert layers["pipeline.steps"] == sum(len(doc.steps) for doc in docs)
    assert layers["metrics.rouge_lcs_cells"] == sum(
        len(tokenize(join_steps(doc))) * len(tokenize(join_steps(references[doc.pattern_id])))
        for doc in docs
    )


def test_traced_gen_gold_run_counts_every_gold_tree(tmp_path):
    """A traced ``gen-gold`` run in a fresh interpreter: enumeration takes
    time, and the gold trees it counts are the grammar's derivations."""
    grammar = FIXTURES / "grammars" / "pants_combined.grammar"
    report = tmp_path / "trace.json"
    proc = run_fresh(
        str(TRACED), "--trace", "1", "--report", str(report), "--",
        "gen-gold", str(grammar), "--out", str(tmp_path / "gold.json"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["exit"] == 0 and result["absent"] == []
    layers = result["layers"]
    assert layers["grammar.enumerate_s"] > 0
    trees = len(enumerate_gold_trees(load_grammar("pants_combined")))
    assert layers["grammar.gold_trees"] == layers["grammar.derivations"] == trees == 4
