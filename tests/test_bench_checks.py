"""The benchmark checks each ``score`` run against
``perfbench/checks.py::rule_based_tree_columns``: the tree columns of
``score_document`` over the enumerated gold texts, which ``tree_score``
parses and scores.  On the same documents they must equal the columns of
``score_document`` over the grammar, which ``grammar_score``'s DP scores
and the CLI writes.

The benchmark's inputs come from ``perfbench/workloads.py``, which draws
them through ``synth`` and ``linearize_gold_tree``; at seed 1 they must
hash to the digests recorded in ``perfbench/expected.json``."""

import json
import sys
import types
from pathlib import Path

import pytest

from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc, score_document
from sewtree.grammar import enumerate_gold_trees
from sewtree.pipeline import InstructionDoc, PatternSpec, linearize_gold_tree, placeholder_spec
from sewtree.tree import parse_serialized

from conftest import FIXTURES, GRAMMAR_NAMES, load_grammar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PLANS = (
    ErrorInjectionPlan(swap_adjacent=1),
    ErrorInjectionPlan(drop_step=1),
    ErrorInjectionPlan(wrong_piece=1),
)


def load_perfbench(name: str) -> types.ModuleType:
    """``perfbench/<name>.py``, run from its source: nothing is written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    # ``dataclass`` looks the defining module up by name while it runs.
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def fixture_workload() -> types.SimpleNamespace:
    """The fixture grammars, each with its spec, and documents made from
    their first gold trees: linearized, permuted and error-injected."""
    patterns, docs = [], []
    for name in GRAMMAR_NAMES:
        grammar = load_grammar(name)
        spec_path = FIXTURES / "specs" / f"{grammar.pattern_id}.json"
        if spec_path.exists():
            spec = PatternSpec.from_json(json.loads(spec_path.read_text()))
        else:
            spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        patterns.append(types.SimpleNamespace(grammar=grammar, spec=spec))
        for index, text in enumerate(enumerate_gold_trees(grammar)[:3]):
            lin = linearize_gold_tree(parse_serialized(text), spec)
            lin = InstructionDoc(lin.pattern_id, f"{lin.doc_id}-{index}", lin.steps)
            docs += [lin, *permute_doc(lin, index, 1)]
            for k, plan in enumerate(PLANS):
                if plan.drop_step + plan.swap_adjacent < len(lin.steps):
                    bad, _ = inject_errors(lin, plan, index, spec)
                    docs.append(InstructionDoc(bad.pattern_id, f"{bad.doc_id}-err{k}", bad.steps))
    docs.append(InstructionDoc.from_json(json.loads((FIXTURES / "docs" / "skirt-demo.json").read_text())))
    return types.SimpleNamespace(patterns=patterns, docs=docs)


def test_rule_based_tree_columns_equal_the_grammar_dp():
    checks = load_perfbench("checks")
    workload = fixture_workload()
    columns = checks.rule_based_tree_columns(workload)
    assert set(columns) == {doc.doc_id for doc in workload.docs}
    by_pattern = {p.grammar.pattern_id: p for p in workload.patterns}
    for doc in workload.docs:
        pattern = by_pattern[doc.pattern_id]
        row, _ = score_document(doc, pattern.grammar, pattern.spec)
        assert columns[doc.doc_id] == {c: row[c] for c in checks.TREE_COLUMNS}, doc.doc_id
    f1s = [c["tree_f1"] for c in columns.values()]
    assert 1.0 in f1s and min(f1s) < 1.0


RECORDED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_generated_inputs_match_recorded_digest(name):
    assert RECORDED["seed"] == 1
    assert WORKLOADS.generate(name, 1).digest == RECORDED["workloads"][name]["inputs_sha256"]
