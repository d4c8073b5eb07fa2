"""Output checks that hold for any seed, plus values recorded at one seed.

Checks read ``scores.csv`` by column name and ignore columns the roadmap may
change or drop (``best_gold_index``, ``bert_score``, ``pattern_id``), so they
do not depend on byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from sewtree.experiments import score_document
from sewtree.grammar import enumerate_gold_trees

CHECKED_COLUMNS = ("n_steps", "tree_f1", "tree_precision", "tree_recall", "bleu",
                   "rouge_l", "diagnostics_count")
TREE_COLUMNS = ("tree_f1", "tree_precision", "tree_recall")
TOLERANCE = 1e-6


def _value(text: str):
    return None if text == "" else float(text)


def _differs(a, b) -> bool:
    if a is None or b is None:
        return a is not b
    return abs(a - b) > TOLERANCE


def read_scores(path: Path) -> dict[str, dict]:
    """``scores.csv`` as {doc_id: {column: float or None}} for the checked columns."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            row["doc_id"]: {c: _value(row[c]) for c in CHECKED_COLUMNS}
            for row in csv.DictReader(fh)
        }


def check_scores(workload, rows: dict[str, dict], recorded: dict | None = None,
                 tree_oracle: dict | None = None) -> list[str]:
    """Problems with one ``score`` output; empty when it passes.

    Known answers for any seed: every document is scored once with its step
    count; linearizations of gold trees score tree F1 = 1; a document equal
    to its reference scores BLEU = ROUGE-L = 1.  ``recorded`` holds the
    values recorded for this workload's inputs, ``tree_oracle`` the tree
    columns of the rule-based run on the same documents.
    """
    problems = []
    expected_ids = {d.doc_id for d in workload.docs}
    if set(rows) != expected_ids:
        missing = sorted(expected_ids - set(rows))[:3]
        extra = sorted(set(rows) - expected_ids)[:3]
        return [f"documents differ: missing {missing}, unexpected {extra}"]
    for doc in workload.docs:
        row = rows[doc.doc_id]
        if row["n_steps"] != len(doc.steps):
            problems.append(f"{doc.doc_id}: n_steps {row['n_steps']} != {len(doc.steps)}")
        if doc.doc_id in workload.exact_tree and _differs(row["tree_f1"], 1.0):
            problems.append(f"{doc.doc_id}: linearized gold tree scored tree_f1 {row['tree_f1']}")
        if doc.doc_id in workload.exact_text:
            for column in ("bleu", "rouge_l"):
                if _differs(row[column], 1.0):
                    problems.append(f"{doc.doc_id}: copy of the reference scored {column} {row[column]}")
    for name, table, columns in (("recorded", recorded, CHECKED_COLUMNS),
                                 ("rule-based", tree_oracle, TREE_COLUMNS)):
        if table is None:
            continue
        for doc_id, want in table.items():
            for column in columns:
                if _differs(rows[doc_id][column], want[column]):
                    problems.append(f"{doc_id}: {column} {rows[doc_id][column]} != {name} {want[column]}")
    return problems


def gold_summary(trees: list[str]) -> dict:
    return {"trees": len(trees),
            "sha256": hashlib.sha256("\n".join(trees).encode()).hexdigest()}


def check_gold(workload, trees: list[str], recorded: dict | None = None) -> list[str]:
    """Problems with one ``gen-gold`` tree list: it must be sorted, unique
    and as long as the grammar's derivation count."""
    problems = []
    if any(a >= b for a, b in zip(trees, trees[1:])):
        problems.append("tree list is not sorted and unique")
    if len(trees) != workload.derivations:
        problems.append(f"{len(trees)} trees, grammar derives {workload.derivations}")
    if recorded is not None and gold_summary(trees) != recorded:
        problems.append(f"tree list {gold_summary(trees)} != recorded {recorded}")
    return problems


def rule_based_tree_columns(workload) -> dict[str, dict]:
    """Tree columns of rule-based extraction on the workload's documents,
    scored in this process through the library."""
    gold = {p.grammar.pattern_id: enumerate_gold_trees(p.grammar) for p in workload.patterns}
    specs = {p.spec.pattern_id: p.spec for p in workload.patterns}
    out = {}
    for doc in workload.docs:
        row, _ = score_document(doc, gold[doc.pattern_id], specs[doc.pattern_id])
        out[doc.doc_id] = {c: row[c] for c in TREE_COLUMNS}
    return out
