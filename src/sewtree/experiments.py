"""Experiment harness: scoring, permutation, error injection, correlation,
round-trips, and rating aggregation."""

from __future__ import annotations

import math
from collections.abc import Sequence

from .grammar import GoldGrammar
from .metrics import (
    bleu,
    grammar_score,
    pearson,
    rouge_l,
    tree_score,
)
from .pipeline import (
    BuildReport,
    InstructionDoc,
    PatternSpec,
    apply_step,
    build_forest,
    extract_document,
    extract_pieces_rule_based,
    piece_mentions,
    placeholder_spec,
    resolve_components,
    write_step,
)
from .rng import SplitMix64, derive_seed
from .tree import rule_text


def join_steps(doc: InstructionDoc) -> str:
    return "\n".join(doc.steps)


def score_document(
    doc: InstructionDoc,
    gold: GoldGrammar | Sequence[str],
    spec: PatternSpec,
    reference: InstructionDoc | None = None,
    extractor=None,
) -> tuple[dict, BuildReport]:
    """One scores-CSV row (as a dict, whose keys in order are the CSV's
    columns) plus the underlying build report.

    ``gold`` is a grammar, scored with :func:`grammar_score`, or the
    sorted canonical texts of its gold trees, scored with :func:`tree_score`;
    both give the same row.
    """
    if not doc.steps:
        raise ValueError(f"document {doc.doc_id} has no steps")
    extractions = extract_document(doc, spec, extractor)
    report = build_forest(doc, extractions, spec)
    scorer = grammar_score if isinstance(gold, GoldGrammar) else tree_score
    breakdown = scorer(report.subtrees(), gold)
    row = {
        "doc_id": doc.doc_id,
        "pattern_id": doc.pattern_id,
        "n_steps": len(doc.steps),
        "tree_f1": breakdown.f1,
        "tree_precision": breakdown.precision,
        "tree_recall": breakdown.recall,
        "best_gold_tree": breakdown.best_gold_tree,
        "bleu": bleu(join_steps(doc), join_steps(reference)) if reference else None,
        "rouge_l": rouge_l(join_steps(doc), join_steps(reference)) if reference else None,
        "diagnostics_count": len(report.diagnostics),
    }
    return row, report


def permute_doc(doc: InstructionDoc, seed: int, k: int) -> list[InstructionDoc]:
    """``k`` seeded step permutations; each draw has its own derived stream."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out: list[InstructionDoc] = []
    for index in range(1, k + 1):
        rng = SplitMix64(derive_seed(seed, doc.doc_id, f"perm{index}"))
        steps = list(doc.steps)
        rng.shuffle(steps)
        out.append(InstructionDoc(doc.pattern_id, f"{doc.doc_id}-perm{index}", tuple(steps)))
    return out


class ErrorInjectionPlan:
    def __init__(self, swap_adjacent: int = 0, drop_step: int = 0, wrong_piece: int = 0) -> None:
        if min(swap_adjacent, drop_step, wrong_piece) < 0:
            raise ValueError("error counts must be non-negative")
        self.swap_adjacent = swap_adjacent
        self.drop_step = drop_step
        self.wrong_piece = wrong_piece

    @property
    def total(self) -> int:
        return self.swap_adjacent + self.drop_step + self.wrong_piece


def inject_errors(
    doc: InstructionDoc, plan: ErrorInjectionPlan, seed: int, spec: PatternSpec
) -> tuple[InstructionDoc, int]:
    """Corrupt a document with seeded mechanical edits, in kind order:
    adjacent swaps, step drops, then piece relabelings.  Returns the new
    document and exactly how many edits were applied."""
    rng = SplitMix64(derive_seed(seed, doc.doc_id, "inject"))
    steps = list(doc.steps)
    applied = 0

    for _ in range(plan.swap_adjacent):
        if len(steps) < 2:
            raise ValueError(f"{doc.doc_id}: cannot swap steps of a {len(steps)}-step document")
        i = rng.randrange(len(steps) - 1)
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
        applied += 1

    for _ in range(plan.drop_step):
        if len(steps) < 2:
            raise ValueError(f"{doc.doc_id}: cannot drop a step and keep the document non-empty")
        del steps[rng.randrange(len(steps))]
        applied += 1

    for _ in range(plan.wrong_piece):
        sites: list[tuple[int, int, int, str]] = []
        for step_index, step in enumerate(steps):
            for piece, m in piece_mentions(step):
                if piece in spec.pieces:
                    sites.append((step_index, m.start(), m.end(), piece))
        if not sites:
            raise ValueError(f"{doc.doc_id}: no piece mentions left to relabel")
        step_index, start, end, piece = sites[rng.randrange(len(sites))]
        others = [p for p in spec.inventory if p != piece]
        if not others:
            raise ValueError(f"{doc.doc_id}: inventory has no alternative piece")
        replacement = others[rng.randrange(len(others))]
        step = steps[step_index]
        steps[step_index] = f"{step[:start]}({replacement}){step[end:]}"
        applied += 1

    return InstructionDoc(doc.pattern_id, doc.doc_id, tuple(steps)), applied


def roundtrip_grammar(grammar: GoldGrammar) -> list[str]:
    """Check that every rule of a grammar survives linearize, extract and
    rebuild, in file order; returns failure messages.

    A linearized step is a function of its rule alone, and the rebuild
    folds the steps in order, so a gold tree round-trips exactly when each
    of its rules does with the rule's children preset as components.  A
    rule passes when its step emits that rule alone and leaves every piece
    of the parent in the parent's component.
    """
    failures: list[str] = []
    spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
    reader = spec.reader
    for rule in grammar.rules:
        parent, _, children_text = rule.partition(" -> ")
        children = tuple(children_text.split(" "))
        component_of = {p: c for c in children for p in reader.pieces(c)}
        x = extract_pieces_rule_based(write_step(children, spec), spec)
        resolved = resolve_components(x.mentions, component_of)
        emitted = [rule_text(*step) for step in apply_step(component_of, resolved, reader)]
        parent_pieces = reader.pieces(parent)
        left_in = [component_of[p] for p in parent_pieces]
        if emitted != [rule] or any(c != parent for c in left_in):
            subtrees = ", ".join(emitted)
            pieces = " ".join(f"{p}={c}" for p, c in zip(parent_pieces, left_in))
            failures.append(
                f"{grammar.pattern_id} rule {rule}: emitted [{subtrees}], pieces in {pieces}"
            )
    return failures


class RatingRecord:
    def __init__(self, doc_id: str, step_index: int, question: str, rating: int) -> None:
        if question not in RATING_QUESTIONS:
            raise ValueError(f"unknown question {question!r}")
        if rating not in (1, 2, 3, 4, 5):
            raise ValueError(f"rating must be 1..5, got {rating}")
        self.doc_id = doc_id
        self.step_index = step_index
        self.question = question
        self.rating = rating


RATING_QUESTIONS = ("S1", "S2", "S3", "S4", "S5")


def aggregate_ratings(records) -> list[dict]:
    """Per document and question: mean rating, fraction above 3, fraction
    below 3 (three summaries for each of the five step-level questions)."""
    grouped: dict[str, dict[str, list[int]]] = {}
    for rec in records:
        grouped.setdefault(rec.doc_id, {}).setdefault(rec.question, []).append(rec.rating)
    rows: list[dict] = []
    for doc_id in sorted(grouped):
        row: dict = {"doc_id": doc_id}
        for question in RATING_QUESTIONS:
            ratings = grouped[doc_id].get(question, [])
            if ratings:
                row[f"{question}_mean"] = sum(ratings) / len(ratings)
                row[f"{question}_above3"] = sum(1 for r in ratings if r > 3) / len(ratings)
                row[f"{question}_below3"] = sum(1 for r in ratings if r < 3) / len(ratings)
            else:
                row[f"{question}_mean"] = None
                row[f"{question}_above3"] = None
                row[f"{question}_below3"] = None
        rows.append(row)
    return rows


def _number(row: dict, column: str) -> float:
    """``row[column]`` as a finite float; ValueError naming the document."""
    try:
        value = float(row[column])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{row['doc_id']}: {column} must be a number, got {row[column]!r}")
    return value


def _by_doc_id(rows, name: str) -> dict[str, dict]:
    """``rows`` by ``doc_id``, in order; a repeated ``doc_id`` is a
    ValueError naming it and the input ``name``."""
    out: dict[str, dict] = {}
    for row in rows:
        if row["doc_id"] in out:
            raise ValueError(f"{name} rows: doc_id {row['doc_id']!r} appears more than once")
        out[row["doc_id"]] = row
    return out


def correlate_scores(scores_rows, errors_rows, columns) -> list[dict]:
    """Pearson correlation of score columns against errors per step.

    ``scores_rows`` are scores-CSV rows; ``errors_rows`` carry ``doc_id`` and
    ``errors``; the join key is ``doc_id``, which neither input may repeat.
    ``columns`` must name at least one column, none twice.  Each result
    row's keys, in order, are the columns of ``correlate --out``.
    """
    if not columns:
        raise ValueError("no columns to correlate")
    for index, column in enumerate(columns):
        if column in columns[:index]:
            raise ValueError(f"column {column!r} named more than once")
    errors_by_doc = {
        doc_id: _number(row, "errors") for doc_id, row in _by_doc_id(errors_rows, "errors").items()
    }
    joined: list[tuple[dict, float]] = []
    for row in _by_doc_id(scores_rows, "scores").values():
        if row["doc_id"] in errors_by_doc:
            n_steps = _number(row, "n_steps")
            if n_steps <= 0:
                raise ValueError(f"{row['doc_id']}: n_steps must be positive, got {row['n_steps']!r}")
            joined.append((row, errors_by_doc[row["doc_id"]] / n_steps))
    if len(joined) < 3:
        raise ValueError(f"only {len(joined)} documents joined; need at least 3")
    out: list[dict] = []
    for column in columns:
        values = []
        for row, _ in joined:
            if row.get(column) in (None, ""):
                raise ValueError(f"column {column!r} missing for {row['doc_id']}")
            values.append(_number(row, column))
        rates = [rate for _, rate in joined]
        r, t, p = pearson(values, rates)
        out.append({"column": column, "n": len(joined), "r": r, "t": t, "p": p})
    return out
