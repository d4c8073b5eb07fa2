"""Seeded synthetic inputs for the benchmark workloads.

Inputs come only from ``sewtree.rng``, ``sewtree.synth``,
``pipeline.linearize_gold_tree``, ``experiments.permute_doc`` and
``experiments.inject_errors``.  The program under test sees nothing but the
files that :func:`generate` returns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from sewtree.experiments import ErrorInjectionPlan, inject_errors, permute_doc
from sewtree.grammar import GoldGrammar, count_derivations, validate_grammar
from sewtree.pipeline import InstructionDoc, PatternSpec, linearize_gold_tree
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_from_trees, grammar_to_text, random_inventory, random_tree
from sewtree.tree import subtrees_of

WORKLOADS = ("large-gold", "wide-corpus", "gold-export", "adapter-extract")

# Garment piece names for the specs; none contains an attachment verb stem
# (sew, stitch, attach, join, close, seam), so names never open the gate.
PIECE_NAMES = (
    "Front", "Back", "Sleeve", "Collar", "Cuff", "Yoke", "Waistband", "Pocket",
    "Facing", "Placket", "Hood", "Gusset", "Panel", "Lining", "Strap", "Ruffle",
)

# A label that is never in a generated inventory (inventories use letters
# from A upwards), so the finishing step always yields an unknown-label
# diagnostic.
FOREIGN_LABEL = "Z"

# Error-injection plans for the corrupted documents, used in turn.
ERROR_PLANS = (
    ErrorInjectionPlan(swap_adjacent=1),
    ErrorInjectionPlan(drop_step=1),
    ErrorInjectionPlan(wrong_piece=1),
    ErrorInjectionPlan(swap_adjacent=1, wrong_piece=1),
)

# Size classes: derivations per grammar.  Each grammar is redrawn until it
# lands in its workload's class, so the work per run varies by at most a few
# percent from seed to seed.
SIZE_CLASSES = {
    "large-gold": (2_900, 3_100),
    "wide-corpus": (1, 36),
    "gold-export": (11_800, 12_200),
    "adapter-extract": (1, 36),
}
MAX_DRAWS = 500


class GeneratorError(RuntimeError):
    """The generator broke one of its own invariants."""


@dataclass
class Pattern:
    grammar: GoldGrammar
    spec: PatternSpec
    trees: list
    derivations: int


@dataclass
class Workload:
    """Generated inputs of one workload plus what the checks need to know."""

    name: str
    seed: int
    files: dict[str, bytes]
    patterns: list[Pattern]
    docs: list[InstructionDoc]
    refs: dict[str, InstructionDoc]
    exact_tree: frozenset[str]  # doc ids that must score tree_f1 = 1
    exact_text: frozenset[str]  # doc ids identical to their reference

    @property
    def derivations(self) -> int:
        return sum(p.derivations for p in self.patterns)

    @property
    def digest(self) -> str:
        return files_digest(self.files)


def files_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0" + files[path] + b"\0")
    return h.hexdigest()


def _json_bytes(data: dict) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _draw_pattern(rng: SplitMix64, pattern_id: str, n_pieces: int, n_trees: int,
                  unary_pct: int) -> Pattern:
    inventory = random_inventory(rng, n_pieces)
    trees = [random_tree(rng, inventory, unary_pct) for _ in range(n_trees)]
    grammar = grammar_from_trees(pattern_id, trees)
    spec = PatternSpec(pattern_id, {p: rng.choice(PIECE_NAMES) for p in inventory})
    return Pattern(grammar, spec, trees, sum(count_derivations(grammar).values()))


def _sized_pattern(seed: int, pattern_id: str, n_pieces: int, n_trees, unary_pct: int,
                   fits) -> Pattern:
    """The first draw for which ``fits(pattern)`` holds; ``n_trees`` is a
    (low, high) range drawn per attempt."""
    for attempt in range(MAX_DRAWS):
        rng = SplitMix64(derive_seed(seed, pattern_id, str(attempt)))
        trees = n_trees[0] + rng.randrange(n_trees[1] - n_trees[0] + 1)
        pattern = _draw_pattern(rng, pattern_id, n_pieces, trees, unary_pct)
        if fits(pattern):
            return pattern
    raise GeneratorError(f"{pattern_id}: no draw in its size class")


def _in_size_class(name: str, pattern: Pattern) -> bool:
    low, high = SIZE_CLASSES[name]
    return low <= pattern.derivations <= high


def _finishing_step(rng: SplitMix64, spec: PatternSpec) -> str:
    # No attachment verb: the mention is dropped and the foreign label is
    # reported as unknown, so both diagnostic kinds occur in every document.
    piece = rng.choice(sorted(spec.inventory))
    return (f"Press the {spec.name_of(piece)} ({piece}) flat and trim the edge "
            f"near the label ({FOREIGN_LABEL}).")


def _renamed(doc: InstructionDoc, doc_id: str, extra_steps=()) -> InstructionDoc:
    return InstructionDoc(doc.pattern_id, doc_id, tuple(doc.steps) + tuple(extra_steps))


def _corpus_docs(seed: int, pattern: Pattern, n_lin: int, n_clean: int, n_err: int):
    """Linearized, permuted and error-injected documents for one pattern.

    Linearizations of the first ``n_lin`` gold trees that built the grammar,
    permutations of them up to ``n_clean`` documents, then ``n_err``
    error-injected copies.
    Returns (docs, reference, exact-tree ids, exact-text ids).
    """
    pid = pattern.grammar.pattern_id
    rng = SplitMix64(derive_seed(seed, pid, "docs"))
    finish = _finishing_step(rng, pattern.spec)
    lins = [
        _renamed(linearize_gold_tree(tree, pattern.spec), f"{pid}-lin{i}", [finish])
        for i, tree in enumerate(pattern.trees[:n_lin])
    ]
    docs = list(lins)
    for i in range(n_clean - len(lins)):
        (permuted,) = permute_doc(lins[i % len(lins)], derive_seed(seed, pid, "perm", str(i)), 1)
        docs.append(_renamed(permuted, f"{pid}-perm{i}"))
    for i in range(n_err):
        plan = ERROR_PLANS[i % len(ERROR_PLANS)]
        corrupted, applied = inject_errors(
            lins[i % len(lins)], plan, derive_seed(seed, pid, "err", str(i)), pattern.spec
        )
        if applied != plan.total:
            raise GeneratorError(f"{pid}: {applied} of {plan.total} edits applied")
        docs.append(_renamed(corrupted, f"{pid}-err{i}"))
    reference = _renamed(lins[0], f"{pid}-ref")
    return docs, reference, {d.doc_id for d in lins}, {lins[0].doc_id}


def _score_workload(name: str, seed: int, patterns: list[Pattern], n_lin: int, n_clean: int,
                    n_err: int, with_refs: bool) -> Workload:
    """A ``score`` corpus with ``n_clean + n_err`` documents per pattern."""
    files: dict[str, bytes] = {}
    docs: list[InstructionDoc] = []
    refs: dict[str, InstructionDoc] = {}
    exact_tree: set[str] = set()
    exact_text: set[str] = set()
    for pattern in patterns:
        pid = pattern.grammar.pattern_id
        files[f"grammars/{pid}.grammar"] = grammar_to_text(pattern.grammar).encode()
        files[f"specs/{pid}.json"] = _json_bytes(pattern.spec.to_json())
        pdocs, ref, tree_ids, text_ids = _corpus_docs(seed, pattern, n_lin, n_clean, n_err)
        docs.extend(pdocs)
        exact_tree |= tree_ids
        if with_refs:
            refs[pid] = ref
            exact_text |= text_ids
            files[f"refs/{ref.doc_id}.json"] = _json_bytes(ref.to_json())
    for doc in docs:
        files[f"corpus/{doc.doc_id}.json"] = _json_bytes(doc.to_json())
    docs.sort(key=lambda d: d.doc_id)
    return Workload(name, seed, files, patterns, docs, refs,
                    frozenset(exact_tree), frozenset(exact_text))


def _small_patterns(name: str, seed: int, stream: str, count: int) -> list[Pattern]:
    """Patterns of 5 to 8 pieces in turn.  The reference (the first gold
    tree) has exactly one self-attachment, so every seed gets the same mix of
    reference lengths and the ROUGE-L work barely depends on the seed."""

    def fits(pattern: Pattern) -> bool:
        merges_and_unaries = sum(1 for _ in subtrees_of(pattern.trees[0]))
        return (_in_size_class(name, pattern)
                and merges_and_unaries == len(pattern.spec.inventory))

    return [_sized_pattern(seed, f"{stream}{i:02d}", 5 + i % 4, (2, 4), 25, fits)
            for i in range(count)]


def generate(name: str, seed: int) -> Workload:
    """All input files of workload ``name`` for ``seed``."""
    if name == "large-gold":
        pattern = _sized_pattern(seed, "lg", 12, (160, 160), 10,
                                 lambda p: _in_size_class(name, p))
        return _score_workload(name, seed, [pattern], 2, 3, 0, with_refs=False)
    if name == "wide-corpus":
        return _score_workload(name, seed, _small_patterns(name, seed, "w", 8), 4, 8, 8, with_refs=True)
    if name == "adapter-extract":
        return _score_workload(name, seed, _small_patterns(name, seed, "ad", 4), 4, 6, 6, with_refs=False)
    if name == "gold-export":
        pattern = _sized_pattern(seed, "gx", 7, (256, 256), 10,
                                 lambda p: _in_size_class(name, p))
        files = {"gold.grammar": grammar_to_text(pattern.grammar).encode()}
        return Workload(name, seed, files, [pattern], [], {}, frozenset(), frozenset())
    raise ValueError(f"unknown workload {name!r}")


def self_check(workload: Workload) -> list[str]:
    """Generator invariants: determinism, seed sensitivity, valid grammars
    in their size class.

    Regenerates the workload for the same seed and for the next seed; the
    first must match byte for byte and the second must differ.
    """
    problems = []
    if generate(workload.name, workload.seed).digest != workload.digest:
        problems.append("same seed gave different inputs")
    if generate(workload.name, workload.seed + 1).digest == workload.digest:
        problems.append("next seed gave identical inputs")
    for pattern in workload.patterns:
        pid = pattern.grammar.pattern_id
        problems.extend(f"{pid}: {v}" for v in validate_grammar(pattern.grammar))
        if not _in_size_class(workload.name, pattern):
            problems.append(f"{pid}: {pattern.derivations} derivations, outside "
                            f"{SIZE_CLASSES[workload.name]}")
    return problems
