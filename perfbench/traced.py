"""Run ``sewtree.cli.main(argv)`` in this process, with or without tracing.

Usage: python traced.py --trace 0|1 --report FILE -- CLI_ARGS...

With ``--trace 1`` the names each calling layer imported are replaced, from
here, by wrappers that record a span (name, start, end, parent) per call and
a few counts taken from arguments and results.  Spans stay in memory; after
``main()`` returns, the per-layer sums are written to FILE as JSON together
with ``main_s``, the wall time of ``main()``.  Counts the program does not
expose (derivations, LCS cells) are computed after ``main()``, outside every
span.  A wrap target that no longer exists is listed under ``absent`` and its
layer reads 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# (module, name imported there, span name).  ``make_adapter_extractor`` is
# handled apart: the extractor it returns is wrapped, one span per step.
TARGETS = (
    ("sewtree.cli", "parse_grammar", "grammar.parse"),
    ("sewtree.cli", "enumerate_gold_trees", "grammar.enumerate"),
    ("sewtree.cli", "load_doc", "pipeline.load"),
    ("sewtree.cli", "load_spec", "pipeline.load"),
    ("sewtree.cli", "score_document", "experiments.score_document"),
    ("sewtree.cli", "canonical_serialize", "tree.serialize"),
    ("sewtree.experiments", "extract_document", "pipeline.extract"),
    ("sewtree.experiments", "build_forest", "pipeline.build"),
    ("sewtree.experiments", "tree_score", "metrics.tree_score"),
    ("sewtree.experiments", "bleu", "metrics.bleu"),
    ("sewtree.experiments", "rouge_l", "metrics.rouge_l"),
)
ADAPTER_TARGET = ("sewtree.cli", "make_adapter_extractor")
DIAGNOSTIC_KINDS = ("multi-component", "unknown-label", "no-attachment-verb", "adapter-fallback")


class Tracer:
    """Spans and counts recorded by wrappers around the wrap targets."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.grammars: list = []  # enumerated grammars, counted after main()
        self.text_pairs: list[tuple[str, str]] = []  # rouge_l inputs, counted after main()

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module_name: str, attr: str, name: str, on_result=None) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(f"{module_name}.{attr}")
            return

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if on_result is not None:
                try:
                    on_result(result, *args, **kwargs)
                except Exception:  # a changed signature must not end the run
                    self.absent.add(f"{module_name}.{attr} (count hook)")
            return result

        setattr(module, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "parse_grammar": self._count_rules,
            "enumerate_gold_trees": self._count_gold,
            "tree_score": self._count_compared,
            "rouge_l": self._keep_texts,
            "extract_document": self._count_extraction,
            "build_forest": self._count_diagnostics,
        }
        for module_name, attr, name in TARGETS:
            self.wrap(module_name, attr, name, hooks.get(attr))
        self._wrap_adapter_factory(*ADAPTER_TARGET)

    def _wrap_adapter_factory(self, module_name: str, attr: str) -> None:
        module = importlib.import_module(module_name)
        factory = getattr(module, attr, None)
        if factory is None:
            self.absent.add(f"{module_name}.{attr}")
            return

        def make(*args, **kwargs):
            extractor = factory(*args, **kwargs)

            def traced_extractor(*call_args, **call_kwargs):
                result = self.span("adapter.call", extractor, *call_args, **call_kwargs)
                if getattr(result, "source", None) == "fallback":
                    self.counts["adapter.fallbacks"] += 1
                return result

            return traced_extractor

        setattr(module, attr, make)

    # Count hooks run after their span has closed.
    def _count_rules(self, grammar, *args, **kwargs):
        self.counts["grammar.rules"] += len(grammar.rules)

    def _count_gold(self, trees, grammar, *args, **kwargs):
        self.counts["grammar.gold_trees"] += len(trees)
        self.grammars.append(grammar)

    def _count_compared(self, breakdown, predicted, gold_set, *args, **kwargs):
        self.counts["metrics.gold_compared"] += len(gold_set)

    def _keep_texts(self, score, candidate, reference, *args, **kwargs):
        self.text_pairs.append((candidate, reference))

    def _count_extraction(self, extractions, doc, *args, **kwargs):
        self.counts["pipeline.steps"] += len(doc.steps)
        self.counts["pipeline.mentions"] += sum(len(x.mentions) for x in extractions)

    def _count_diagnostics(self, report, *args, **kwargs):
        for diagnostic in report.diagnostics:
            self.counts[f"pipeline.diag.{diagnostic.kind}"] += 1

    def count_outside_spans(self) -> None:
        grammar = sys.modules.get("sewtree.grammar")
        count = getattr(grammar, "count_derivations", None)
        if count is None:
            self.absent.add("sewtree.grammar.count_derivations")
        else:
            for g in self.grammars:
                self.counts["grammar.derivations"] += sum(count(g).values())
        metrics = sys.modules.get("sewtree.metrics")
        tokenize = getattr(metrics, "tokenize", None)
        if tokenize is None:
            self.absent.add("sewtree.metrics.tokenize")
        else:
            for candidate, reference in self.text_pairs:
                self.counts["metrics.rouge_lcs_cells"] += len(tokenize(candidate)) * len(tokenize(reference))

    def layers(self, main_s: float) -> dict[str, float]:
        """Per-layer seconds and counts from the recorded spans."""
        total: Counter = Counter()
        child_total: Counter = Counter()
        calls: Counter = Counter()
        adapter_ms = []
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent is not None:
                child_total[parent] += duration
            if name == "adapter.call":
                adapter_ms.append(duration * 1e3)
        self_total: Counter = Counter()
        root_children = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_total[name] += (end - start) - child_total[index]
            if parent is None:
                root_children += end - start
        gold = self.counts["metrics.gold_compared"]
        trees = self.counts["grammar.gold_trees"]
        derivations = self.counts["grammar.derivations"]
        out = {
            "grammar.parse_s": total["grammar.parse"],
            "grammar.enumerate_s": total["grammar.enumerate"],
            "grammar.gold_per_derivation": trees / derivations if derivations else 0.0,
            "tree.serialize_s": total["tree.serialize"],
            "tree.serialize_calls": calls["tree.serialize"],
            "metrics.tree_score_s": total["metrics.tree_score"],
            "metrics.tree_score_us_per_gold": total["metrics.tree_score"] * 1e6 / gold if gold else 0.0,
            "metrics.rouge_l_s": total["metrics.rouge_l"],
            "metrics.bleu_s": total["metrics.bleu"],
            "pipeline.load_s": total["pipeline.load"],
            "pipeline.extract_s": total["pipeline.extract"],
            "pipeline.build_s": total["pipeline.build"],
            "experiments.score_document_self_s": self_total["experiments.score_document"],
            "adapter.call_p50_ms": _percentile(adapter_ms, 0.50),
            "adapter.call_p95_ms": _percentile(adapter_ms, 0.95),
            "cli.self_s": main_s - root_children,
        }
        for key in ("grammar.rules", "grammar.gold_trees", "grammar.derivations",
                    "metrics.gold_compared", "metrics.rouge_lcs_cells", "pipeline.steps",
                    "pipeline.mentions", "adapter.fallbacks"):
            out[key] = self.counts[key]
        for kind in DIAGNOSTIC_KINDS:
            out[f"pipeline.diag.{kind}"] = self.counts[f"pipeline.diag.{kind}"]
        return out


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import sewtree.cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    code = sewtree.cli.main(cli_args)
    main_s = time.perf_counter() - start
    report = {"exit": code, "main_s": main_s}
    if args.trace:
        tracer.count_outside_spans()
        report["layers"] = tracer.layers(main_s)
        report["absent"] = sorted(tracer.absent)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
