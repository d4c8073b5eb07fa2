import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sewtree.adapter import AdapterConfig, AdapterError, extract_via_adapter, make_adapter_extractor
from sewtree.labels import LabelReader
from sewtree.pipeline import (
    BuildReport,
    Diagnostic,
    InstructionDoc,
    PatternSpec,
    StepExtraction,
    apply_step,
    build_forest,
    extract_document,
    extract_once_per_run,
    extract_pieces_rule_based,
    linearize_gold_tree,
    placeholder_spec,
    resolve_components,
)
from sewtree.rng import SplitMix64
from sewtree.synth import random_inventory
from sewtree.tree import bracket, canonical_serialize, subtrees_of

from conftest import GRAMMAR_NAMES, _AdapterHandler, load_grammar, posted_requests, wait_for_posts
from helpers import (
    AssemblyNode,
    Label,
    as_pair,
    binary,
    glued_forest,
    gold_tree_oracle,
    leaf,
    random_node_tree,
    recursive_linearization,
    rule_labels,
    serialize_node,
    unary,
)


READER = LabelReader(["A", "B", "C"])


def labels(extraction):
    return list(extraction.mentions)


class TestRuleBasedExtraction:
    def test_skirt_demo_piece_lists(self, skirt_doc, skirt_spec):
        extractions = extract_document(skirt_doc, skirt_spec)
        assert [labels(x) for x in extractions] == [
            ["A", "B"],
            ["A", "B"],
            ["C", "A", "B"],
            [],
            [],
        ]

    def test_no_labels(self, skirt_spec):
        x = extract_pieces_rule_based("Hem the bottom edge.", skirt_spec)
        assert x.mentions == ()

    def test_finishing_step_dropped_with_diagnostic_info(self, skirt_spec):
        x = extract_pieces_rule_based("Fold the Waistband (C) over. Press flat.", skirt_spec)
        assert x.mentions == ()
        assert x.dropped == ("C",)

    def test_unknown_label_recorded(self, skirt_spec):
        x = extract_pieces_rule_based("Sew the Yoke (Q) to the Over Skirt (A).", skirt_spec)
        assert labels(x) == ["A"]
        assert x.unknown == ("Q",)

    def test_parenthetical_prose_ignored(self, skirt_spec):
        x = extract_pieces_rule_based(
            "Sew the Over Skirt (A) to the Under Skirt (B) (right sides together).",
            skirt_spec,
        )
        assert labels(x) == ["A", "B"]
        assert x.unknown == ()

    def test_dedup_keeps_first_mention_order(self, skirt_spec):
        x = extract_pieces_rule_based(
            "Sew the Waistband (C) to the Over Skirt (A), easing the Waistband (C).",
            skirt_spec,
        )
        assert labels(x) == ["C", "A"]


class TestResolveComponents:
    def test_identity_on_fresh_state(self):
        state = {}
        assert resolve_components(("A", "B"), state) == ["A", "B"]

    def test_resolution_then_dedup(self):
        state = {}
        apply_step(state, ["A", "B"], READER)
        assert resolve_components(("A", "B"), state) == ["AB"]

    def test_mixed_resolution(self):
        state = {}
        apply_step(state, ["A", "B"], READER)
        apply_step(state, ["AB"], READER)
        assert resolve_components(("C", "A", "B"), state) == ["C", "AB_1"]

    def test_idempotent_on_component_labels(self):
        state = {}
        apply_step(state, ["A", "B"], READER)
        resolved = resolve_components(("A",), state)
        assert resolved == ["AB"]


def build_mentions(*steps: tuple[str, ...]) -> BuildReport:
    """``build_forest`` over pieces A-C, one extraction per tuple of mentions."""
    extractions = [StepExtraction(mentions) for mentions in steps]
    doc = InstructionDoc("p", "d", ("",) * len(extractions))
    return build_forest(doc, extractions, placeholder_spec("p", ["A", "B", "C"]))


class TestApplyStep:
    def test_binary(self):
        state = {}
        subtrees = apply_step(state, ["A", "B"], READER)
        assert subtrees == [("AB", ("A", "B"))]
        assert build_mentions(("A", "B")).diagnostics == ()
        assert state == {"A": "AB", "B": "AB"}

    def test_unary(self):
        state = {}
        apply_step(state, ["A", "B"], READER)
        subtrees = apply_step(state, ["AB"], READER)
        assert subtrees == [("AB_1", ("AB",))]

    def test_empty(self):
        state = {}
        subtrees = apply_step(state, [], READER)
        assert subtrees == [] and build_mentions(()).diagnostics == ()

    def test_three_components_fold_with_diagnostic(self):
        state = {}
        subtrees = apply_step(state, ["A", "B", "C"], READER)
        assert subtrees == [("AB", ("A", "B")), ("ABC", ("AB", "C"))]
        report = build_mentions((), ("A", "B", "C"))
        assert [(d.step_index, d.kind) for d in report.diagnostics] == [(1, "multi-component")]


class TestBuildForest:
    def test_skirt_demo_full_pipeline(self, skirt_doc, skirt_spec):
        extractions = extract_document(skirt_doc, skirt_spec)
        report = build_forest(skirt_doc, extractions, skirt_spec)
        assert report.forest == ("(ABC_1 (AB_1 (AB A B)) C)",)

    def test_isolated_leaf_for_untouched_piece(self, skirt_spec):
        doc = InstructionDoc("skirt", "d", ("Sew the Over Skirt (A) to the Under Skirt (B).",))
        report = build_forest(doc, extract_document(doc, skirt_spec), skirt_spec)
        assert report.forest == ("(AB A B)", "C")

    def test_empty_mentions_all_isolated(self, skirt_spec):
        doc = InstructionDoc("skirt", "d", ("Press everything.",))
        report = build_forest(doc, extract_document(doc, skirt_spec), skirt_spec)
        assert report.forest == ("A", "B", "C")
        assert report.subtree_trace == ()

    def test_glue_equivalence(self, skirt_doc, skirt_spec):
        extractions = extract_document(skirt_doc, skirt_spec)
        report = build_forest(skirt_doc, extractions, skirt_spec)
        assert glued_forest(report) == report.forest

    def test_determinism(self, skirt_doc, skirt_spec):
        runs = [
            build_forest(skirt_doc, extract_document(skirt_doc, skirt_spec), skirt_spec)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def node_rule_text(node: AssemblyNode) -> str:
    """The rule text of a tree node over its children: ``AB -> A B``."""
    return f"{node.label} -> {' '.join(str(c.label) for c in node.children)}"


class ReferenceState:
    """The reference build: it keeps the tree node of every component built
    so far, next to which component contains each piece."""

    def __init__(self) -> None:
        self.component_of: dict[str, Label] = {}
        self.built: dict[Label, AssemblyNode] = {}

    def node_for(self, label: Label) -> AssemblyNode:
        node = self.built.get(label)
        if node is None:
            if len(label.pieces) != 1 or label.self_attach != 0:
                raise ValueError(f"component {label} was never built")
            node = leaf(label.pieces[0])
            self.built[label] = node
        return node

    def apply_step(self, resolved, step_index):
        subtrees, diagnostics = [], []
        if not resolved:
            return subtrees, diagnostics

        def register(node: AssemblyNode) -> None:
            self.built[node.label] = node
            for piece in node.label.pieces:
                self.component_of[piece] = node.label

        if len(resolved) == 1:
            child = self.node_for(resolved[0])
            node = unary(child)
            register(node)
            subtrees.append(node_rule_text(node))
            return subtrees, diagnostics
        if len(resolved) > 2:
            diagnostics.append(
                Diagnostic(
                    step_index,
                    "multi-component",
                    f"{len(resolved)} components in one step, folding left to right",
                )
            )
        acc = self.node_for(resolved[0])
        for label in resolved[1:]:
            node = binary(acc, self.node_for(label))
            subtrees.append(node_rule_text(node))
            acc = node
        register(acc)
        return subtrees, diagnostics


def reference_build_forest(extractions, spec) -> BuildReport:
    """``build_forest`` as it was when it built the tree nodes step by step;
    its roots, serialized, are the forest."""
    state = ReferenceState()
    trace, diagnostics = [], []
    for step_index, x in enumerate(extractions):
        for token in x.unknown:
            diagnostics.append(
                Diagnostic(step_index, "unknown-label", f"({token}) is not in the inventory")
            )
        if x.dropped:
            names = ", ".join(x.dropped)
            diagnostics.append(
                Diagnostic(step_index, "no-attachment-verb", f"ignored mentions [{names}]")
            )
        if x.source == "fallback":
            diagnostics.append(
                Diagnostic(step_index, "adapter-fallback", "adapter failed, used rule-based extraction")
            )
        resolved = []
        for piece in x.mentions:
            label = state.component_of.get(piece, Label((piece,), 0))
            if label not in resolved:
                resolved.append(label)
        subtrees, step_diags = state.apply_step(resolved, step_index)
        trace.extend((step_index, st) for st in subtrees)
        diagnostics.extend(step_diags)
    components = dict.fromkeys(state.component_of.values())
    roots = [state.built[label] for label in components]
    roots.extend(leaf(p) for p in spec.inventory if p not in state.component_of)
    forest = tuple(sorted(serialize_node(root) for root in roots))
    return BuildReport(forest, tuple(trace), tuple(diagnostics))


@hs.composite
def extraction_sequences(draw):
    """A 2-7 piece spec and one extraction per step.  Steps may be empty,
    mention a piece twice or several pieces of one component (which then
    self-attaches, leaf or not), or join three or more components; some
    carry unknown tokens, dropped mentions or an adapter fallback."""
    letters = draw(hs.sets(hs.sampled_from("ABCDEFG"), min_size=2, max_size=7))
    pieces = sorted(letters)
    extractions = []
    for _ in range(draw(hs.integers(0, 12))):
        extractions.append(StepExtraction(
            tuple(draw(hs.lists(hs.sampled_from(pieces), max_size=len(pieces) + 1))),
            tuple(draw(hs.lists(hs.sampled_from(["Q", "Z9", "Xl"]), max_size=2))),
            tuple(draw(hs.lists(hs.sampled_from(pieces), max_size=2))),
            draw(hs.sampled_from(["rule", "adapter", "fallback"])),
        ))
    return placeholder_spec("p", pieces), extractions


class TestBuildMatchesReference:
    @given(extraction_sequences())
    def test_random_extraction_sequences(self, case):
        spec, extractions = case
        doc = InstructionDoc("p", "d", ("",) * len(extractions))
        report = build_forest(doc, extractions, spec)
        reference = reference_build_forest(extractions, spec)
        assert report.forest == reference.forest
        assert report.subtree_trace == reference.subtree_trace
        assert report.diagnostics == reference.diagnostics

    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_linearized_gold_trees(self, name):
        grammar = load_grammar(name)
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        for tree in gold_tree_oracle(grammar):
            doc = linearize_gold_tree(as_pair(tree), spec)
            extractions = extract_document(doc, spec)
            assert build_forest(doc, extractions, spec) == reference_build_forest(extractions, spec)


def folded_forest(trace, spec) -> tuple[str, ...]:
    """``build_forest``'s texts as it once wrote them: folded over the trace,
    children first, each parent's text copied from its children's."""
    texts: dict[Label, str] = {}
    touched = set()
    for _, rule in trace:
        parent, children = rule_labels(rule)
        texts[parent] = bracket(str(parent), [texts.pop(c) if c in texts else str(c) for c in children])
        touched.update(parent.pieces)
    roots = list(texts.values())
    roots.extend(p for p in spec.inventory if p not in touched)
    return tuple(sorted(roots))


def chain_extractions(n: int) -> list[StepExtraction]:
    """One merge of A and B, then n - 1 self-attachments of their component."""
    merge = StepExtraction(("A", "B"))
    return [merge, *(StepExtraction(("A",)) for _ in range(1, n))]


class TestForestTextMatchesFold:
    @given(extraction_sequences())
    def test_random_extraction_sequences(self, case):
        spec, extractions = case
        doc = InstructionDoc("p", "d", ("",) * len(extractions))
        report = build_forest(doc, extractions, spec)
        assert report.forest == folded_forest(report.subtree_trace, spec)

    def test_sixteen_thousand_step_chain(self, skirt_spec):
        extractions = chain_extractions(16_000)
        doc = InstructionDoc("skirt", "chain", ("",) * len(extractions))
        report = build_forest(doc, extractions, skirt_spec)
        assert report.forest == folded_forest(report.subtree_trace, skirt_spec)
        tree, isolated = report.forest
        assert tree.startswith("(AB_15999 (AB_15998 ") and tree.endswith(" (AB A B)" + ")" * 15_999)
        assert isolated == "C"


class TestLinearization:
    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_roundtrip_every_gold_tree(self, name):
        grammar = load_grammar(name)
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        for node in gold_tree_oracle(grammar):
            tree = as_pair(node)
            doc = linearize_gold_tree(tree, spec)
            report = build_forest(doc, extract_document(doc, spec), spec)
            assert report.subtrees() == frozenset(subtrees_of(tree))
            assert report.forest == (canonical_serialize(*tree),) == (serialize_node(node),)

    def test_step_count_equals_non_leaf_nodes(self, skirt_grammar, skirt_spec):
        (tree,) = gold_tree_oracle(skirt_grammar)
        doc = linearize_gold_tree(as_pair(tree), skirt_spec)
        assert len(doc.steps) == 3

    @given(
        hs.integers(0, 2**64 - 1),
        hs.integers(1, 10),
        hs.integers(0, 80),
        hs.booleans(),
        hs.integers(0, 150),
    )
    def test_matches_recursive_reference(self, seed, n_pieces, unary_percent, chain, extra):
        """The same steps and document id on a tree's label map as the
        recursive emit on its nodes, on random trees with unary chains
        inside and on top."""
        rng = SplitMix64(seed)
        pieces = random_inventory(rng, n_pieces)
        tree = random_node_tree(rng, pieces, unary_percent, chain=chain)
        for _ in range(extra):
            tree = unary(tree)
        spec = placeholder_spec("p", pieces)
        assert linearize_gold_tree(as_pair(tree), spec) == recursive_linearization(tree, spec)

    def test_single_leaf_zero_steps(self):
        spec = placeholder_spec("one", ["A"])
        doc = linearize_gold_tree(("A", {}), spec)
        assert doc.steps == ()


class TestAdapter:
    def test_passthrough(self, adapter_server, skirt_spec):
        x = extract_via_adapter(
            "Sew the Over Skirt (A) to the Under Skirt (B).",
            skirt_spec,
            AdapterConfig(adapter_server),
        )
        assert labels(x) == ["A", "B"]
        assert x.source == "adapter"

    def test_invalid_label_rejected(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "bad-label"
        with pytest.raises(AdapterError, match="inventory"):
            extract_via_adapter("Sew (A).", skirt_spec, AdapterConfig(adapter_server))

    def test_non_object_reply_rejected(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "list-reply"
        with pytest.raises(AdapterError, match="'pieces' list"):
            extract_via_adapter("Sew (A).", skirt_spec, AdapterConfig(adapter_server))

    def test_reply_nested_too_deeply_is_a_failed_attempt(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "deep-reply"
        config = AdapterConfig(adapter_server, retries=1)
        with pytest.raises(AdapterError, match="^extraction backend unreachable: maximum recursion"):
            extract_via_adapter("Sew (A) to (B).", skirt_spec, config)
        assert len(posted_requests()) == 2
        fallback = AdapterConfig(adapter_server, retries=0, fallback_to_rules=True)
        x = extract_via_adapter("Sew the Over Skirt (A) to the Under Skirt (B).", skirt_spec, fallback)
        assert labels(x) == ["A", "B"]
        assert x.source == "fallback"

    def test_timeout_fails_by_default(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "slow"
        config = AdapterConfig(adapter_server, timeout=0.1, retries=0)
        with pytest.raises(AdapterError, match="unreachable"):
            extract_via_adapter("Sew (A) to (B).", skirt_spec, config)

    def test_timeout_with_fallback(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "slow"
        config = AdapterConfig(adapter_server, timeout=0.1, retries=0, fallback_to_rules=True)
        x = extract_via_adapter(
            "Sew the Over Skirt (A) to the Under Skirt (B).", skirt_spec, config
        )
        assert labels(x) == ["A", "B"]
        assert x.source == "fallback"

    def test_unreachable_endpoint(self, skirt_spec):
        config = AdapterConfig("http://127.0.0.1:1/none", timeout=0.2, retries=0)
        with pytest.raises(AdapterError):
            extract_via_adapter("Sew (A).", skirt_spec, config)

    @pytest.mark.parametrize(
        "url",
        [
            "file:",
            "file:///dev/null",
            "htp://x",
            "http://",
            "https:///extract",
            "ftp://host/x",
            "http://127.0.0.1:abc/x",
            "http://127.0.0.1:99999/x",
            "http://u:p@127.0.0.1/x",
            "http://127.0.0.1/a b",
            "http://127.0.0.1/a\x01b",
            "http://bücher.example/x",
        ],
    )
    def test_non_http_url_is_refused_at_construction(self, url):
        with pytest.raises(ValueError, match=r"not an http\(s\) URL"):
            AdapterConfig(url, fallback_to_rules=True)


class TestExtractorProtocol:
    def test_extractors_take_step_and_spec(self):
        config = AdapterConfig("http://127.0.0.1:1/none")
        extractors = [
            extract_pieces_rule_based,
            extract_once_per_run(extract_pieces_rule_based),
            make_adapter_extractor(config),
        ]
        plain = inspect.Parameter.POSITIONAL_OR_KEYWORD
        for extractor in extractors:
            params = inspect.signature(extractor).parameters.values()
            assert [(p.name, p.kind, p.default) for p in params] == [
                ("step", plain, inspect.Parameter.empty),
                ("spec", plain, inspect.Parameter.empty),
            ]

    @pytest.mark.parametrize("kind", ["rule-based", "adapter"])
    def test_repeat_gets_the_kept_extraction(self, request, skirt_spec, kind):
        extract = extract_pieces_rule_based
        if kind == "adapter":
            extract = make_adapter_extractor(AdapterConfig(request.getfixturevalue("adapter_server")))
        extractor = extract_once_per_run(extract)
        three = "Sew the Over Skirt (A), the Under Skirt (B) and the Waistband (C) together."
        doc = InstructionDoc("skirt", "d", ("Press the fabric.", three, three))
        _, x, repeat = extract_document(doc, skirt_spec, extractor)
        assert repeat is x and labels(x) == ["A", "B", "C"]


class TestAdapterMemo:
    STEP = "Sew the Over Skirt (A) to the Under Skirt (B)."

    def test_same_step_under_two_inventories_is_posted_twice(self, adapter_server, skirt_spec):
        narrow = PatternSpec("skirt", {"A": "Over Skirt", "B": "Under Skirt"})
        extractor = extract_once_per_run(make_adapter_extractor(AdapterConfig(adapter_server)))
        for spec in [skirt_spec, narrow, skirt_spec, narrow]:
            assert labels(extractor(self.STEP, spec)) == ["A", "B"]
        assert posted_requests() == [
            (self.STEP, ("A", "B", "C")),
            (self.STEP, ("A", "B")),
        ]

    def test_two_extractors_share_no_memo(self, adapter_server, skirt_spec):
        config = AdapterConfig(adapter_server)
        for extractor in [extract_once_per_run(make_adapter_extractor(config)) for _ in range(2)]:
            extractor(self.STEP, skirt_spec)
            extractor(self.STEP, skirt_spec)
        assert len(posted_requests()) == 2

    def test_fallback_is_not_kept(self, adapter_server, skirt_spec):
        _AdapterHandler.behavior = "slow"
        config = AdapterConfig(adapter_server, timeout=0.1, retries=0, fallback_to_rules=True)
        extractor = extract_once_per_run(make_adapter_extractor(config))
        assert [extractor(self.STEP, skirt_spec).source for _ in range(2)] == ["fallback"] * 2
        _AdapterHandler.behavior = "ok"
        assert extractor(self.STEP, skirt_spec).source == "adapter"
        assert extractor(self.STEP, skirt_spec).source == "adapter"
        assert wait_for_posts(3) == [(self.STEP, ("A", "B", "C"))] * 3
