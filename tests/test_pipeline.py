import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sewtree.adapter import AdapterConfig, AdapterError, extract_via_adapter
from sewtree.grammar import enumerate_gold_trees
from sewtree.labels import parse_node_label, parse_piece_label
from sewtree.pipeline import (
    AssemblyState,
    InstructionDoc,
    PatternSpec,
    StepExtraction,
    apply_step,
    build_forest,
    extract_document,
    extract_pieces_rule_based,
    linearize_gold_tree,
    placeholder_spec,
    resolve_components,
)
from sewtree.tree import canonical_serialize, depth_one_subtrees, glue_subtrees

from conftest import GRAMMAR_NAMES, load_grammar


def P(text):
    return parse_piece_label(text)


def N(text):
    return parse_node_label(text)


def labels(extraction):
    return [str(p) for p in extraction.mentions]


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
        assert x.dropped == (P("C"),)

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
        state = AssemblyState()
        x = StepExtraction(0, (P("A"), P("B")))
        assert resolve_components(x, state) == [N("A"), N("B")]

    def test_resolution_then_dedup(self):
        state = AssemblyState()
        apply_step(state, [N("A"), N("B")], 0)
        x = StepExtraction(1, (P("A"), P("B")))
        assert resolve_components(x, state) == [N("AB")]

    def test_mixed_resolution(self):
        state = AssemblyState()
        apply_step(state, [N("A"), N("B")], 0)
        apply_step(state, [N("AB")], 1)
        x = StepExtraction(2, (P("C"), P("A"), P("B")))
        assert resolve_components(x, state) == [N("C"), N("AB_1")]

    def test_idempotent_on_component_labels(self):
        state = AssemblyState()
        apply_step(state, [N("A"), N("B")], 0)
        x = StepExtraction(1, (P("A"),))
        resolved = resolve_components(x, state)
        assert resolved == [N("AB")]


class TestApplyStep:
    def test_binary(self):
        state = AssemblyState()
        subtrees, diags = apply_step(state, [N("A"), N("B")], 0)
        assert [str(s) for s in subtrees] == ["AB -> A B"]
        assert diags == []
        assert state.component_of[P("A")] == N("AB")

    def test_unary(self):
        state = AssemblyState()
        apply_step(state, [N("A"), N("B")], 0)
        subtrees, _ = apply_step(state, [N("AB")], 1)
        assert [str(s) for s in subtrees] == ["AB_1 -> AB"]

    def test_empty(self):
        state = AssemblyState()
        subtrees, diags = apply_step(state, [], 0)
        assert subtrees == [] and diags == []

    def test_three_components_fold_with_diagnostic(self):
        state = AssemblyState()
        subtrees, diags = apply_step(state, [N("A"), N("B"), N("C")], 0)
        assert [str(s) for s in subtrees] == ["AB -> A B", "ABC -> AB C"]
        assert [d.kind for d in diags] == ["multi-component"]


class TestBuildForest:
    def test_skirt_demo_full_pipeline(self, skirt_doc, skirt_spec):
        extractions = extract_document(skirt_doc, skirt_spec)
        report = build_forest(skirt_doc, extractions, skirt_spec)
        assert [canonical_serialize(t) for t in report.forest.trees] == [
            "(ABC_1 (AB_1 (AB A B)) C)"
        ]
        assert report.forest.isolated_leaves() == ()

    def test_isolated_leaf_for_untouched_piece(self, skirt_spec):
        doc = InstructionDoc("skirt", "d", ("Sew the Over Skirt (A) to the Under Skirt (B).",))
        report = build_forest(doc, extract_document(doc, skirt_spec), skirt_spec)
        assert report.forest.isolated_leaves() == (N("C"),)
        assert len(report.forest.trees) == 2

    def test_empty_mentions_all_isolated(self, skirt_spec):
        doc = InstructionDoc("skirt", "d", ("Press everything.",))
        report = build_forest(doc, extract_document(doc, skirt_spec), skirt_spec)
        assert len(report.forest.isolated_leaves()) == 3
        assert report.subtree_trace == ()

    def test_glue_equivalence(self, skirt_doc, skirt_spec):
        extractions = extract_document(skirt_doc, skirt_spec)
        report = build_forest(skirt_doc, extractions, skirt_spec)
        glued = glue_subtrees(
            (st for _, st in report.subtree_trace), report.forest.isolated_leaves()
        )
        assert glued == report.forest

    def test_determinism(self, skirt_doc, skirt_spec):
        runs = [
            build_forest(skirt_doc, extract_document(skirt_doc, skirt_spec), skirt_spec)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestLinearization:
    @pytest.mark.parametrize("name", GRAMMAR_NAMES)
    def test_roundtrip_every_gold_tree(self, name):
        grammar = load_grammar(name)
        spec = placeholder_spec(grammar.pattern_id, grammar.inventory)
        for tree in enumerate_gold_trees(grammar):
            doc = linearize_gold_tree(tree, spec)
            report = build_forest(doc, extract_document(doc, spec), spec)
            assert report.subtrees() == depth_one_subtrees(tree)
            assert [canonical_serialize(t) for t in report.forest.trees] == [
                canonical_serialize(tree)
            ]

    def test_step_count_equals_non_leaf_nodes(self, skirt_grammar, skirt_spec):
        (tree,) = enumerate_gold_trees(skirt_grammar)
        doc = linearize_gold_tree(tree, skirt_spec)
        assert len(doc.steps) == 3

    def test_single_leaf_zero_steps(self):
        spec = placeholder_spec("one", [P("A")])
        from sewtree.tree import leaf

        doc = linearize_gold_tree(leaf(P("A")), spec)
        assert doc.steps == ()


class _AdapterHandler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        if self.behavior == "slow":
            time.sleep(1.0)
        if self.behavior == "bad-label":
            payload = {"pieces": ["Q"]}
        elif self.behavior == "list-reply":
            payload = ["A"]
        else:
            # echo back labels present in the step text, in inventory order
            payload = {"pieces": [p for p in request["inventory"] if f"({p})" in request["step"]]}
        body = json.dumps(payload).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # a client that timed out has closed the connection

    def log_message(self, *args):
        pass


@pytest.fixture()
def adapter_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AdapterHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _AdapterHandler.behavior = "ok"
    yield f"http://127.0.0.1:{server.server_address[1]}/extract"
    server.shutdown()
    server.server_close()


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
