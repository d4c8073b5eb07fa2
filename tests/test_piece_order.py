"""Piece order is not text order: every command on a pattern over the
pieces ``B10 A B2 Bl B``, whose piece order is ``A B Bl B2 B10`` and whose
text order is ``A B B10 B2 Bl``.

A label is its text, and ``labels.LabelReader`` holds the one order of
pieces: every inventory is held in it, so nothing else sorts pieces.  The
outputs below are pinned byte for byte (the
longer ones by their SHA-256, next to the parts that order decides), as
the commands wrote them when labels were objects that sorted by piece.
"""

import hashlib
import itertools
import json

import pytest

from sewtree.grammar import GoldGrammar, parse_grammar
from sewtree.pipeline import PatternSpec, placeholder_spec
from sewtree.synth import grammar_to_text

from helpers import run_fresh

GRAMMAR = (
    "pattern: order\npieces: B10 A B2 Bl B\nroots: S_1\n"
    "ABl -> Bl A\nB2B10 -> B10 B2\nBB2B10 -> B2B10 B\nBB2B10_1 -> BB2B10\n"
    "ABBlB2B10_1 -> BB2B10_1 ABl\nABBlB2B10 -> ABl BB2B10\nABBlB2B10_1 -> ABBlB2B10\n"
)
SPEC = {
    "pattern_id": "order",
    "pieces": {"B10": "Cuff", "A": "Front", "B2": "Yoke", "Bl": "Sleeve", "B": "Back"},
}
# Pieces only in the spec (B3, B12) and only in the grammar (B, B2, B10).
OTHER_SPEC = {"pattern_id": "order", "pieces": {"B12": "Cuff", "A": "Front", "B3": "Yoke", "Bl": "Sleeve"}}
DOCS = {
    "o1": ["Sew the Front (A) to the Sleeve (Bl).", "Stitch the Cuff (B10) to the Yoke (B2).",
           "Join the Back (B) to the cuff (B10).", "Sew (B2) to itself.",
           "Sew the (Bl) to the (B) and (B10). Press the (B3) flat."],
    "o2": ["Sew the Yoke (B2) to the Cuff (B10).", "Sew the (B) to the (B2).", "Sew (B) to itself.",
           "Attach the (A) to (Bl).", "Sew (Bl) to (B10)."],
}
# Canonical child order with a piece outside the inventory read first:
# B2B10Z's children are B2 and B10Z, in that order.
BAD_GRAMMARS = {
    "sorted": "pattern: bad\npieces: B10 A B2 Bl B\nroots: S\nAB2B10 -> B10B2 A\n",
    "unknown": "pattern: bad\npieces: B10 A B2 Bl B\nroots: S\nB2B10Z -> B10Z B2\nB2B10Z_1 -> B2B10Z\n",
}
PIECE_ORDER = ["A", "B", "Bl", "B2", "B10"]
GOLD = [
    "(ABBlB2B10_1 (ABBlB2B10 (ABl A Bl) (BB2B10 B (B2B10 B2 B10))))",
    "(ABBlB2B10_1 (ABl A Bl) (BB2B10_1 (BB2B10 B (B2B10 B2 B10))))",
]
TRACES = {
    "o1": [[0, "ABl -> A Bl"], [1, "B2B10 -> B2 B10"], [2, "BB2B10 -> B B2B10"],
           [3, "BB2B10_1 -> BB2B10"], [4, "ABBlB2B10_1 -> ABl BB2B10_1"]],
    "o2": [[0, "B2B10 -> B2 B10"], [1, "BB2B10 -> B B2B10"], [2, "BB2B10_1 -> BB2B10"],
           [3, "ABl -> A Bl"], [4, "ABBlB2B10_1 -> ABl BB2B10_1"]],
}
REPORT_SHA256 = {
    "o1": "bb3169074f3017fbba82d918be30c886e2de0a03e07e1c62cd5638ccbf17143b",
    "o2": "1d5218a5299170af2fab652a34db98c929abb40d18e211968f64ff16893fea23",
}
EXTRACTED = {
    "o1": ("4ab5ed510aa54f8e837886c072e0de1886666ab13de71c7033bdf99b323c0972",
           [["A", "Bl"], ["B10", "B2"], ["B", "B10"], ["B2"], ["Bl", "B", "B10"]]),
    "o2": ("7a893eb6c0a572cabe70633b2378e03e53ae7b01719a5c5eb7a3821099edbcb6",
           [["B2", "B10"], ["B", "B2"], ["B"], ["A", "Bl"], ["Bl", "B10"]]),
}
# inject-errors --wrong-piece 3: the replacement pieces are drawn from the
# inventory in piece order.
INJECTED = {
    ("o1", 1): ("a378b18ce31b056cb168e82464b0f0203c7f4c7db7988dcd9a5b5402fe6b8023",
                ["Sew the Front (A) to the Sleeve (B10).", "Stitch the Cuff (B10) to the Yoke (B10).",
                 "Join the Back (B) to the cuff (B10).", "Sew (B2) to itself.",
                 "Sew the (Bl) to the (B) and (Bl). Press the (B3) flat."]),
    ("o1", 2): ("270425a5a54b92688227b181f8fa5d6f4f57c8aaf89195f199525ac46e98f1a8",
                ["Sew the Front (A) to the Sleeve (Bl).", "Stitch the Cuff (B10) to the Yoke (B2).",
                 "Join the Back (B) to the cuff (B10).", "Sew (A) to itself.",
                 "Sew the (B) to the (A) and (B10). Press the (B3) flat."]),
    ("o1", 3): ("4de7b622e33701e668218339969e187cf7aea7e6a9b3616999b90e6372fb6db7",
                ["Sew the Front (B10) to the Sleeve (Bl).", "Stitch the Cuff (A) to the Yoke (B2).",
                 "Join the Back (B) to the cuff (B10).", "Sew (B2) to itself.",
                 "Sew the (Bl) to the (Bl) and (B10). Press the (B3) flat."]),
    ("o1", 4): ("6d430ab246205b20ba50ab71f60c83f885fd2fd2e804193120a6d0f4452a809e",
                ["Sew the Front (A) to the Sleeve (Bl).", "Stitch the Cuff (B10) to the Yoke (B2).",
                 "Join the Back (B) to the cuff (B2).", "Sew (B2) to itself.",
                 "Sew the (Bl) to the (B2) and (B10). Press the (B3) flat."]),
    ("o2", 1): ("108b3bfa43e26048188e74e19c4aa6e0de9ac54da1192f87aa8428ed0bac8c60",
                ["Sew the Yoke (B2) to the Cuff (B10).", "Sew the (B) to the (B2).", "Sew (A) to itself.",
                 "Attach the (A) to (A).", "Sew (Bl) to (B10)."]),
    ("o2", 2): ("1dd0c37a2a192ae0127c09f4902d1c699a17e651e6b1a0dd32e64657bf9910cd",
                ["Sew the Yoke (Bl) to the Cuff (B10).", "Sew the (A) to the (Bl).", "Sew (B) to itself.",
                 "Attach the (A) to (Bl).", "Sew (Bl) to (B10)."]),
    ("o2", 3): ("b8e6695d5450899ec4ed528fa0222dd1b6b2c7655c7e379fb67bb5ea26b5fbff",
                ["Sew the Yoke (B2) to the Cuff (B2).", "Sew the (B) to the (B2).", "Sew (A) to itself.",
                 "Attach the (A) to (B).", "Sew (Bl) to (B10)."]),
    ("o2", 4): ("eccbf420bdca39fe6f21cee9b74176692b23aaae210a55ebc1ffd3155cf12720",
                ["Sew the Yoke (B2) to the Cuff (B10).", "Sew the (Bl) to the (B2).", "Sew (B) to itself.",
                 "Attach the (A) to (Bl).", "Sew (A) to (B2)."]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("order")
    for sub in ("grammars", "specs", "corpus", "bad", "other-specs"):
        (root / sub).mkdir()
    (root / "grammars" / "order.grammar").write_text(GRAMMAR)
    (root / "specs" / "order.json").write_text(json.dumps(SPEC))
    (root / "other-specs" / "order.json").write_text(json.dumps(OTHER_SPEC))
    for name, text in BAD_GRAMMARS.items():
        (root / "bad" / f"{name}.grammar").write_text(text)
    for doc_id, steps in DOCS.items():
        (root / "corpus" / f"{doc_id}.json").write_text(
            json.dumps({"pattern_id": "order", "doc_id": doc_id, "steps": steps})
        )
    return root


def cli(*argv):
    """``sewtree *argv`` in a fresh interpreter: its exit code, stdout and
    stderr."""
    proc = run_fresh("-m", "sewtree.cli", *map(str, argv))
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_gold_validate_grammar_and_roundtrip(inputs):
    grammar = inputs / "grammars" / "order.grammar"
    gold = json.dumps({"pattern_id": "order", "trees": GOLD}, indent=2) + "\n"
    assert cli("gen-gold", grammar) == (0, gold, "")
    bad = inputs / "bad"
    assert cli("validate-grammar", grammar, bad / "sorted.grammar", bad / "unknown.grammar") == (1, (
        f"{grammar}: OK\n"
        f"{bad / 'sorted.grammar'}: INVALID\n"
        "  line 4: 'B10B2': pieces must be strictly sorted, got B10 before B2\n"
        f"{bad / 'unknown.grammar'}: INVALID\n"
        "  B2B10Z -> B2 B10Z: unknown pieces Z\n"
        "  B2B10Z_1 -> B2B10Z: unknown pieces Z\n"
    ), "")
    assert cli("roundtrip", "--grammars", inputs / "grammars") == (0, "order: PASS\n", "")


def test_score_writes_the_rows_and_reports(inputs, tmp_path):
    out = tmp_path / "run"
    scored = cli("score", "--corpus", inputs / "corpus", "--grammars", inputs / "grammars",
                 "--specs", inputs / "specs", "--out", out)
    assert scored == (0, f"scored 2 documents -> {out / 'scores.csv'}\n", "")
    best = GOLD[1]
    assert (out / "scores.csv").read_text() == (
        "doc_id,pattern_id,n_steps,tree_f1,tree_precision,tree_recall,best_gold_tree,bleu,rouge_l,"
        "diagnostics_count\n"
        f"o1,order,5,1.000000,1.000000,1.000000,{best},,,1\n"
        f"o2,order,5,1.000000,1.000000,1.000000,{best},,,0\n"
    )
    for doc_id, digest in REPORT_SHA256.items():
        report = (out / "reports" / f"{doc_id}.json").read_bytes()
        assert json.loads(report)["subtree_trace"] == TRACES[doc_id]
        assert sha256(report) == digest


@pytest.mark.parametrize("doc_id", DOCS)
def test_build_and_extract(inputs, doc_id):
    doc, spec = inputs / "corpus" / f"{doc_id}.json", inputs / "specs" / "order.json"
    code, out, err = cli("build", "--doc", doc, "--spec", spec)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["subtree_trace"], report["forest"]["trees"]) == (TRACES[doc_id], [GOLD[1]])
    assert sha256(out.encode()) == REPORT_SHA256[doc_id]
    code, out, err = cli("extract", "--doc", doc, "--spec", spec)
    assert (code, err) == (0, "")
    digest, pieces = EXTRACTED[doc_id]
    assert (json.loads(out)["pieces_per_step"], sha256(out.encode())) == (pieces, digest)


@pytest.mark.parametrize("doc_id,seed", INJECTED)
def test_inject_errors_draws_replacements_in_piece_order(inputs, tmp_path, doc_id, seed):
    out = tmp_path / "injected.json"
    code, stdout, stderr = cli("inject-errors", "--doc", inputs / "corpus" / f"{doc_id}.json",
                               "--spec", inputs / "specs" / "order.json", "--seed", seed,
                               "--wrong-piece", 3, "--out", out)
    assert (code, stdout, stderr) == (0, f"applied 3 edits -> {out}\n", "")
    digest, steps = INJECTED[doc_id, seed]
    assert (json.loads(out.read_bytes())["steps"], sha256(out.read_bytes())) == (steps, digest)


def test_a_spec_with_other_pieces_names_them_in_piece_order(inputs, tmp_path):
    specs, grammar = inputs / "other-specs", inputs / "grammars"
    assert cli("score", "--corpus", inputs / "corpus", "--grammars", grammar, "--specs", specs,
               "--out", tmp_path / "run") == (2, "", (
        f"error: {specs / 'order.json'} and {grammar / 'order.grammar'} have different pieces "
        "for pattern 'order': only in the spec: B3, B12; only in the grammar: B, B2, B10\n"
    ))


def test_the_adapter_posts_the_inventory_in_piece_order(inputs, scripted_server):
    body = b'{"pieces": ["A", "Bl"]}'
    scripted_server.replies = [b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)]
    code, out, err = cli("extract", "--doc", inputs / "corpus" / "o1.json", "--spec",
                         inputs / "specs" / "order.json", "--extractor", "adapter",
                         "--adapter-url", scripted_server.url)
    assert (code, err) == (0, "")
    posted = [json.loads(r.partition(b"\r\n\r\n")[2]) for r in scripted_server.requests]
    assert [r["step"] for r in posted] == DOCS["o1"]
    assert all(r["inventory"] == PIECE_ORDER for r in posted)


def test_specs_and_grammars_are_written_in_piece_order():
    spec = PatternSpec.from_json(SPEC)
    assert list(spec.to_json()["pieces"]) == PIECE_ORDER
    assert list(placeholder_spec("order", spec.inventory).pieces) == PIECE_ORDER
    grammar = parse_grammar(GRAMMAR)
    assert grammar_to_text(grammar).splitlines()[1] == "pieces: " + " ".join(PIECE_ORDER)
    assert grammar.roots == ("ABBlB2B10_1",)


def test_unknown_pieces_are_named_in_piece_order(tmp_path):
    path = tmp_path / "unknown.grammar"
    path.write_text("pattern: x\npieces: A\nroots: AB2B10\nAB2B10 -> A B2B10\n")
    assert cli("validate-grammar", path) == (1, (
        f"{path}: INVALID\n"
        "  root AB2B10: unknown pieces B2, B10\n"
        "  AB2B10 -> A B2B10: unknown pieces B2, B10\n"
    ), "")


# Input orders of the pieces: text order, reversed piece order, and every
# 23rd permutation of the order the pattern lists them in.
INPUT_ORDERS = [sorted(SPEC["pieces"]), PIECE_ORDER[::-1],
                *map(list, itertools.islice(itertools.permutations(SPEC["pieces"]), 0, None, 23))]


@pytest.mark.parametrize("order", INPUT_ORDERS, ids="-".join)
def test_inventories_are_held_in_piece_order_whatever_the_input_order(order):
    names = {p: SPEC["pieces"][p] for p in order}
    specs = [PatternSpec("order", names), PatternSpec.from_json({"pattern_id": "order", "pieces": names})]
    text = GRAMMAR.replace("pieces: B10 A B2 Bl B", "pieces: " + " ".join(order))
    reference = parse_grammar(GRAMMAR)
    grammars = [parse_grammar(text), GoldGrammar("order", order, reference.roots, reference.rules)]
    for spec in specs:
        assert spec.inventory == tuple(PIECE_ORDER)
        assert list(spec.pieces) == PIECE_ORDER
        assert spec.pieces == SPEC["pieces"]
    for grammar in grammars:
        assert grammar.inventory == tuple(PIECE_ORDER)
        assert grammar == reference
    assert placeholder_spec("order", order).inventory == tuple(PIECE_ORDER)
