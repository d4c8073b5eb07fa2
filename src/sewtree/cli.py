"""Command-line front end.

Exit codes: 0 success, 1 validation failure, 2 I/O or configuration error.

``gen-gold`` and ``validate-grammar`` load only the grammar: this module's
body imports ``grammar``, ``tree`` and ``labels`` and no other module of
the package.  The names that only the eight other commands read are listed
in :data:`_DEFERRED`, and :func:`main` binds them before it runs one of
those commands; so does the first lookup of such a name on this module.  A
name already bound here when that happens is kept, so a name bound on
``sewtree.cli`` before :func:`main` (a wrapper or a test's stand-in) is
the one its command calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .grammar import DEFAULT_CAP, CapExceededError, GrammarError, enumerate_gold_trees, parse_grammar
from .labels import read_text
from .tree import canonical_serialize  # noqa: F401  (unused; perfbench/traced.py wraps it by name)

# The names only the commands past ``validate-grammar`` read, by the module
# that supplies them; a module's own name binds the module.
_DEFERRED = {
    "csv": ("csv",),
    "io": ("io",),
    "sewtree.adapter": ("AdapterConfig", "make_adapter_extractor"),
    "sewtree.experiments": ("RATING_QUESTIONS", "ErrorInjectionPlan", "RatingRecord", "aggregate_ratings",
                            "correlate_scores", "inject_errors", "permute_doc", "roundtrip_grammar",
                            "score_document"),
    "sewtree.pipeline": ("build_forest", "extract_document", "extract_once_per_run",
                         "extract_pieces_rule_based", "extractions_to_json", "load_doc", "load_spec"),
}


def _bind_deferred() -> None:
    """Import the modules of :data:`_DEFERRED` and bind each of their names
    here that is not bound yet."""
    namespace = globals()
    for module_name, names in _DEFERRED.items():
        __import__(module_name)
        module = sys.modules[module_name]
        for name in names:
            namespace.setdefault(name, module if name == module_name else getattr(module, name))


def __getattr__(name: str):
    """A deferred name looked up on this module before :func:`main` bound
    it, as ``getattr(sewtree.cli, "score_document")`` does (PEP 562)."""
    if any(name in names for names in _DEFERRED.values()):
        _bind_deferred()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    """Missing or inconsistent inputs (wrong paths, unknown pattern ids)."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _write(parts, path=None) -> None:
    """The strings ``parts``, one after another, to the file ``path`` or,
    without one, to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values the
    commands write: dicts with text keys, lists, tuples (named ones too),
    texts and ints; any other type is a ``TypeError``.  ``pad`` starts the
    lines of the enclosing level.  Only texts go through ``json.dumps``: with
    an indent it takes the pure-Python encoder, which leaves a cycle of
    closures per call for the collector."""
    if isinstance(value, str):
        return json.dumps(value)
    if type(value) is int:
        return str(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        opening, closing = "[]"
        items = [_dumps(item, inner) for item in value]
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        opening, closing = "{}"
        items = [json.dumps(key) + ": " + _dumps(value[key], inner) for key in sorted(value)]
    else:
        raise TypeError(f"a {type(value).__name__} is not written as JSON")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + pad + closing


def _write_json(payload, path=None) -> None:
    """``payload`` as indented JSON with sorted keys, to the file ``path``
    or, without one, to stdout."""
    _write((_dumps(payload) + "\n",), path)


def _write_gold(pattern_id: str, trees, path=None) -> None:
    """``{"pattern_id": pattern_id, "trees": trees}`` byte for byte as
    :func:`_write_json` writes it, with the tree texts joined rather than
    encoded: a tree text holds only label characters, brackets and spaces
    (``[A-Za-z0-9_() ]``: a label is its text, the grammar's
    ``labels.LabelReader`` checks every piece text of its inventory, and a
    counter is written in ASCII digits), which JSON writes as they are, so
    only the free-text ``pattern_id`` goes through the encoder
    (:func:`_dumps` would encode every tree text, several times as slowly
    on a large gold set).  Head, body and tail are written one after
    another, so no copy of the whole output is made."""
    head = '{\n  "pattern_id": ' + json.dumps(pattern_id) + ',\n  "trees": ['
    if trees:
        _write((head + '\n    "', '",\n    "'.join(trees), '"\n  ]\n}\n'), path)
    else:
        _write((head + "]\n}\n",), path)


def _write_report(doc_id: str, report, path=None) -> None:
    """``doc_id`` and the build report ``report`` as :func:`_write_json`
    writes them, each diagnostic as ``[step_index, kind, message]`` and each
    trace entry as ``[i, text]``."""
    _write_json({
        "diagnostics": report.diagnostics,
        "doc_id": doc_id,
        "forest": {
            "isolated_leaves": [t for t in report.forest if not t.startswith("(")],
            "trees": [t for t in report.forest if t.startswith("(")],
        },
        "subtree_trace": report.subtree_trace,
    }, path)


def _load_dir(directory, pattern: str, load, key: str, kind: str) -> tuple[dict, dict]:
    """``load`` of each file in ``directory`` whose name matches
    ``pattern``, by its ``key`` attribute, and the file of each key.  A
    directory with no such file is a ``ConfigError`` (``no <kind> in
    <directory>``), as are two files with one key, naming both."""
    directory = Path(directory)
    files = sorted(directory.glob(pattern))
    if not files:
        raise ConfigError(f"no {kind} in {directory}")
    items, origins = {}, {}
    for path in files:
        item = load(path)
        value = getattr(item, key)
        if value in origins:
            raise ConfigError(f"{origins[value]} and {path} have the same {key} {value!r}")
        items[value] = item
        origins[value] = path
    return items, origins


def _load_grammar_file(path: Path):
    text = read_text(path)
    try:
        return parse_grammar(text)
    except GrammarError as exc:
        raise GrammarError(f"{path}: {exc}") from exc


# The adapter options by the AdapterConfig argument each one sets.  They
# have no defaults of their own, AdapterConfig's apply, so an option is on
# the namespace exactly when it was given.
_ADAPTER_OPTIONS = {
    "url": "--adapter-url",
    "timeout": "--adapter-timeout",
    "retries": "--adapter-retries",
    "fallback_to_rules": "--adapter-fallback",
}


def _make_extractor(args):
    """The run's extractor, which extracts each distinct step and inventory
    once (a successful adapter reply too, but no fallback).  An adapter
    option without ``--extractor adapter`` is a ``ConfigError`` naming it."""
    given = {dest: getattr(args, dest) for dest in _ADAPTER_OPTIONS if hasattr(args, dest)}
    if args.extractor != "adapter":
        if given:
            options = ", ".join(_ADAPTER_OPTIONS[dest] for dest in given)
            raise ConfigError(f"{options} given without --extractor adapter")
        return extract_once_per_run(extract_pieces_rule_based)
    if not given.get("url"):
        raise ConfigError("--adapter-url is required with --extractor adapter")
    return extract_once_per_run(make_adapter_extractor(AdapterConfig(**given)))


def _add_extractor_args(parser) -> None:
    parser.add_argument("--extractor", choices=["rule-based", "adapter"], default="rule-based")
    unset = argparse.SUPPRESS
    parser.add_argument("--adapter-url", dest="url", default=unset)
    parser.add_argument("--adapter-timeout", dest="timeout", type=float, default=unset)
    parser.add_argument("--adapter-retries", dest="retries", type=int, default=unset)
    parser.add_argument(
        "--adapter-fallback",
        dest="fallback_to_rules",
        action="store_true",
        default=unset,
        help="fall back to rule-based extraction when the adapter fails",
    )


def cmd_gen_gold(args) -> int:
    if args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    path = Path(args.grammar)
    grammar = _load_grammar_file(path)
    try:
        trees = enumerate_gold_trees(grammar, args.cap)
    except CapExceededError as exc:
        raise GrammarError(f"{path}: pattern {grammar.pattern_id!r}: {exc}") from exc
    _write_gold(grammar.pattern_id, trees, args.out)
    return 0


def cmd_validate_grammar(args) -> int:
    failed = False
    for path in args.grammars:
        text = read_text(path)
        try:
            parse_grammar(text)
        except GrammarError as exc:
            failed = True
            print(f"{path}: INVALID")
            for problem in exc.problems:
                print(f"  {problem}")
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


def _load_doc_and_spec(args):
    """The ``--doc`` and ``--spec`` of a one-document command; a document
    for another pattern than the spec's is a ``ConfigError``."""
    doc = load_doc(args.doc)
    spec = load_spec(args.spec)
    if doc.pattern_id != spec.pattern_id:
        raise ConfigError(
            f"document {doc.doc_id} is for pattern {doc.pattern_id!r}, "
            f"but {args.spec} is the spec of pattern {spec.pattern_id!r}"
        )
    return doc, spec


def cmd_extract(args) -> int:
    extractor = _make_extractor(args)
    doc, spec = _load_doc_and_spec(args)
    extractions = extract_document(doc, spec, extractor)
    _write_json(extractions_to_json(doc, extractions), args.out)
    return 0


def cmd_build(args) -> int:
    extractor = _make_extractor(args)
    doc, spec = _load_doc_and_spec(args)
    extractions = extract_document(doc, spec, extractor)
    report = build_forest(doc, extractions, spec)
    _write_report(doc.doc_id, report, args.out)
    return 0


def _check_inventories(spec_path, spec, grammar_path, grammar) -> None:
    """A spec whose pieces are not its grammar's is a ``ConfigError``
    naming both files and the pieces found in only one of them."""
    if spec.inventory == grammar.inventory:
        return
    in_grammar = set(grammar.inventory)
    only = [
        f"only in the {kind}: " + ", ".join(pieces)
        for kind, pieces in (("spec", [p for p in spec.inventory if p not in in_grammar]),
                             ("grammar", [p for p in grammar.inventory if p not in spec.pieces]))
        if pieces
    ]
    raise ConfigError(f"{spec_path} and {grammar_path} have different pieces "
                      f"for pattern {spec.pattern_id!r}: " + "; ".join(only))


def cmd_score(args) -> int:
    extractor = _make_extractor(args)
    by_id, _ = _load_dir(args.corpus, "*.json", load_doc, "doc_id", "documents")
    docs = [by_id[doc_id] for doc_id in sorted(by_id)]
    grammars, grammar_paths = _load_dir(
        args.grammars, "*.grammar", _load_grammar_file, "pattern_id", "grammar files"
    )
    specs, spec_paths = _load_dir(args.specs, "*.json", load_spec, "pattern_id", "specs")
    refs = {}
    if args.refs:
        refs, _ = _load_dir(args.refs, "*.json", load_doc, "pattern_id", "references")

    for doc in docs:
        if doc.pattern_id not in grammars:
            raise ConfigError(f"document {doc.doc_id}: no grammar for pattern {doc.pattern_id!r}")
        if doc.pattern_id not in specs:
            raise ConfigError(f"document {doc.doc_id}: no spec for pattern {doc.pattern_id!r}")
        if refs and doc.pattern_id not in refs:
            raise ConfigError(f"document {doc.doc_id}: no reference for pattern {doc.pattern_id!r}")
        _check_inventories(spec_paths[doc.pattern_id], specs[doc.pattern_id],
                           grammar_paths[doc.pattern_id], grammars[doc.pattern_id])
    results = [
        score_document(
            doc,
            grammars[doc.pattern_id],
            specs[doc.pattern_id],
            reference=refs.get(doc.pattern_id),
            extractor=extractor,
        )
        for doc in docs
    ]

    out_dir = Path(args.out)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    for doc, (_, report) in zip(docs, results):
        _write_report(doc.doc_id, report, reports_dir / f"{doc.doc_id}.json")
    rows = [row for row, _ in results]
    _write_csv(out_dir / "scores.csv", list(rows[0]), rows)
    print(f"scored {len(results)} documents -> {out_dir / 'scores.csv'}")
    return 0


def cmd_permute(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    doc = load_doc(args.doc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for permuted in permute_doc(doc, args.seed, args.k):
        _write_json(permuted.to_json(), out_dir / f"{permuted.doc_id}.json")
    print(f"wrote {args.k} permutations to {out_dir}")
    return 0


def cmd_inject_errors(args) -> int:
    doc, spec = _load_doc_and_spec(args)
    plan = ErrorInjectionPlan(args.swap, args.drop, args.wrong_piece)
    corrupted, applied = inject_errors(doc, plan, args.seed, spec)
    _write_json(corrupted.to_json(), args.out)
    print(f"applied {applied} edits -> {args.out}")
    return 0


def _read_table(path, required: tuple[str, ...], unique: str | None = None) -> list[tuple[int, dict]]:
    """Rows of a CSV file that must have the ``required`` columns and, if
    given, no value twice in the column ``unique``, each with the number of
    the line it ends on (blank lines are skipped and a quoted field can span
    lines, so rows and lines need not match).  A line the reader refuses (a
    field over its size limit) is named with its number."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        missing = [c for c in required if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column {missing[0]!r}")
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.reader.line_num}: {exc}") from exc
    if unique is not None:
        seen = set()
        for _, row in rows:
            if row[unique] in seen:
                raise ValueError(f"{path}: {unique} {row[unique]!r} appears more than once")
            seen.add(row[unique])
    return rows


def cmd_correlate(args) -> int:
    scores_rows = [row for _, row in _read_table(args.scores, ("doc_id", "n_steps"), unique="doc_id")]
    errors_rows = [row for _, row in _read_table(args.errors, ("doc_id", "errors"), unique="doc_id")]
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    results = correlate_scores(scores_rows, errors_rows, columns)
    if args.out:
        _write_csv(Path(args.out), list(results[0]), results)
    for row in results:
        print(f"{row['column']}: r={row['r']:.4f} t={row['t']:.4f} p={row['p']:.6f} (n={row['n']})")
    return 0


def cmd_roundtrip(args) -> int:
    grammars, _ = _load_dir(args.grammars, "*.grammar", _load_grammar_file, "pattern_id", "grammar files")
    failed = False
    for pattern_id in sorted(grammars):
        failures = roundtrip_grammar(grammars[pattern_id])
        if failures:
            failed = True
            print(f"{pattern_id}: FAIL")
            for message in failures:
                print(f"  {message}")
        else:
            print(f"{pattern_id}: PASS")
    return 1 if failed else 0


def cmd_aggregate_ratings(args) -> int:
    records = []
    required = ("doc_id", "step_index", "question", "rating")
    for lineno, row in _read_table(args.ratings, required):
        try:
            records.append(
                RatingRecord(
                    row["doc_id"],
                    int(row["step_index"]),
                    row["question"],
                    int(row["rating"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.ratings} line {lineno}: {exc}") from exc
    rows = aggregate_ratings(records)
    columns = ["doc_id"]
    for question in RATING_QUESTIONS:
        columns += [f"{question}_mean", f"{question}_above3", f"{question}_below3"]
    _write_csv(Path(args.out), columns, rows)
    print(f"aggregated {len(records)} ratings -> {args.out}")
    return 0


# The commands, in the order ``sewtree --help`` lists them.
COMMANDS = ("gen-gold", "validate-grammar", "extract", "build", "score", "permute",
            "inject-errors", "correlate", "roundtrip", "aggregate-ratings")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``sewtree`` parser with every command's subparser, or with only
    the subparser of ``command``, one of :data:`COMMANDS`.  A run that
    names its command needs no other, and the two parsers print the same
    help, usage and errors for it: the command list in the top-level usage
    line is written out in full.  (It is argparse's own text for the
    choices; the full parser keeps no metavar, since argparse names the
    missing command by it.)"""
    parser = argparse.ArgumentParser(
        prog="sewtree",
        description="Tree-based evaluation of step-by-step assembly instructions",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "gen-gold"):
        p = sub.add_parser("gen-gold", help="enumerate the gold trees of a grammar")
        p.add_argument("grammar")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)
        p.add_argument("--out")
        p.set_defaults(func=cmd_gen_gold)

    if command in (None, "validate-grammar"):
        p = sub.add_parser("validate-grammar", help="check grammar files")
        p.add_argument("grammars", nargs="+")
        p.set_defaults(func=cmd_validate_grammar)

    if command in (None, "extract"):
        p = sub.add_parser("extract", help="extract per-step piece mentions")
        p.add_argument("--doc", required=True)
        p.add_argument("--spec", required=True)
        p.add_argument("--out")
        _add_extractor_args(p)
        p.set_defaults(func=cmd_extract)

    if command in (None, "build"):
        p = sub.add_parser("build", help="build the predicted forest for a document")
        p.add_argument("--doc", required=True)
        p.add_argument("--spec", required=True)
        p.add_argument("--out")
        _add_extractor_args(p)
        p.set_defaults(func=cmd_build)

    if command in (None, "score"):
        p = sub.add_parser("score", help="score a corpus against its grammars")
        p.add_argument("--corpus", required=True)
        p.add_argument("--grammars", required=True)
        p.add_argument("--specs", required=True)
        p.add_argument("--refs", help="directory of gold reference documents for BLEU/ROUGE")
        p.add_argument("--out", required=True)
        _add_extractor_args(p)
        p.set_defaults(func=cmd_score)

    if command in (None, "permute"):
        p = sub.add_parser("permute", help="seeded step permutations of a document")
        p.add_argument("--doc", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_permute)

    if command in (None, "inject-errors"):
        p = sub.add_parser("inject-errors", help="seeded mechanical corruption of a document")
        p.add_argument("--doc", required=True)
        p.add_argument("--spec", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--swap", type=int, default=0, help="adjacent step swaps")
        p.add_argument("--drop", type=int, default=0, help="step deletions")
        p.add_argument("--wrong-piece", type=int, default=0, help="piece-label relabelings")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_inject_errors)

    if command in (None, "correlate"):
        p = sub.add_parser("correlate", help="Pearson correlation of scores vs errors per step")
        p.add_argument("--scores", required=True)
        p.add_argument("--errors", required=True)
        p.add_argument("--columns", default="tree_f1")
        p.add_argument("--out")
        p.set_defaults(func=cmd_correlate)

    if command in (None, "roundtrip"):
        p = sub.add_parser("roundtrip", help="linearize-and-rebuild every rule of each grammar")
        p.add_argument("--grammars", required=True)
        p.set_defaults(func=cmd_roundtrip)

    if command in (None, "aggregate-ratings"):
        p = sub.add_parser("aggregate-ratings", help="summarize step-level ratings per document")
        p.add_argument("--ratings", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_aggregate_ratings)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command not in ("gen-gold", "validate-grammar"):
        _bind_deferred()
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The ``sewtree`` process: :func:`main` on ``sys.argv``, then exit with
    its code.  However ``main`` ends, an argparse ``SystemExit`` included,
    the heap is frozen first: ``gc.freeze()`` moves every tracked object
    into the permanent generation in constant time, and the full
    collections the interpreter runs at shutdown skip that generation, so
    they no longer walk the whole heap.  The rest of shutdown is as before:
    streams are flushed, ``atexit`` handlers run, modules are torn down.
    Only cyclic garbage left at exit goes uncollected, which Python does not
    promise to finalize; every file a command writes is closed before
    ``main`` returns.  ``main`` never freezes, so in-process callers keep
    their heap as it is.  Stdout's last buffer is flushed here, not left to
    shutdown, also after argparse's ``SystemExit`` (``--help``): a flush
    that fails is ``error:`` and one line, exit 2, as ``main`` reports a
    failed write, and stdout is pointed at the null device so shutdown has
    nothing left to fail on."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 2
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
