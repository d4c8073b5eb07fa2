"""Whole-process checks of ``python -m sewtree.cli``: each runs commands
in fresh interpreters, as a shell would, since exit codes, stderr and the
bytes left on disk are the contract.  Among them are the output-side
failures: a full device, an ``--out`` under a regular file and a reader
that closes its pipe early each end in exit 2 and one ``error:`` line.

The CLI contract lives in tier-1, each check once: the tests here and in
``test_cli.py`` and ``test_piece_order.py`` hold every command's scores,
report bytes, exit codes and one-line errors, and
``test_cli.test_process_exits_as_main_returns`` pins that the process
exits, prints and writes as ``main`` does in-process.  The workflow only
installs, runs tier-1, runs the installed console script and the
benchmark smoke; the last test here reads every source file as the
oldest Python of its matrix does."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sewtree.cli import COMMANDS
from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_to_text, random_grammar

from conftest import FIXTURES
from helpers import fresh_env, run_fresh

ROOT = Path(__file__).resolve().parent.parent
GRAMMARS, SPECS = FIXTURES / "grammars", FIXTURES / "specs"
SKIRT_GRAMMAR = GRAMMARS / "skirt.grammar"
SKIRT_DOC = FIXTURES / "docs" / "skirt-demo.json"
SKIRT_SPEC = SPECS / "skirt.json"
DEV_FULL = Path("/dev/full")
NO_SPACE = "error: [Errno 28] No space left on device\n"
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")


def cli(*argv) -> subprocess.CompletedProcess:
    return run_fresh("-m", "sewtree.cli", *map(str, argv))


def score(corpus: Path, out: Path) -> subprocess.CompletedProcess:
    return cli("score", "--corpus", corpus, "--grammars", GRAMMARS, "--specs", SPECS, "--out", out)


def test_a_grammar_keeps_its_scoring_tables_across_a_runs_documents(tmp_path):
    """Each row scored among the original and four permutations is the row
    that document gets when scored alone."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(SKIRT_DOC, corpus)
    assert cli("permute", "--doc", SKIRT_DOC, "--seed", 1, "--k", 4, "--out", corpus).returncode == 0
    assert score(corpus, tmp_path / "corpus-run").returncode == 0
    rows = (tmp_path / "corpus-run" / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 6
    for doc in corpus.glob("*.json"):
        alone = tmp_path / "alone" / doc.stem
        (alone / "corpus").mkdir(parents=True)
        shutil.copy(doc, alone / "corpus")
        assert score(alone / "corpus", alone / "run").returncode == 0
        assert (alone / "run" / "scores.csv").read_text(encoding="utf-8").splitlines()[-1] in rows


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["gen-gold", "--out", DEV_FULL, SKIRT_GRAMMAR],
        ["build", "--doc", SKIRT_DOC, "--spec", SKIRT_SPEC, "--out", DEV_FULL],
    ],
    ids=["gen-gold", "build"],
)
def test_out_on_a_full_device(argv):
    proc = cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", NO_SPACE)


@needs_dev_full
def test_stdout_on_a_full_device():
    """Stdout buffered, as a shell without ``PYTHONUNBUFFERED`` runs it: the
    last buffer is flushed before exit, also after argparse's exit."""
    for argv in (["gen-gold", SKIRT_GRAMMAR], ["--help"], ["gen-gold", "--help"]):
        with DEV_FULL.open("wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "sewtree.cli", *map(str, argv)],
                stdout=full, stderr=subprocess.PIPE, text=True, env=fresh_env(),
            )
        assert (proc.returncode, proc.stderr) == (2, NO_SPACE), argv


def test_score_out_under_a_regular_file(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    proc = score(FIXTURES / "docs", blocker / "run")
    under = str(blocker / "run" / "reports")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: [Errno 20] Not a directory: {under!r}\n")
    assert blocker.read_text(encoding="utf-8") == ""


def test_gen_gold_into_a_pipe_closed_after_one_byte(tmp_path):
    """The gold set is several times a pipe's 64 KiB buffer, so the
    writer is still writing when the reader goes, whatever the timing."""
    grammar = tmp_path / "pipe.grammar"
    grammar.write_text(
        grammar_to_text(random_grammar(SplitMix64(derive_seed(1, "pipe")), "pipe", 10, 100)),
        encoding="utf-8",
    )
    with subprocess.Popen(
        [sys.executable, "-m", "sewtree.cli", "gen-gold", str(grammar)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert (proc.returncode, stderr) == (2, b"error: [Errno 32] Broken pipe\n")


# Each command's help text, in the order ``sewtree --help`` lists them.
HELP = {
    "gen-gold": "enumerate the gold trees of a grammar",
    "validate-grammar": "check grammar files",
    "extract": "extract per-step piece mentions",
    "build": "build the predicted forest for a document",
    "score": "score a corpus against its grammars",
    "permute": "seeded step permutations of a document",
    "inject-errors": "seeded mechanical corruption of a document",
    "correlate": "Pearson correlation of scores vs errors per step",
    "roundtrip": "linearize-and-rebuild every rule of each grammar",
    "aggregate-ratings": "summarize step-level ratings per document",
}


def test_help_lists_every_command_with_its_help():
    """A run builds only the parser of its command, yet ``--help`` lists
    all ten, each beside its help text."""
    proc = run_fresh("-m", "sewtree.cli", "--help", COLUMNS="80")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(HELP) == list(COMMANDS)
    assert "".join(f"    {command:<20}{text}\n" for command, text in HELP.items()) in proc.stdout


def test_build_traces_the_grammars_rule_lines_in_file_order(tmp_path):
    """A rule is its text: building the skirt demo traces the lines of
    ``skirt.grammar``'s rules, in the order the file lists them."""
    out = tmp_path / "build.json"
    proc = cli("build", "--doc", SKIRT_DOC, "--spec", SKIRT_SPEC, "--out", out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    trace = [text for _, text in json.loads(out.read_bytes())["subtree_trace"]]
    rules = [line for line in SKIRT_GRAMMAR.read_text(encoding="utf-8").splitlines() if " -> " in line]
    assert trace == rules


def test_every_source_file_is_in_the_oldest_supported_grammar():
    """``requires-python = ">=3.10"``, the workflow's oldest leg: every
    module of the package, its tests and the benchmark parses as 3.10's
    grammar, which refuses ``except*`` and ``type X = int``."""
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
