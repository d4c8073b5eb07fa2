"""Whole-process checks of ``python -m sewtree.cli``: each runs commands
in fresh interpreters, as a shell would, since exit codes, stderr and the
bytes left on disk are the contract.  Among them are the output-side
failures: a full device, an ``--out`` under a regular file and a reader
that closes its pipe early each end in exit 2 and one ``error:`` line."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sewtree.rng import SplitMix64, derive_seed
from sewtree.synth import grammar_to_text, random_grammar

from conftest import FIXTURES
from helpers import fresh_env, run_fresh

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
    with DEV_FULL.open("wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sewtree.cli", "gen-gold", str(SKIRT_GRAMMAR)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=fresh_env(),
        )
    assert (proc.returncode, proc.stderr) == (2, NO_SPACE)


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
