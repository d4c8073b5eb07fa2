"""The exit-code contract, over byte-mutated inputs: whatever a grammar,
document, spec or CSV holds, every command that reads it exits 0, 1 or 2
(argparse with ``SystemExit(2)``), says why on stderr as ``error: ...`` or
argparse's usage message and never with a traceback, and a run that exits
1 writes no ``--out`` file."""

import random
import shutil
from pathlib import Path

import pytest

from sewtree.cli import main

from conftest import FIXTURES

SEED = 26
TRIALS = 200

SCORES_CSV = b"doc_id,n_steps,tree_f1,bleu\nd0,5,1.0,0.9\nd1,5,0.6,0.7\nd2,4,0.2,0.8\n"
ERRORS_CSV = b"doc_id,errors\nd0,0\nd1,2\nd2,3\n"
RATINGS_CSV = b"doc_id,step_index,question,rating\nd0,0,S1,4\nd0,1,S2,2\nd1,0,S1,5\n"
REFERENCE = b"""{"pattern_id": "skirt", "doc_id": "skirt-ref", "steps": [
  "Sew the Over Skirt (A) to the Under Skirt (B).",
  "Sew the component containing the Over Skirt (A) to itself.",
  "Sew the component containing the Over Skirt (A) to the Waistband (C)."]}
"""

# Bytes that keep a mutated file close to its format: JSON and CSV
# punctuation, label characters, digits, whitespace and a UTF-8 lead byte.
STRUCTURE = b'{}[]",:\\-.0123456789_ABCSab()\n\t #>\xc3'


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to four byte edits: a byte replaced (by a random
    or a structural one), a bit flipped, a span deleted or repeated, bytes
    inserted, or the tail cut off."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(out) + 1)
        j = min(len(out), i + rng.randint(1, 16))
        kind = rng.randrange(6)
        if kind == 0 and i < len(out):
            out[i] = rng.choice(STRUCTURE) if rng.random() < 0.7 else rng.randrange(256)
        elif kind == 1 and i < len(out):
            out[i] ^= 1 << rng.randrange(8)
        elif kind == 2:
            del out[i:j]
        elif kind == 3:
            out[i:i] = out[i:j]
        elif kind == 4:
            out[i:i] = bytes(rng.choice(STRUCTURE) for _ in range(rng.randint(1, 4)))
        else:
            del out[i:]
    return bytes(out)


@pytest.fixture()
def inputs(tmp_path) -> dict[str, Path]:
    """A copy of the fixtures plus a reference and three CSVs."""
    for name in ("grammars", "docs", "specs"):
        shutil.copytree(FIXTURES / name, tmp_path / name)
    (tmp_path / "refs").mkdir()
    (tmp_path / "refs" / "skirt.json").write_bytes(REFERENCE)
    for name, data in (("scores.csv", SCORES_CSV), ("errors.csv", ERRORS_CSV), ("ratings.csv", RATINGS_CSV)):
        (tmp_path / name).write_bytes(data)
    return {name: tmp_path / name for name in ("grammars", "docs", "specs", "refs", "scores.csv",
                                                "errors.csv", "ratings.csv")} | {"out": tmp_path / "out"}


def commands_reading(path: Path, paths: dict[str, Path]) -> list[tuple[list, Path]]:
    """Each command that reads the file ``path``, as its arguments and its
    ``--out`` path."""
    out = paths["out"]
    doc, spec = paths["docs"] / "skirt-demo.json", paths["specs"] / "skirt.json"
    score = (["score", "--corpus", paths["docs"], "--grammars", paths["grammars"], "--specs", paths["specs"],
              "--refs", paths["refs"], "--out", out / "run"], out / "run")
    one_doc = [
        (["build", "--doc", doc, "--spec", spec, "--out", out / "build.json"], out / "build.json"),
        (["extract", "--doc", doc, "--spec", spec, "--out", out / "extract.json"], out / "extract.json"),
        (["inject-errors", "--doc", doc, "--spec", spec, "--seed", "1", "--swap", "1", "--wrong-piece", "1",
          "--out", out / "corrupted.json"], out / "corrupted.json"),
    ]
    parent = path.parent.name
    if parent == "grammars":
        return [(["validate-grammar", *sorted(paths["grammars"].iterdir())], None),
                (["gen-gold", path, "--out", out / "gold.json"], out / "gold.json"),
                (["roundtrip", "--grammars", paths["grammars"]], None),
                score]
    if path == doc:
        return [score, *one_doc,
                (["permute", "--doc", doc, "--seed", "1", "--k", "2", "--out", out / "perms"], out / "perms")]
    if path == spec:
        return [score, *one_doc]
    if parent in ("specs", "refs"):
        return [score]
    if path.name == "ratings.csv":
        return [(["aggregate-ratings", "--ratings", path, "--out", out / "summary.csv"], out / "summary.csv")]
    return [(["correlate", "--scores", paths["scores.csv"], "--errors", paths["errors.csv"],
              "--columns", "tree_f1,bleu", "--out", out / "correlation.csv"], out / "correlation.csv")]


def check_run(argv: list, out: Path | None, out_dir: Path, capsys, context: str) -> int:
    """Run ``main(argv)`` into a fresh output directory and check the
    contract; its exit code."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        assert exc.code == 2, f"{context}: argparse exit {exc.code}"
        code = None
    except Exception as exc:
        raise AssertionError(f"{context}: {exc!r} escaped main") from exc
    err = capsys.readouterr().err
    assert code in (0, 1, 2, None), f"{context}: exit {code}"
    assert "Traceback" not in err, context
    assert err == "" or err.startswith(("error: ", "usage: ")), f"{context}: stderr {err!r}"
    if code == 1 and out is not None:
        assert not out.exists(), f"{context}: exit 1 but {out} was written"
    return code


def test_mutated_inputs_keep_the_exit_code_contract(inputs, capsys):
    rng = random.Random(SEED)
    files = sorted(p for key in ("grammars", "docs", "specs", "refs") for p in inputs[key].iterdir())
    files += [inputs["scores.csv"], inputs["errors.csv"], inputs["ratings.csv"]]
    for path in files:
        for argv, out in commands_reading(path, inputs):
            assert check_run(argv, out, inputs["out"], capsys, f"unmutated {path.name}: {argv[0]}") == 0

    codes = {0: 0, 1: 0, 2: 0, None: 0}
    for trial in range(TRIALS):
        path = rng.choice(files)
        original = path.read_bytes()
        mutated = mutate(original, rng)
        path.write_bytes(mutated)
        try:
            for argv, out in commands_reading(path, inputs):
                context = f"trial {trial}: {argv[0]} with {path.name} = {mutated!r}"
                codes[check_run(argv, out, inputs["out"], capsys, context)] += 1
        finally:
            path.write_bytes(original)
    # The mutations reach past the first check: some runs still succeed and
    # some fail in validation, not only on unreadable bytes.
    assert codes[0] and codes[1] and codes[2], codes
