"""Set-up cost of one workload, timed from outside by the benchmark.

Usage: python setup_child.py INPUT_DIR

Imports ``sewtree.cli`` and loads every grammar, spec and document under
INPUT_DIR through the public loaders.  It enumerates and scores nothing.
"""

import sys
from pathlib import Path


def main(root: Path) -> None:
    import sewtree.cli  # noqa: F401  (the import is part of set-up)
    from sewtree.grammar import parse_grammar
    from sewtree.pipeline import load_doc, load_spec

    for path in sorted(root.rglob("*.grammar")):
        parse_grammar(path.read_text(encoding="utf-8"))
    for path in sorted(root.glob("specs/*.json")):
        load_spec(path)
    for path in sorted(root.glob("corpus/*.json")) + sorted(root.glob("refs/*.json")):
        load_doc(path)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
