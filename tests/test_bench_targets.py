"""The benchmark's tracer wraps functions by module and name.  A name that
no longer resolves is skipped there and its per-layer metric reads 0, so a
rename in ``sewtree`` must fail here instead."""

import importlib
import types
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_traced() -> types.ModuleType:
    """``perfbench/traced.py``, run from its source: nothing is written beside it."""
    module = types.ModuleType("traced")
    exec(compile(TRACED.read_text(encoding="utf-8"), str(TRACED), "exec"), module.__dict__)
    return module


def wrap_targets() -> list[tuple[str, str]]:
    traced = load_traced()
    return [
        *((module, name) for module, name, _ in traced.TARGETS),
        traced.ADAPTER_TARGET,
        # read after main() returns, for the derivation and LCS-cell counts
        ("sewtree.grammar", "count_derivations"),
        ("sewtree.metrics", "tokenize"),
    ]


@pytest.mark.parametrize("module,name", wrap_targets())
def test_wrap_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
