"""The benchmark's tracer wraps library functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


@pytest.mark.parametrize("module, fn", [
    (mod, fn) for mod, fns in _layers().items() for fn in fns])
def test_every_traced_function_exists(module, fn):
    mod = importlib.import_module(f"provrefine.{module}")
    assert callable(getattr(mod, fn, None)), f"provrefine.{module}.{fn}"
