"""The benchmark tracer rebinds functions by (module, name); every name it
lists must still exist, or a traced run stops at its first lookup."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_constant(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_traced_target_exists():
    targets = _tracer_constant("TARGETS")
    assert targets
    missing = [f"scatsym.{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(f"scatsym.{mod}"),
                                       attr, None))]
    assert missing == []


def test_traced_caches_expose_cache_info():
    expr = importlib.import_module("scatsym.expr")
    cached = _tracer_constant("CACHED")
    assert set(cached) == {"canon", "poly", "free_vars"}
    for name in cached:
        assert callable(getattr(getattr(expr, name), "cache_info", None)), name
