"""Every name a package module imports at module level is read there.

An import nothing reads still costs its compile and keeps a dependency
alive after the code that used it is gone.  `__init__` is exempt: its
imports are the public surface."""

import ast
from pathlib import Path

import pytest

import scatsym

PACKAGE = Path(scatsym.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _unread_imports(tree: ast.Module) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _unread_imports(tree) == []


def test_an_unread_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import pi, tau\n"
                     "print(os.sep, tau)\n")
    assert _unread_imports(tree) == ["pi (line 3)"]
