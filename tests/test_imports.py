"""Every module of the package uses every name it imports."""

import ast
import pathlib

import pytest

import unobs_stab

MODULES = sorted(pathlib.Path(unobs_stab.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads; a name
    listed in __all__ counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_checker_flags_unused_and_accepts_all():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\n"
                     "from . import a as b, c\n__all__ = ['c']\nsys.exit(0)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "b")]
