"""Every module of the package uses every name it imports, and every public
function and class of the package has a caller outside the tests."""

import ast
import pathlib

import pytest

import unobs_stab

MODULES = sorted(pathlib.Path(unobs_stab.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(unobs_stab.__file__).resolve().parents[2]
# public names whose only callers are tests, on purpose
TEST_ONLY = {
    # the direct-summation oracle the Bessel and Gramian tests check against
    "shifted_bessel_sum",
    # kept until analyze reports it or it is deleted (ROADMAP item 4)
    "empirical_obstruction_radius",
}


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


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes whose names do not start with _."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_test_only_library_code():
    # callers count from the package itself, the demos and the benchmark
    callers = MODULES + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in callers))
    public = [name for path in MODULES
              for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(set(public) - used - TEST_ONLY) == []
    assert sorted(TEST_ONLY - set(public)) == []


def test_caller_check_sees_definitions_and_references():
    tree = ast.parse("import m\nfrom m import a\ndef f(): pass\nclass C: pass\n"
                     "def _g(): pass\nm.b(C)\n")
    assert public_definitions(tree) == ["f", "C"]
    assert referenced_names(tree) >= {"a", "b", "C", "m"}
    assert "f" not in referenced_names(tree)
