"""Every module of the package uses every name it imports, every public
function and class of the package has a caller outside the tests, every
defaulted parameter of a top-level function is set by such a caller to
something other than its default, and no driver takes one input twice."""

import ast
import dataclasses
import pathlib
import typing

import pytest

import unobs_stab
from unobs_stab import sim

MODULES = sorted(pathlib.Path(unobs_stab.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(unobs_stab.__file__).resolve().parents[2]
# callers count from the package itself, the demos and the benchmark
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


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
    used = set().union(*(referenced_names(parse(p)) for p in CALLERS))
    public = [name for path in MODULES for name in public_definitions(parse(path))]
    assert sorted(set(public) - used) == []


def test_caller_check_sees_definitions_and_references():
    tree = ast.parse("import m\nfrom m import a\ndef f(): pass\nclass C: pass\n"
                     "def _g(): pass\nm.b(C)\n")
    assert public_definitions(tree) == ["f", "C"]
    assert referenced_names(tree) >= {"a", "b", "C", "m"}
    assert "f" not in referenced_names(tree)


def call_arguments(calling: list[ast.Module]) -> dict:
    """(called name, position or keyword) -> the argument nodes passed there,
    over every call in `calling`; a call counts by the name it calls, bare or
    as an attribute."""
    passed: dict = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                for slot, value in [*enumerate(node.args),
                                    *((kw.arg, kw.value) for kw in node.keywords)]:
                    passed.setdefault((name, slot), []).append(value)
    return passed


def options(defined: ast.Module):
    """(function, position or None, parameter, default node) of each
    defaulted parameter of a top-level function in `defined`."""
    for node in defined.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], start=first):
                yield node.name, i, a.arg, args.defaults[i - first]
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield node.name, None, a.arg, d


def unset_options(defined: ast.Module, calling: list[ast.Module]) -> list[str]:
    """function.parameter of each option in `defined` that no call in
    `calling` passes, by position or by keyword."""
    passed = call_arguments(calling)
    return [f"{name}.{arg}" for name, i, arg, _ in options(defined)
            if (name, arg) not in passed and (name, i) not in passed]


def default_only_options(defined: ast.Module, calling: list[ast.Module]) -> list[str]:
    """function.parameter of each option in `defined` with a literal default
    that every call in `calling` passing it sets to that same literal."""
    passed = call_arguments(calling)
    flagged = []
    for name, i, arg, default in options(defined):
        values = passed.get((name, arg), []) + passed.get((name, i), [])
        if values and isinstance(default, ast.Constant) and all(
                isinstance(v, ast.Constant) and v.value == default.value for v in values):
            flagged.append(f"{name}.{arg}")
    return flagged


def test_no_option_that_no_caller_sets():
    calling = [parse(p) for p in CALLERS]
    assert sorted(name for path in MODULES for name in unset_options(parse(path), calling)) == []


def test_option_check_sees_positions_and_keywords():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4): pass\nclass C:\n"
                     "    def g(self, h=5): pass\nf(0, 1)\nm.f(0, d=4)\n")
    assert unset_options(tree, [tree]) == ["f.c", "f.e"]


def test_no_option_set_only_to_its_default():
    calling = [parse(p) for p in CALLERS]
    assert sorted(name for path in MODULES
                  for name in default_only_options(parse(path), calling)) == []


def test_default_check_sees_positions_and_keywords():
    # c and g are set to other values somewhere, h is never passed
    tree = ast.parse("def f(a, b=1, c=2, d=3, *, e=4, g=5, h=6): pass\n"
                     "f(0, 1, c=2, d=3, e=4)\nm.f(0, 1, 7, e=4.0, g=x)\n")
    assert default_only_options(tree, [tree]) == ["f.b", "f.d", "f.e"]


@pytest.mark.parametrize("driver", [sim.run_finite_batch, sim.run_spectral_batch],
                         ids=lambda f: f.__name__)
def test_driver_inputs_stated_once(driver):
    # the dataclasses a driver takes share no field name, so no input (such
    # as mu) can be given twice and disagree
    seen: dict = {}
    for param, hint in typing.get_type_hints(driver).items():
        if dataclasses.is_dataclass(hint):
            for f in dataclasses.fields(hint):
                assert f.name not in seen, f"{f.name} in {seen.get(f.name)} and {param}"
                seen[f.name] = param
