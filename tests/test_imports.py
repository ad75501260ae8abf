"""Every name a module of the package imports is used in it: read off its
syntax tree, each import binds names that some expression of the module
loads.  `__init__.py` is left out, as it imports only to re-export.  And
every private module-level function or class of the package is loaded
somewhere in the package, so none is kept for the tests alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "eicat").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(tree):
    """The names bound by the imports of `tree` that no Name node loads,
    `from __future__` aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_the_scan_covers_the_package_and_finds_an_unused_import():
    assert len(SOURCES) >= 10
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from math import gcd, lcm\nprint(os.sep, lcm)\n")
    assert _unused_imports(tree) == [(2, "system"), (3, "gcd")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _orphaned_privates(trees):
    """(module, name) of each module-level function or class of the
    {module: syntax tree} `trees` whose name starts with one underscore and
    that no Name or Attribute node of any of the trees loads."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in loaded)


def test_the_scan_finds_a_private_function_no_module_loads():
    trees = {"a": ast.parse("def _used(): pass\ndef _left(): pass\nclass _Kept: pass\n"
                            "def __dunder__(): pass\ndef public(): return _used()\n"),
             "b": ast.parse("from . import a\nx = a._Kept\n")}
    assert _orphaned_privates(trees) == [("a", "_left")]


def test_every_private_function_or_class_is_loaded_by_the_package():
    assert _orphaned_privates({p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE}) == []
