"""Every name a module of the package imports is used in it: read off its
syntax tree, each import binds names that some expression of the module
loads.  `__init__.py` is left out, as it imports only to re-export."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "eicat").glob("*.py")
                 if p.name != "__init__.py")


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
