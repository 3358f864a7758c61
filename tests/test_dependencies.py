"""The package imports nothing beyond the standard library and numpy."""
from __future__ import annotations

import ast
import pathlib
import sys

import htlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "htlab"}


def _imported_roots(path: pathlib.Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(pathlib.Path(htlab.__file__).parent.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {root}"
        for path in sources
        for root in _imported_roots(path) - ALLOWED
    }
    assert not foreign
