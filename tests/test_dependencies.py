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


def _unused_imports(path: pathlib.Path) -> set[str]:
    """Names a module imports at top level but never reads (``__all__`` counts)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return bound - used


def test_package_imports_are_used():
    sources = sorted(pathlib.Path(htlab.__file__).parent.glob("*.py"))
    unused = {f"{path.name}: {name}" for path in sources for name in _unused_imports(path)}
    assert not unused
