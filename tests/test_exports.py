"""Every name a module exports through ``__all__`` exists and star-imports."""
from __future__ import annotations

import importlib
import pathlib

import pytest

import htlab

MODULES = ["htlab"] + [
    f"htlab.{path.stem}"
    for path in sorted(pathlib.Path(htlab.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve_and_star_import(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
