"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import charq

MODULES = sorted(p for p in Path(charq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported.discard("annotations")     # from __future__ import annotations
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports but never uses {unused}"
