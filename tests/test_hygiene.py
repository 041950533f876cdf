"""Source hygiene: every name a module imports is used in that module."""
from __future__ import annotations

import ast
import pathlib

import pytest

import qsearch

PACKAGE_DIR = pathlib.Path(qsearch.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``__future__`` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"circuit", "decompose", "resources"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"
