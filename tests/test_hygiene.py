"""Source hygiene: every name a module imports is used in that module, and
every name the benchmark's tracer patches exists."""
from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import qsearch

PACKAGE_DIR = pathlib.Path(qsearch.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def _traced_sites() -> list[tuple[str, str]]:
    """``(module, attribute)`` of every entry of the tracer's ``_CALL_SITES``
    and ``_ITERATION_SITES``, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    sites = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None)
                in ("_CALL_SITES", "_ITERATION_SITES")):
            for entry in node.value.elts:
                module, attr = entry.elts[:2]
                sites.append((module.value, attr.value))
    return sites


def test_every_traced_call_site_resolves():
    sites = _traced_sites()
    assert len(sites) > 20  # both lists were found
    sites.append(("qsearch.resources", "_expand_flat"))
    missing = [f"{module}.{attr}" for module, attr in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"the benchmark tracer patches missing names: {missing}"
