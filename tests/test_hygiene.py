"""Source hygiene: every name a module imports is used in that module, no
module reads another module's private names, every name the benchmark's
tracer patches exists, and the tracer can trace one op of each workload."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

import qsearch

PACKAGE_DIR = pathlib.Path(qsearch.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_private_names(tree: ast.Module) -> set[str]:
    """Private names a module defines: functions, classes, assigned names
    and attributes, and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
            names.update(elt.value for elt in getattr(node.value, "elts", ()))
    return {name for name in names if _is_private(name)}


def _read_private_names(tree: ast.Module) -> dict[str, int]:
    """Private name -> line of every attribute read and ``from`` import."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if _is_private(node.attr):
                reads.setdefault(node.attr, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _is_private(alias.name):
                    reads.setdefault(alias.name, node.lineno)
    return reads


def _foreign_private_reads(sources: dict[str, str]) -> dict[str, dict[str, int]]:
    """Per module, the private names it reads that it does not define but
    another of the modules does."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: _defined_private_names(tree) for name, tree in trees.items()}
    out = {}
    for name, tree in trees.items():
        others = set().union(*(d for other, d in defined.items() if other != name))
        foreign = {attr: line for attr, line in _read_private_names(tree).items()
                   if attr not in defined[name] and attr in others}
        if foreign:
            out[name] = foreign
    return out


def test_no_module_reads_another_modules_private_names():
    sources = {p.name: p.read_text() for p in MODULES}
    assert _foreign_private_reads(sources) == {}
    # the check sees both kinds of read
    sources["probe.py"] = ("from . import decompose\n"
                           "from .circuit import _ARITY\n"
                           "def f(circuit):\n"
                           "    return decompose.ccz_gates, circuit._validate\n")
    sources["decompose.py"] = sources["decompose.py"].replace("ccz_gates", "_ccz_gates")
    sources["probe.py"] = sources["probe.py"].replace("ccz_gates", "_ccz_gates")
    assert _foreign_private_reads(sources) == {
        "probe.py": {"_ARITY": 2, "_ccz_gates": 4, "_validate": 4}}


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


_SEARCH_KEY = "0101"
_TRACED_OPS = {
    "measured": ["estimate", "--n", "6", "--m", "3", "--mode", "measured"],
    "naive": ["estimate", "--n", "7", "--m", "1", "--mode", "naive"],
    "search": ["search", "--db", str(ROOT / "data" / "people.json"),
               "--key", _SEARCH_KEY, "--return", "phone"],
}


@pytest.mark.parametrize("workload", sorted(_TRACED_OPS))
def test_the_benchmark_tracer_traces_one_op(workload, capsys):
    # the tracer's own tests sit outside the tier-1 paths; this one op per
    # workload fails here when a source change breaks what the tracer wraps
    from qsearch import cli

    spec = importlib.util.spec_from_file_location("traced_bench", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = _TRACED_OPS[workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if workload == "search":
            tracer.expect_search(argv[2], _SEARCH_KEY)
        span = tracer.begin_op(0)
        code = cli.main(argv)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.spans and all(span["end"] is not None for span in tracer.spans)
