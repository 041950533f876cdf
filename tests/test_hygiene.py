"""Source hygiene: the package imports only the standard library, its
``__init__`` binds no names, every name a module imports is used in that
module, no module reads another module's private names, the package has
no import cycle, no gate kind is looked up per gate, only the IR and the
layouts name the registers, every field of a public record type is read
somewhere, every public function, class and method is used outside the
tests, every member name that two classes share is pinned, no keyword is
always passed as the same literal, the package defines only its three
error classes, every ``raise InputError`` has a row in the refusal table,
the simulators and the test oracles hold no float outside two named
helpers and no module binds a tolerance, no test file imports numpy,
only the two tallies construct a schedule, every part has a row in the
feed table, the build table counts every gate builder, every
module-level cap has a comment above it, every name the benchmark's
tracer patches exists, and the tracer can trace one op of each workload."""
from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import pathlib
import re
import sys
import typing
from collections import defaultdict

import pytest

import qsearch
from qsearch.circuit import GateKind, Part

from test_builds import WRAPPED
from test_circuit import PART_FEEDS
from test_cli import REFUSALS, input_error_sites

PACKAGE_DIR = pathlib.Path(qsearch.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
TESTS_DIR = ROOT / "tests"
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
    assert {p.stem for p in MODULES} >= {
        "__init__", "circuit", "decompose", "grover", "kernel", "resources"}


def test_the_package_init_binds_no_names():
    # callers import the module that defines a name; a facade is API to keep alive
    body = ast.parse((PACKAGE_DIR / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


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
                           "    return decompose.ccz_gates, circuit._grow\n")
    sources["circuit.py"] = sources["circuit.py"].replace("ccz_gates", "_ccz_gates")
    sources["probe.py"] = sources["probe.py"].replace("ccz_gates", "_ccz_gates")
    assert _foreign_private_reads(sources) == {
        "probe.py": {"_ARITY": 2, "_ccz_gates": 4, "_grow": 4}}


def _foreign_imports(text: str) -> set[str]:
    """Top-level names of the absolute imports, at any depth, that are
    neither the standard library nor ``qsearch``."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"qsearch"}


def test_the_package_imports_only_the_standard_library():
    # the package has no run-time dependency
    found = {p.name: names for p in sorted(PACKAGE_DIR.glob("*.py"))
             if (names := _foreign_imports(p.read_text()))}
    assert not found, f"imports outside the standard library: {found}"
    # the check sees module-level, call-time and annotation-only imports,
    # and spares the standard library, the package and relative imports
    probe = ("import os.path, numpy.linalg as la\n"
             "from collections import Counter\n"
             "from qsearch.sim import negate\n"
             "from . import grover\n"
             "def f():\n    import scipy\n"
             "if TYPE_CHECKING:\n    from sympy.core import Expr\n")
    assert _foreign_imports(probe) == {"numpy", "scipy", "sympy"}


def test_no_test_file_imports_numpy():
    # the tests compare exact values, so they import only pytest,
    # hypothesis, the package, the standard library and one another
    allowed = {"pytest", "hypothesis", *(p.stem for p in TESTS_DIR.glob("*.py"))}
    # the A/B tool and the line lister, which pytest does not collect, read
    # their ops from perfbench/workloads.py, which imports only the standard library
    also = {"ab_inprocess.py": {"perfbench"}, "traffic_lines.py": {"perfbench"}}
    assert not _foreign_imports((ROOT / "perfbench" / "workloads.py").read_text())
    found = {p.name: names for p in sorted(TESTS_DIR.glob("*.py"))
             if (names := _foreign_imports(p.read_text()) - allowed - also.get(p.name, set()))}
    assert not found, f"foreign imports under tests/: {found}"
    # an import is seen at any depth and a comment or string is spared
    probe = ("# import numpy\nimport pytest, oracles\n"
             "from hypothesis import given\n"
             "def f():\n    import numpy.random as npr\n    return 'import numpy'\n")
    assert _foreign_imports(probe) - allowed == {"numpy"}


def _package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module -> the other package modules it imports, at any depth: at
    module level, inside functions and under ``if TYPE_CHECKING:``."""
    modules = {name.removesuffix(".py") for name in sources}
    graph = {}
    for name, text in sources.items():
        found = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[1] for alias in node.names
                          if alias.name.startswith("qsearch.")}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "qsearch"):
                path = (node.module or "").removeprefix("qsearch").lstrip(".")
                found |= ({path.split(".")[0]} if path
                          else {alias.name for alias in node.names})
        module = name.removesuffix(".py")
        graph[module] = (found & modules) - {module}
    return graph


def _import_cycles(graph: dict[str, set[str]]) -> set[frozenset[str]]:
    """The strongly connected sets of two or more modules."""
    def reach(start):
        seen, todo = set(), [start]
        while todo:
            for nxt in graph[todo.pop()] - seen:
                seen.add(nxt)
                todo.append(nxt)
        return seen

    reached = {module: reach(module) for module in graph}
    return {frozenset(o for o in reached[m] if m in reached[o])
            for m in graph if m in reached[m]}


def test_the_package_has_no_import_cycle():
    # the kernel's circuits and report live in kernel.py, which both the
    # search driver and the resource reports import
    sources = {p.name: p.read_text() for p in MODULES}
    assert _import_cycles(_package_imports(sources)) == set()
    # the check sees a call-time import, and an absolute one for annotations
    for probe, other in (("def probe():\n    from . import decompose\n", "decompose"),
                         ("if TYPE_CHECKING:\n    import qsearch.sim\n", "sim")):
        probed = {**sources, "circuit.py": sources["circuit.py"] + probe}
        assert _import_cycles(_package_imports(probed)) == {frozenset({"circuit", other})}


_KIND_NAMES = {"GateKind", "_K"}


def _per_iteration_parts(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per item: a
    loop's body (and a while loop's test), and a comprehension's element
    and conditions and every iterable but the first, which runs once."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        first, *rest = node.generators
        return [*elements, *first.ifs, *(part for gen in rest for part in (gen.iter, *gen.ifs))]
    return []


def _kind_lookups_per_item(tree: ast.Module) -> list[int]:
    """Lines of every ``GateKind.<member>`` or ``_K.<member>`` load that
    runs once per item of a loop or comprehension."""
    lines = set()
    for loop in ast.walk(tree):
        for part in _per_iteration_parts(loop):
            for node in ast.walk(part):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in _KIND_NAMES
                        and node.attr in GateKind.__members__):
                    lines.add(node.lineno)
    return sorted(lines)


def test_no_gate_kind_is_looked_up_per_gate():
    # on Python 3.11 ``GateKind.X`` runs ``EnumType.__getattr__``, several
    # times the cost of a local; builders bind their kinds before the loop
    found = {p.name: lines for p in MODULES
             if (lines := _kind_lookups_per_item(ast.parse(p.read_text())))}
    assert not found, f"gate kinds looked up per item: {found}"
    # the check sees loop bodies, while tests, comprehension elements and
    # conditions and nested iterables, and spares what runs once
    probe = ("def probe(qubits, pairs):\n"
             "    x = GateKind.X\n"
             "    gates = [(x, (q,)) for q in qubits]\n"
             "    for kind in (GateKind.T, _K.TDG):\n"
             "        gates.append((GateKind.H, (qubits[0],)))\n"
             "    gates += [(_K.CNOT, pair) for pair in pairs]\n"
             "    gates += [g for g in gates if g[0] is not _K.Z]\n"
             "    while gates and gates[-1][0] is GateKind.S:\n"
             "        gates.pop()\n"
             "    odd = [q for k in GateKind.X.value for q in (GateKind.Z, k)]\n"
             "    return {q: GateKind.T for q in qubits}, GateKind.CZ, odd\n")
    assert _kind_lookups_per_item(ast.parse(probe)) == [5, 6, 7, 8, 10, 11]


_REGISTER_NAMES = {"Register", "REGISTER_ORDER"}


def _register_lines(tree: ast.Module) -> list[int]:
    """Lines that name ``Register`` or ``REGISTER_ORDER``: as a name, an
    attribute or an imported name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = {alias.name.rpartition(".")[2] for alias in node.names}
        else:
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if named & _REGISTER_NAMES:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_ir_and_the_layouts_name_registers():
    # circuit.py turns flat qubits into register labels and qdam.py places
    # the registers; every other module finds a qubit through a layout
    found = {p.name: lines for p in MODULES if p.name not in ("circuit.py", "qdam.py")
             and (lines := _register_lines(ast.parse(p.read_text())))}
    assert not found, f"register placement outside the layouts: {found}"
    # the check sees imports, aliased or not, names and attributes
    probe = ("from .circuit import Register as R\n"
             "import qsearch.circuit\n"
             "def f(sizes, register_sizes):\n"
             "    return sizes[qsearch.circuit.Register.DATA], R\n"
             "def g(order=REGISTER_ORDER):\n"
             "    return register_sizes\n")
    assert _register_lines(ast.parse(probe)) == [1, 4, 5]


def _record_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` of every annotated field of a public NamedTuple or
    dataclass the module defines."""
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or _is_private(node.name):
            continue
        bases = {ast.unparse(base) for base in node.bases}
        decorators = {ast.unparse(d).partition("(")[0] for d in node.decorator_list}
        if "NamedTuple" in bases or "dataclass" in decorators:
            fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)]
    return fields


def _unread_fields(defining: list[str], reading: list[str]) -> tuple[int, list[str]]:
    """How many record fields the ``defining`` sources declare, and those
    that no attribute read in the ``reading`` sources names."""
    fields = [f for text in defining for f in _record_fields(ast.parse(text))]
    read = {node.attr for text in reading for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return len(fields), [f for f in fields if f.partition(".")[2] not in read]


def test_every_record_field_is_read():
    # a field nothing reads is dead API: the package or the benchmark must use it
    package = [p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))]
    benchmark = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    checked, unread = _unread_fields(package, package + benchmark)
    assert checked > 35 and not unread, f"record fields never read: {unread}"
    probe = ("from typing import NamedTuple\n"
             "class Probe(NamedTuple):\n    used: int\n    dead_field: int\n"
             "class _Private(NamedTuple):\n    hidden_field: int\n"
             "def f(p):\n    return p.used\n")
    assert _unread_fields([probe], [probe]) == (2, ["Probe.dead_field"])


def _public_api(tree: ast.Module) -> list[str]:
    """Every public top-level function and class a module defines, and
    ``Class.method`` of every public method of those classes."""
    api = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_private(node.name):
            api.append(node.name)
            if isinstance(node, ast.ClassDef):
                api += [f"{node.name}.{stmt.name}" for stmt in node.body
                        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    return api


def _unused_api(defining: list[str], reading: list[str]) -> tuple[int, list[str]]:
    """How many public names the ``defining`` sources declare, and those
    that no name, attribute or imported name in the ``reading`` sources
    matches.  Like the record-field check, this matches by name alone."""
    api = [name for text in defining for name in _public_api(ast.parse(text))]
    used = set()
    for text in reading:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return len(api), [name for name in api if name.rpartition(".")[2] not in used]


def test_every_public_name_is_used_outside_the_tests():
    # a name only the tests call is dead API: it moves to tests/oracles.py
    package = [p.read_text() for p in MODULES]
    benchmark = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    checked, unused = _unused_api(package, package + benchmark)
    assert checked > 100 and not unused, f"public names nothing outside the tests uses: {unused}"
    # the check sees functions, classes and methods, counts names, attributes
    # and imports as uses, and spares private and dunder names
    probe = ("from .other import only_imported\n"
             "def only_imported():\n    pass\n"
             "def called():\n    return Probe().run\n"
             "def dead_function():\n    return called()\n"
             "def _private():\n    pass\n"
             "class Probe:\n"
             "    def run(self):\n        pass\n"
             "    def dead_method(self):\n        pass\n"
             "    def __len__(self):\n        return 0\n"
             "class DeadClass:\n    pass\n")
    assert _unused_api([probe], [probe]) == (
        7, ["dead_function", "Probe.dead_method", "DeadClass"])


def _calls_by_callee(sources: list[str]) -> dict[str, list[ast.Call]]:
    """Callee -> its call sites, for every function or class the sources
    define.  Callees match by bare name, as in :func:`_unused_api`."""
    trees = [ast.parse(text) for text in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in defined:
                    calls[callee].append(node)
    return calls


def _one_literal(values: list[ast.expr]) -> str | None:
    """The literal that every one of two or more ``values`` is, or None."""
    if len(values) < 2 or not all(isinstance(v, ast.Constant) for v in values):
        return None
    literals = {ast.unparse(v) for v in values}
    return literals.pop() if len(literals) == 1 else None


def _constant_keywords(sources: list[str]) -> dict[str, int]:
    """``callee(keyword=value)`` -> call sites, for every keyword of a
    function or class the sources define that two or more of its call
    sites pass, every one of them passes, and always as the same literal."""
    found = {}
    for callee, calls in _calls_by_callee(sources).items():
        passed: dict[str, list[ast.expr]] = defaultdict(list)
        for call in calls:
            for kw in call.keywords:
                if kw.arg is not None:
                    passed[kw.arg].append(kw.value)
        for arg, values in passed.items():
            literal = _one_literal(values)
            if len(values) == len(calls) and literal is not None:
                found[f"{callee}({arg}={literal})"] = len(values)
    return found


def _constant_positionals(sources: list[str]) -> dict[str, int]:
    """``callee(#k=value)`` -> call sites, for every positional argument k
    that each of two or more call sites of a function or class the sources
    define passes, always as the same literal.  A callee with a ``*args``
    call is skipped: that call's positions cannot be read."""
    found = {}
    for callee, calls in _calls_by_callee(sources).items():
        if any(isinstance(a, ast.Starred) for c in calls for a in c.args):
            continue
        for k in range(min((len(c.args) for c in calls), default=0)):
            literal = _one_literal([c.args[k] for c in calls])
            if literal is not None:
                found[f"{callee}(#{k}={literal})"] = len(calls)
    return found


def test_no_option_has_one_live_value():
    # a keyword every caller passes as the same literal is an option with
    # one live value: the other branch is dead code, and the default a trap
    found = _constant_keywords([p.read_text() for p in MODULES])
    assert not found, f"keywords always passed as one literal: {found}"
    # the check flags such a keyword, and spares one passed with two
    # values, at a single site, as a non-literal or not at every site
    probe = ("def flagged(x, check=True):\n    pass\n"
             "def two_values(x, mode='a'):\n    pass\n"
             "def one_site(x, fast=False):\n    pass\n"
             "def non_literal(x, size=0):\n    pass\n"
             "def some_sites(x, strict=False):\n    pass\n"
             "def f(n):\n"
             "    flagged(1, check=False), flagged(2, check=False)\n"
             "    two_values(1, mode='a'), two_values(2, mode='b')\n"
             "    one_site(1, fast=True)\n"
             "    non_literal(1, size=n), non_literal(2, size=n)\n"
             "    some_sites(1, strict=True), some_sites(2, strict=True), some_sites(3)\n"
             "    return sorted(n, key=None), sorted(n, key=None)\n")
    assert _constant_keywords([probe]) == {"flagged(check=False)": 2}


def test_no_positional_argument_has_one_live_value():
    # a positional argument every caller passes as the same literal is a
    # parameter with one live value, as a keyword can be
    found = _constant_positionals([p.read_text() for p in MODULES])
    assert not found, f"positional arguments always passed as one literal: {found}"
    # the check flags such an argument at any position, and spares one
    # passed with two values, at a single site, as a non-literal, by keyword
    # at some site, or to a callee that some call passes *args
    probe = ("def flagged(x, y):\n    pass\n"
             "def two_values(x):\n    pass\n"
             "def one_site(x):\n    pass\n"
             "def non_literal(x):\n    pass\n"
             "def by_keyword(x, y=0):\n    pass\n"
             "def starred(x):\n    pass\n"
             "def f(n, args):\n"
             "    flagged(n, 0), flagged(1, 0)\n"
             "    two_values(1), two_values(2)\n"
             "    one_site(1)\n"
             "    non_literal(n), non_literal(n)\n"
             "    by_keyword(n, 1), by_keyword(n, y=1)\n"
             "    starred(*args), starred(1), starred(1)\n"
             "    return sorted(n, None), sorted(n, None)\n")
    assert _constant_positionals([probe]) == {"flagged(#1=0)": 2}


def _shared_member_names(sources: list[str]) -> dict[str, set[str]]:
    """Public method or field name -> the public classes that define it,
    for every name that two or more classes define."""
    owners = defaultdict(set)
    for text in sources:
        for node in ast.parse(text).body:
            if not isinstance(node, ast.ClassDef) or _is_private(node.name):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not name.startswith("_"):
                    owners[name].add(node.name)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


_SHARED_MEMBER_NAMES = {
    "to_json": {"ResourceReport", "SearchResult"},
    "n": {"ResourceReport", "QdamLayout"},
    "m": {"ResourceReport", "QdamLayout"},
    "gates": {"RecordBlock", "FanIn", "OneHotDecoder", "SyncBlock", "NaiveLoader"},
    "tally": {"Schedule", "NaiveLoader"},
    "feed_into": {"Circuit", "RecordBlock", "FanIn", "OneHotDecoder", "SyncBlock"},
    "register_sizes": {"QdamLayout", "NaiveLoader"},
}


def test_every_shared_member_name_is_pinned():
    # the field and API checks match a member by its bare name, so a dead
    # member that shares its name with a live one passes both; check that a
    # new owner of a shared name is read as its own class, then pin it here
    found = _shared_member_names([p.read_text() for p in MODULES])
    assert found == _SHARED_MEMBER_NAMES
    # the check sees methods and fields, and spares private classes, private
    # and dunder members, and names that only one class defines
    probe = ("class Probe:\n    size: int\n    def run(self):\n        pass\n"
             "    def _step(self):\n        pass\n"
             "class Other:\n    size: int = 0\n    def run(self):\n        pass\n"
             "    def _step(self):\n        pass\n    def __len__(self):\n        return 0\n"
             "class _Hidden:\n    def run(self):\n        pass\n"
             "class Lone:\n    alone: int\n    def __len__(self):\n        return 0\n")
    assert _shared_member_names([probe]) == {"size": {"Probe", "Other"},
                                             "run": {"Probe", "Other"}}


def _is_builtin_error(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _error_classes(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Sorted ``(module, class)`` of every class whose bases reach a builtin
    exception, directly or through classes the sources define by name."""
    classes = [(module, node.name, {ast.unparse(b).rpartition(".")[2] for b in node.bases})
               for module, text in sources.items() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef)]
    errors: set[tuple[str, str]] = set()
    while True:
        names = {name for _, name in errors}
        found = {(module, name) for module, name, bases in classes
                 if any(b in names or _is_builtin_error(b) for b in bases)}
        if found == errors:
            return sorted(errors)
        errors = found


_ERROR_CLASSES = [("errors", "CircuitError"), ("errors", "InputError"),
                  ("errors", "QsearchError")]


def test_the_package_defines_only_three_error_classes():
    # the CLI maps every QsearchError to exit 3 and prints its message, so a
    # finer class tells no caller more than the message does
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _error_classes(sources) == _ERROR_CLASSES
    # a leaf of a package error, a builtin's subclass and a second InputError
    # outside errors.py are each flagged; a plain class is not
    probe = ("from .errors import InputError\n"
             "class ExtraError(InputError):\n    pass\n"
             "class Deeper(ExtraError):\n    pass\n"
             "class Bad(ValueError):\n    pass\n"
             "class Plain:\n    pass\n")
    assert _error_classes({**sources, "probe": probe}) == sorted(
        [*_ERROR_CLASSES, ("probe", "Bad"), ("probe", "Deeper"), ("probe", "ExtraError")])
    assert _error_classes({**sources, "probe": "class InputError(Exception):\n    pass\n"}) \
        == sorted([*_ERROR_CLASSES, ("probe", "InputError")])


def test_every_input_error_has_a_refusal_row():
    # aim 3: every bad input exits 3 with its exact message, and the refusal
    # table pins each raise by its site; a raise with no row would go
    # unchecked, and a row whose site is gone would check nothing
    sites = {site for p in MODULES for site in input_error_sites(p.read_text(), p.stem)}
    assert sites == {row.site for row in REFUSALS}
    # and every row is a case of a test that runs it
    cases = [case for module in {row.test.partition("::")[0] for row in REFUSALS}
             for test in vars(importlib.import_module(module)).values()
             for case in getattr(test, "refusal_cases", ())]
    assert sorted(cases) == sorted({row.test for row in REFUSALS})
    # the sites are keyed per function and method, in source order, over
    # the lines of each call; other errors and unraised calls are spared
    probe = ("def f(x):\n    if x:\n        raise InputError('a')\n"
             "    raise InputError(\n        'b') from None\n"
             "class C:\n    def g(self):\n        raise InputError(f'{self}')\n"
             "def h():\n    error = InputError('c')\n    raise CircuitError('d')\n")
    assert input_error_sites(probe, "m") == {
        ("m", "f", 0): range(3, 4), ("m", "f", 1): range(4, 6), ("m", "C.g", 0): range(8, 9)}


def _float_phase_lines(text: str) -> list[int]:
    """Lines of every float or complex literal and every import of
    ``math``, at any depth."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.add(node.lineno)
        elif isinstance(node, ast.Import) and any(
                alias.name.partition(".")[0] == "math" for alias in node.names):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lines.add(node.lineno)
    return sorted(lines)


def _tolerance_names(text: str) -> list[str]:
    """Every name bound that ends in ``tolerance``, in any case: assigned
    names and attributes, functions, classes, parameters and imports."""
    bound = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            bound.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).rpartition(".")[2]
                         for alias in node.names)
    return sorted(name for name in bound if name.upper().endswith("TOLERANCE"))


# the test oracles' only float helpers: the reading of an exact value as a
# complex float, and the transcendental closed form of a probability
_FLOAT_HELPERS = {"to_complex", "success_probability_formula"}


def _float_lines_outside(text: str, helpers: set[str]) -> list[int]:
    """:func:`_float_phase_lines` less the lines of the top-level
    functions named in ``helpers``."""
    spared = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name in helpers:
            spared.update(range(node.lineno, node.end_lineno + 1))
    return [line for line in _float_phase_lines(text) if line not in spared]


def test_the_simulators_hold_no_float_and_no_tolerance():
    # both simulators and the tests' gate-by-gate reference are exact:
    # phases in eighth turns or powers of w, amplitudes in Z[w]/sqrt(2)^k,
    # so sim.py needs no float, oracles.py none outside its two float
    # helpers, and no module needs a tolerance
    assert _float_phase_lines((PACKAGE_DIR / "sim.py").read_text()) == []
    oracles = (TESTS_DIR / "oracles.py").read_text()
    assert _float_lines_outside(oracles, _FLOAT_HELPERS) == []
    assert _float_phase_lines(oracles), "the float helpers hold no float"
    found = {p.name: names for p in [*MODULES, TESTS_DIR / "oracles.py"]
             if (names := _tolerance_names(p.read_text()))}
    assert not found, f"tolerances bound in the package or the oracles: {found}"
    # a float in a named helper is spared, and one anywhere else is not
    helpers = ("def to_complex(amp):\n    return 0.5 * amp\n"
               "def exact(amp):\n    import math\n    return amp\n"
               "HALF = 0.5\n")
    assert _float_lines_outside(helpers, _FLOAT_HELPERS) == [4, 6]
    # the checks see float and complex literals and both forms of import,
    # and every way to bind a name, and spare ints, strings and other names
    probe = ("import math\n"
             "from math import sqrt as root\n"
             "from .sim import DROP_TOLERANCE\n"
             "PHASE = 1j\n"
             "HALF, ONE, NAME = 0.5, 1, 'tolerance 1e-9'\n"
             "def check(x, rel_tolerance=1e-12):\n"
             "    state.reload_tolerance = x\n"
             "class SomeTolerance:\n    pass\n")
    assert _float_phase_lines(probe) == [1, 2, 4, 5, 6]
    assert _tolerance_names(probe) == [
        "DROP_TOLERANCE", "SomeTolerance", "rel_tolerance", "reload_tolerance"]


def _schedule_builders(text: str) -> set[str]:
    """The dotted name of the function, method or class body, or
    ``<module>``, around every call that constructs a ``Schedule``, named
    or reached as an attribute."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            elif isinstance(child, ast.Call) and "Schedule" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(owner)
            visit(child, inner)

    visit(ast.parse(text), "<module>")
    return found


def test_only_the_two_tallies_construct_a_schedule():
    # every part feeds the caller's schedule, by its closed form or its
    # gates; a part that ran its block on a scratch schedule of its own
    # would show here
    found = {p.name: builders for p in MODULES
             if (builders := _schedule_builders(p.read_text()))}
    assert found == {"circuit.py": {"tally_flat"}, "kernel.py": {"measure_kernel"}}
    # the check sees names and attributes, in functions, methods, class
    # bodies and at top level, and spares a mere reference to the class
    probe = ("from .circuit import Schedule\n"
             "from . import circuit\n"
             "def scratch(n):\n"
             "    return Schedule(n), circuit.Schedule(0)\n"
             "class Part:\n"
             "    kind = Schedule\n"
             "    def feed_into(self, schedule):\n"
             "        run = [Schedule(0) for _ in range(2)]\n"
             "    class Inner:\n"
             "        empty = Schedule(0)\n"
             "TOP = Schedule(1)\n")
    assert _schedule_builders(probe) == {"<module>", "scratch", "Part.feed_into",
                                         "Part.Inner"}


def _part_names(part: object, sources: list[str]) -> set[str]:
    """The names of the members of the union ``part`` and of every class
    in ``sources``, at any depth, that defines ``feed_into``."""
    fed = {node.name for text in sources for node in ast.walk(ast.parse(text))
           if isinstance(node, ast.ClassDef) and any(
               isinstance(stmt, ast.FunctionDef) and stmt.name == "feed_into"
               for stmt in node.body)}
    return {cls.__name__ for cls in typing.get_args(part)} | fed


def test_every_part_has_a_row_in_the_feed_table():
    # a part's closed form is trusted only because feeding it equals
    # feeding its gates, which one property in test_circuit checks, row by
    # row; a part with no row would go unchecked
    sources = [p.read_text() for p in MODULES]
    rows = {cls.__name__ for cls in PART_FEEDS}
    assert _part_names(Part, sources) == rows
    # a class added to Part, or a class that defines feed_into, is flagged;
    # a method of another name, or a function named feed_into, is spared
    probe = ("class Scratch:\n    def feed_into(self, schedule, reverse=False):\n        pass\n"
             "class Other:\n    def feed(self, schedule):\n        pass\n"
             "def feed_into(schedule):\n    pass\n")
    assert _part_names(Part, [*sources, probe]) - rows == {"Scratch"}
    assert _part_names(Part | type("ScratchPart", (), {}), sources) - rows == {"ScratchPart"}


def _gate_builders(node: ast.AST, prefix: str = "") -> set[str]:
    """Each function and method under ``node`` whose return annotation names ``Gate``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found |= _gate_builders(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef) and child.returns and re.search(
                r"\bGate\b", ast.unparse(child.returns)):
            found.add(prefix + child.name)
    return found


# ``gate`` checks one hand-written gate, and ``Circuit.flat_gates`` returns
# the tuple a circuit stores: neither builds a gate list
_NOT_BUILDERS = {"circuit.gate", "circuit.Circuit.flat_gates"}


def test_the_build_table_counts_every_gate_builder():
    # the build table is exact only if its harness counts every builder
    builders = {f"{p.stem}.{name}" for p in MODULES
                for name in _gate_builders(ast.parse(p.read_text()))}
    assert _NOT_BUILDERS <= builders
    assert builders - _NOT_BUILDERS - WRAPPED == set()
    # the check sees functions and methods at any depth, quoted or not, and
    # spares other return types and unannotated functions
    probe = ("def scratch() -> list[Gate]: pass\n"
             "class Part:\n    class Inner:\n        def gates(self) -> 'tuple[Gate]': pass\n"
             "def kinds() -> GateKind: pass\ndef bare(): pass\n")
    assert _gate_builders(ast.parse(probe)) == {"scratch", "Part.Inner.gates"}


def _uncommented_caps(text: str) -> list[str]:
    """Every module-level ``MAX_*`` name with no comment line directly
    above it, or above the run of consecutive cap assignments it ends."""
    lines = text.splitlines()
    caps = {}  # last line of a cap assignment -> its first line
    found = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
        if not names:
            continue
        caps[node.end_lineno] = first = node.lineno
        while first - 1 in caps:
            first = caps[first - 1]
        if first < 2 or not lines[first - 2].lstrip().startswith("#"):
            found += names
    return found


def test_every_cap_carries_its_comment():
    # a cap on a report's or a command's size is a measurement: the comment
    # above it says what it keeps the run under, one block per run of caps
    found = {p.name: names for p in MODULES if (names := _uncommented_caps(p.read_text()))}
    assert not found, f"caps with no comment above them: {found}"
    # the check lets one block cover consecutive caps, however each is
    # written, and flags a cap after a blank line, after code or on line 1,
    # and spares other names and caps that are not at module level
    probe = ("MAX_FIRST = 0\n"
             "# measured: the first run of caps\n"
             "MAX_ONE = 1\n"
             "MAX_TWO: int = 2\n"
             "MAX_THREE = (\n    3)\n"
             "\n"
             "MAX_BARE = 4\n"
             "LIMIT = 5\n"
             "MAX_AFTER_CODE = 6\n"
             "# a second block\n"
             "MAX_A = MAX_B = 7\n"
             "def f():\n    MAX_LOCAL = 8\n")
    assert _uncommented_caps(probe) == ["MAX_FIRST", "MAX_BARE", "MAX_AFTER_CODE"]


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
    # workload fails here when a source change breaks what the tracer wraps,
    # or zeroes a per-layer metric that the tracer's suite pins non-zero
    from qsearch import cli, decompose, resources

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
    pinned = {"naive": "resources.expand_s", "search": "sim.apply_calls"}.get(workload)
    if pinned:
        assert tracer.metrics()[pinned][0] > 0, pinned
    # the name the tracer patches is the one lowering, not a second one
    assert resources.lower_circuit is decompose.lower_circuit
