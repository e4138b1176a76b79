"""Every global name the library's code loads is bound, and every name it
imports is used.

A name that no module binds, say an exception class whose import was
removed, raises NameError only when its line runs, and a refusal that no
test reaches hides it. This walks the bytecode of every function and class
body instead: each LOAD_GLOBAL or LOAD_NAME must name something bound in
its module, a builtin, or a name its own class body stores.

The other way round, an import that code moved elsewhere left behind is
found on the syntax tree: every name a module imports must be loaded in it,
annotations included. `__init__` imports only to export, so there the
imported names must be exactly `__all__`.
"""

import ast
import builtins
import dis
import importlib
import types
from pathlib import Path

import pytest

import posetval

SOURCES = sorted(p for p in Path(posetval.__file__).parent.glob("*.py")
                 if p.stem != "__main__")
LOADS = {"LOAD_GLOBAL", "LOAD_NAME"}


def code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def line_of(code, offset):
    for start, end, line in code.co_lines():
        if start <= offset < end:
            return line
    return None


def unbound_loads(path, namespace):
    """(code name, line, name) for each load of a name not bound."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for code in code_objects(module):
        instructions = list(dis.get_instructions(code))
        stored = {i.argval for i in instructions if i.opname == "STORE_NAME"}
        for i in instructions:
            if (i.opname in LOADS and i.argval not in namespace
                    and i.argval not in stored
                    and not hasattr(builtins, i.argval)):
                yield code.co_name, line_of(code, i.offset), i.argval


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_loaded_global_is_bound(path):
    name = ("posetval" if path.stem == "__init__"
            else "posetval." + path.stem)
    namespace = vars(importlib.import_module(name))
    assert list(unbound_loads(path, namespace)) == []


def test_an_unbound_global_is_found(tmp_path):
    # the check itself: a refusal whose exception class is not imported
    path = tmp_path / "probe.py"
    path.write_text("def f(x):\n    if x:\n        raise UnknownElement(x)\n"
                    "    return len(x)\n\n\nclass C:\n    k = 1\n"
                    "    j = k + missing\n")
    assert list(unbound_loads(path, {"__name__": "probe"})) == [
        ("f", 3, "UnknownElement"), ("C", 9, "missing")]


def imported_names(tree):
    """{bound name: line} for each import of the module, `from __future__`
    imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
    return names


def loaded_names(tree):
    """The names the module loads, with those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= loaded_names(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(path):
    """(line, name) for each imported name the module never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    loaded = loaded_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in loaded)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_package_exports_exactly_what_it_imports():
    init = Path(posetval.__file__)
    imported = imported_names(ast.parse(init.read_text(encoding="utf-8")))
    assert sorted(posetval.__all__) == sorted(imported)


def test_an_unused_import_is_found(tmp_path):
    # the check itself: an import left behind, beside imports used only in
    # an annotation (plain or quoted), an alias and a dotted module
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n\n"
                    "import os.path\nfrom dataclasses import dataclass, field\n"
                    "from .errors import NotConvergent as Refused\n"
                    "from .poset import Poset, UpperSet\n\n\n"
                    "def f(p: Poset) -> \"UpperSet\":\n"
                    "    return os.path.join(p)\n")
    assert unused_imports(path) == [(4, "dataclass"), (4, "field"),
                                    (5, "Refused")]


def unread_parameters(path):
    """(line, function, parameter) for each parameter of a function that
    its body never reads; dunder methods, whose signatures Python fixes,
    are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    unread = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        a = node.args
        params = filter(None, [*a.posonlyargs, *a.args, a.vararg,
                               *a.kwonlyargs, a.kwarg])
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, p.arg) for p in params
                   if p.arg not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_an_unread_parameter_is_found(tmp_path):
    # the check itself: a parameter only written, one never named, and
    # one read only by a nested function, beside a dunder left alone
    path = tmp_path / "probe.py"
    path.write_text("def f(a, b, *rest, c=1, **kw):\n    b = 2\n"
                    "    return a + len(kw)\n\n\n"
                    "def g(x):\n    def h():\n        return x\n"
                    "    return h\n\n\n"
                    "class C:\n    def __exit__(self, *exc):\n"
                    "        return None\n")
    assert unread_parameters(path) == [(1, "f", "b"), (1, "f", "rest"),
                                       (1, "f", "c")]
