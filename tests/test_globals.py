"""Every global name the library's code loads is bound.

A name that no module binds, say an exception class whose import was
removed, raises NameError only when its line runs, and a refusal that no
test reaches hides it. This walks the bytecode of every function and class
body instead: each LOAD_GLOBAL or LOAD_NAME must name something bound in
its module, a builtin, or a name its own class body stores.
"""

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
