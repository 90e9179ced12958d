"""Every name a module imports, and every private name it defines, is read
in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symconn"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a loaded name anywhere in the
    module, including the bodies of functions, or is listed in `__all__`.
    `from __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted(set(imported) - used)


def unread_private_names(source: str) -> list[str]:
    """Private module-level names (`_f`, `_C`, `_CONST`) the module never reads.

    A name is private when it starts with one underscore and is bound at
    module level by a def, a class or an assignment.  It counts as read
    when it appears as a loaded name anywhere in the module.
    """
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, isqrt\n"
        "from typing import Callable\n"
        "__all__ = ['Callable']\n"
        "def f(x):\n"
        "    from fractions import Fraction\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["Fraction", "isqrt", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text()) == []


def test_unread_private_name_is_caught():
    source = (
        "import json\n"
        "__all__ = ['dump']\n"
        "_KEYS = ('h',)\n"
        "_unused, _LIMIT = 1, 2\n"
        "def _rat_out(f):\n"
        "    return str(f)\n"
        "class _Cache:\n"
        "    pass\n"
        "def dump(x):\n"
        "    _local = _KEYS\n"
        "    return json.dumps([_local, _LIMIT, _Cache, x])\n"
    )
    assert unread_private_names(source) == ["_rat_out", "_unused"]
