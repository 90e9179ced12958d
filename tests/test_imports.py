"""Every name a module imports, and every private name it defines, is read
in that module, and no function keeps state in a module-level name."""

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


MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend", "insert",
        "pop", "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
        "update",
    }
)
CACHE_DECORATORS = frozenset({"cache", "lru_cache"})
# (module, function) pairs allowed a cache decorator: the benchmark's tracer
# reads `oracle._resolve_cached.cache_info()`
ALLOWED_CACHES = frozenset({("oracle", "_resolve_cached")})


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _same_scope(nodes):
    """The nodes and their descendants, not entering nested scopes."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _bound_names(nodes) -> set[str]:
    """Names the nodes bind in their own scope."""
    names = set()
    for node in _same_scope(nodes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _decorator_name(dec) -> str | None:
    dec = dec.func if isinstance(dec, ast.Call) else dec
    return dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)


def module_state_writes(source: str, cached_ok=frozenset()) -> list[str]:
    """Places where a function changes a module-level name, and cached functions.

    Inside a function (or lambda), a module-level name that is not local
    to it or to an enclosing function must not be the target of a
    subscript store or delete, nor the receiver of a mutating method
    call; a `global` statement is reported outright.  A function
    decorated with `cache` or `lru_cache` is reported unless its name is
    in `cached_ok`.  Work done at import time, outside any function, is
    not reported.
    """
    tree = ast.parse(source)
    module = _bound_names(tree.body)
    found = []

    def visit(node, func, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            decorators = getattr(node, "decorator_list", [])
            for dec in decorators:
                if _decorator_name(dec) in CACHE_DECORATORS and name not in cached_ok:
                    found.append(f"{name}: cached by {_decorator_name(dec)}")
            # decorators and defaults run in the enclosing scope
            for child in [*decorators, *node.args.defaults, *node.args.kw_defaults]:
                if child is not None:
                    visit(child, func, local)
            args = node.args
            params = {
                a.arg
                for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if a is not None
            }
            body = node.body if isinstance(node.body, list) else [node.body]
            declared = {
                n
                for stmt in _same_scope(body)
                if isinstance(stmt, (ast.Global, ast.Nonlocal))
                for n in stmt.names
            }
            scope = local | ((params | _bound_names(body)) - declared)
            for child in body:
                visit(child, name, scope)
            return
        if func is not None:
            if isinstance(node, ast.Global):
                found.extend(f"{n}: declared global in {func}" for n in node.names)
            target = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target, how = node.value, "subscript store"
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Del):
                target, how = node.value, "subscript delete"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                target, how = node.func.value, f".{node.func.attr}() call"
            if isinstance(target, ast.Name) and target.id in module and target.id not in local:
                found.append(f"{target.id}: {how} in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func, local)

    visit(tree, None, frozenset())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_keeps_state_in_a_module_global(path):
    ok = {f for mod, f in ALLOWED_CACHES if mod == path.stem}
    found = module_state_writes(path.read_text(), cached_ok=ok)
    assert [f"{path.stem}.{entry}" for entry in found] == []


def test_module_state_write_is_caught():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_CACHE = {}\n"
        "_SEEN = set()\n"
        "_TABLE = {'a': 1}\n"
        "_TABLE['b'] = 2\n"
        "_COUNT = 0\n"
        "def get(key):\n"
        "    _CACHE[key] = 1\n"
        "    while len(_CACHE) > 4:\n"
        "        _CACHE.pop(next(iter(_CACHE)))\n"
        "    return _CACHE[key]\n"
        "def forget(key):\n"
        "    del _CACHE[key]\n"
        "def bump():\n"
        "    global _COUNT\n"
        "    _COUNT += 1\n"
        "class Engine:\n"
        "    def see(self, x):\n"
        "        _SEEN.add(x)\n"
        "        self._memo = {}\n"
        "        self._memo[x] = _TABLE['a']\n"
        "def local_names(_SEEN, items):\n"
        "    _CACHE = {}\n"
        "    _CACHE.update(items)\n"
        "    _SEEN.append(1)\n"
        "    def inner():\n"
        "        _CACHE.clear()\n"
        "    return inner\n"
        "note = lambda x: _SEEN.discard(x)\n"
        "@lru_cache(maxsize=8)\n"
        "def solve(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def table(x):\n"
        "    return x\n"
        "@lru_cache\n"
        "def allowed(x):\n"
        "    return x\n"
    )
    assert module_state_writes(source, cached_ok={"allowed"}) == [
        "_CACHE: subscript store in get",
        "_CACHE: .pop() call in get",
        "_CACHE: subscript delete in forget",
        "_COUNT: declared global in bump",
        "_SEEN: .add() call in see",
        "_SEEN: .discard() call in <lambda>",
        "solve: cached by lru_cache",
        "table: cached by cache",
    ]


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
