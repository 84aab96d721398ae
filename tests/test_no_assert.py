"""Every module is parsed and searched for what the package must not use:
``assert``, which ``python -O`` strips, so no invariant relies on it;
``dataclasses``, because ``model.Record`` is the one value-type kind and
importing ``dataclasses`` costs every spawn ``inspect``, ``ast``, ``dis``
and ``tokenize``; and an unbounded cache on a module-level function, which
would grow with every input a long-lived process sees."""

import ast
from pathlib import Path

import pytest

import relaydof

MODULES = sorted(Path(relaydof.__file__).resolve().parent.glob("*.py"))


def _nodes(path):
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def _imports_dataclasses(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_cache(decorator) -> bool:
    """``cache`` or ``lru_cache(maxsize=None)``, bare or as ``functools.``."""
    if not isinstance(decorator, ast.Call):
        return _name(decorator) == "cache"
    maxsize = [*decorator.args[:1], *(k.value for k in decorator.keywords if k.arg == "maxsize")]
    return _name(decorator.func) == "lru_cache" and any(isinstance(v, ast.Constant) and v.value is None for v in maxsize)


def _unbounded_caches(tree) -> list[int]:
    """Lines of the unbounded cache decorators on module-level functions."""
    functions = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [d.lineno for f in functions for d in f.decorator_list if _unbounded_cache(d)]


def test_every_module_is_searched():
    names = {path.stem for path in MODULES}
    assert {"__init__", "analysis", "cli", "model", "region", "scaling", "schedule"} <= names


def test_the_scan_sees_a_dataclasses_import():
    for text in ("import dataclasses", "import os, dataclasses as dc", "from dataclasses import dataclass"):
        assert [_imports_dataclasses(node) for node in ast.parse(text).body] == [True]
    assert not _imports_dataclasses(ast.parse("from .model import dataclasses").body[0])


def test_the_scan_sees_an_unbounded_cache():
    unbounded = ["cache", "functools.cache", "lru_cache(maxsize=None)", "functools.lru_cache(None)"]
    bounded = ["lru_cache", "lru_cache()", "lru_cache(maxsize=64)", "functools.lru_cache(8)", "wraps(f)"]
    for decorator in unbounded + bounded:
        tree = ast.parse(f"@{decorator}\ndef f(x):\n    return x\n")
        assert _unbounded_caches(tree) == ([1] if decorator in unbounded else []), decorator
    # a cache made inside a function lives no longer than its call
    assert _unbounded_caches(ast.parse("def f():\n    @cache\n    def g(x):\n        return x\n")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    lines = [node.lineno for node in _nodes(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}; python -O strips them"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_dataclasses(path):
    lines = [node.lineno for node in _nodes(path) if _imports_dataclasses(node)]
    assert lines == [], f"{path.name} imports dataclasses on lines {lines}; use model.Record"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unbounded_process_wide_cache(path):
    lines = _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert lines == [], f"{path.name} caches without a bound at lines {lines}; give each cache a stated maxsize"
