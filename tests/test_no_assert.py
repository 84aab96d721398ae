"""Every module is parsed and searched for what the package must not use:
``assert``, which ``python -O`` strips, so no invariant relies on it; and
``dataclasses``, because ``model.Record`` is the one value-type kind and
importing ``dataclasses`` costs every spawn ``inspect``, ``ast``, ``dis``
and ``tokenize``."""

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


def test_every_module_is_searched():
    names = {path.stem for path in MODULES}
    assert {"__init__", "analysis", "cli", "model", "region", "scaling", "schedule"} <= names


def test_the_scan_sees_a_dataclasses_import():
    for text in ("import dataclasses", "import os, dataclasses as dc", "from dataclasses import dataclass"):
        assert [_imports_dataclasses(node) for node in ast.parse(text).body] == [True]
    assert not _imports_dataclasses(ast.parse("from .model import dataclasses").body[0])


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    lines = [node.lineno for node in _nodes(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}; python -O strips them"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_dataclasses(path):
    lines = [node.lineno for node in _nodes(path) if _imports_dataclasses(node)]
    assert lines == [], f"{path.name} imports dataclasses on lines {lines}; use model.Record"
