"""No invariant of the package relies on ``assert``, which ``python -O``
strips: every module is parsed and searched for assert statements."""

import ast
from pathlib import Path

import pytest

import relaydof

MODULES = sorted(Path(relaydof.__file__).resolve().parent.glob("*.py"))


def test_every_module_is_searched():
    names = {path.stem for path in MODULES}
    assert {"__init__", "analysis", "cli", "model", "region", "scaling", "schedule"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}; python -O strips them"
