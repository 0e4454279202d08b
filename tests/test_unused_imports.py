"""Every module-level import in the package is used.

A stand-in for a linter's unused-import rule (F401), on the standard
library alone: a name bound by a top-level import must be read somewhere
in its module, listed in ``__all__``, or carry ``# noqa: F401`` on a line
of its import statement.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "padicdx"


def _annotations(node: ast.AST) -> list:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return []


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in _annotations(node):
            # a string annotation names what it uses inside the string
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        span = lines[stmt.lineno - 1 : stmt.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append(f"{path.name}:{stmt.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .a import (  # noqa: F401\n    kept,\n)\n"
        "from .b import used, unused as alias\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Later') -> int:\n    return used(x)\n"
    )
    assert unused_imports(mod) == ["mod.py:2: os", "mod.py:6: alias"]
