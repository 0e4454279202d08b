"""Every module-level private helper in the package has a caller.

A stand-in for a linter's dead-code rule, on the standard library alone:
a function or class defined at the top level of a module under a name
that starts with one underscore must be referenced in the package
outside its own definition, by name, as an attribute or in an import.
A helper that only calls itself is dead too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "padicdx"


def _annotations(node: ast.AST) -> list:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return []


def _references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        for note in _annotations(sub):
            # a string annotation names what it uses inside the string
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _references(ast.parse(note.value, mode="eval"))
    return names


def _is_helper(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    )


def dead_helpers(src: pathlib.Path) -> list[str]:
    # one set of referenced names per top-level statement, so a helper's
    # own body is left out of its references
    statements = [
        (path, stmt)
        for path in sorted(src.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    refs = [_references(stmt) for _, stmt in statements]
    out = []
    for i, (path, stmt) in enumerate(statements):
        if _is_helper(stmt) and not any(
            stmt.name in names for j, names in enumerate(refs) if j != i
        ):
            out.append(f"{path.name}:{stmt.lineno}: {stmt.name}")
    return out


def test_every_private_helper_has_a_caller():
    assert len(list(SRC.glob("*.py"))) > 5
    assert dead_helpers(SRC) == []


def test_guard_sees_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _kept(n):\n    return 0 if n == 0 else _kept(n - 1)\n"
        "def _recursive_only(n):\n    return _recursive_only(n - 1)\n"
        "def _dead():\n    return 1\n"
        "class _Base:\n    def copy(self) -> '_Base':\n        return self\n"
        "def __getattr__(name):\n    return name\n"
        "def public():\n    '''_dead is named here only'''\n    return _kept(2)\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _Base\n"
        "def f():\n    return a._attr_used()\n"
        "def _attr_used(x: '_Base'):\n    return x\n"
    )
    assert dead_helpers(tmp_path) == ["a.py:3: _recursive_only", "a.py:5: _dead"]
