"""Every binary operator of the value classes takes its operand one way.

``scalars._operand`` is the one function that turns a foreign operand
into ``NotImplemented``: an operator decorated with it receives the
operand its class's ``_check`` returned.  The only other functions that
return ``NotImplemented`` are the ``__eq__`` methods, where an operand
over another prime is unequal rather than ``MixedPrimes``: one for every
polynomial and operator class (``scalars._Ring``), and those of the two
classes outside it.  A hand-written prologue in a new operator is a
second copy of the rule, and this guard lists it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "padicdx"


def _returns_not_implemented(func: ast.AST) -> bool:
    """Whether func itself, not a function it defines, returns NotImplemented."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            if node.value.id == "NotImplemented":
                return True
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def not_implemented_sites(src: pathlib.Path) -> list[str]:
    """The functions that return NotImplemented, as "file: Outer.name"."""
    out = []

    def visit(node, prefix: str, filename: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef) and _returns_not_implemented(child):
                    out.append(f"{filename}: {prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", filename)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return out


def test_one_function_returns_not_implemented_for_an_operator():
    assert len(list(SRC.glob("*.py"))) > 5
    assert not_implemented_sites(SRC) == [
        "scalars.py: _operand.binary",
        "scalars.py: _Ring.__eq__",
        "scalars.py: PAdicScalar.__eq__",
        "weyl.py: ConnectionMatrix.__eq__",
    ]


def test_guard_sees_a_hand_written_prologue(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _operand(method):\n"
        "    def binary(self, other):\n"
        "        o = self._check(other)\n"
        "        if o is None:\n"
        "            return NotImplemented\n"
        "        return method(self, o)\n"
        "    return binary\n"
        "class Poly:\n"
        "    @_operand\n"
        "    def __add__(self, other):\n"
        "        return other\n"
        "    def __mul__(self, other):\n"
        "        o = self._check(other)\n"
        "        if o is None:\n"
        "            return NotImplemented\n"
        "        return o\n"
    )
    (tmp_path / "b.py").write_text(
        "class Norm:\n"
        "    def __lt__(self, other):\n"
        "        if not isinstance(other, Norm):\n"
        "            return NotImplemented\n"
        "        return False\n"
    )
    assert not_implemented_sites(tmp_path) == [
        "a.py: _operand.binary",
        "a.py: Poly.__mul__",
        "b.py: Norm.__lt__",
    ]
