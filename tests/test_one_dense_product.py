"""The package multiplies dense integer lists in one place.

A function whose nested ``for`` loops do ``target[...] += x * y`` is a
copy of the schoolbook product; ``residue._mul_into`` is the one routine
that may hold it, so a change to the product algorithm is made once.  A
``-=`` loop, as in polynomial division, is another algorithm and is not
matched.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "padicdx"


def _is_multiply_accumulate(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Subscript)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Mult)
    )


def _holds_product_loop(func: ast.AST) -> bool:
    for outer in ast.walk(func):
        if not isinstance(outer, ast.For):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, ast.For):
                if any(_is_multiply_accumulate(n) for s in inner.body for n in ast.walk(s)):
                    return True
    return False


def product_loops(src: pathlib.Path) -> list[str]:
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _holds_product_loop(node):
                    out.append(f"{path.name}: {node.name}")
    return out


def test_one_function_holds_the_dense_product():
    assert len(list(SRC.glob("*.py"))) > 5
    assert product_loops(SRC) == ["residue.py: _mul_into"]


def test_guard_sees_a_copy_of_the_loop(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Poly:\n"
        "    def __mul__(self, o):\n"
        "        out = [0] * 9\n"
        "        for i, x in enumerate(self.num):\n"
        "            if x:\n"
        "                for j, y in enumerate(o.num):\n"
        "                    out[i + j] += x * y\n"
        "        return out\n"
        "def _divmod(rem, b, c):\n"
        "    for i in range(3):\n"
        "        for k, y in enumerate(b, i):\n"
        "            rem[k] -= c * y\n"
        "def _sum(out, a):\n"
        "    for x in a:\n"
        "        out[0] += x * x\n"
    )
    (tmp_path / "b.py").write_text(
        "def leibniz(rows, sums, bm):\n"
        "    for key, s in sums.items():\n"
        "        row = rows[key]\n"
        "        for i, x in enumerate(bm):\n"
        "            for t, y in enumerate(s, i):\n"
        "                row[t] += x * y\n"
    )
    assert product_loops(tmp_path) == ["a.py: __mul__", "b.py: leibniz"]
