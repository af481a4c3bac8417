"""The library makes no BLAS call, so its results and its speed do not
depend on how many threads the BLAS library starts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_CALLS = {"dot", "vdot", "inner", "matmul"}


def blas_uses(tree):
    """(line, what) of every ``@``, BLAS-backed call and ``linalg`` access."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                yield node.lineno, f"{name}()"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in n.split(".") for n in names):
                yield node.lineno, "linalg import"


def test_blas_uses_are_found():
    code = ("import numpy.linalg\nfrom numpy import linalg\na @ b\nc @= d\nnp.dot(a, b)\n"
            "a.dot(b)\ninner(a, b)\nnp.linalg.norm(a)\nnp.einsum('i,i->', a, a)\n")
    assert sorted(line for line, _ in blas_uses(ast.parse(code))) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_library_makes_no_blas_call():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in files for line, what in blas_uses(ast.parse(path.read_text()))]
    assert not found, found
