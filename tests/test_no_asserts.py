"""Library invariants raise exceptions: `python -O` strips `assert`.  And
the library stays exact: no true division, float literal or float()."""

import ast
from pathlib import Path

import blobcell

SRC = Path(blobcell.__file__).parent


def _nodes():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _inexact(node) -> bool:
    """True division, a float or complex literal, or a call of float."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def test_library_has_no_floats():
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes()
             if _inexact(node)]
    assert found == []


def test_float_scan_sees_each_form():
    for src in ("x / y", "x /= y", "x = 0.5", "x = 2j", "float(x)"):
        assert any(map(_inexact, ast.walk(ast.parse(src)))), src
    for src in ("x // y", "x = 5", "f(x)", "x.float(y)"):
        assert not any(map(_inexact, ast.walk(ast.parse(src)))), src
