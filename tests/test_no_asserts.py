"""Library invariants raise exceptions: `python -O` strips `assert`.  The
library stays exact: no true division, float literal or float().  And only
the CLI reads the environment: the library takes its bounds as arguments."""

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


def _reads_environment(node) -> bool:
    """A use of `environ` or `getenv`, through `os.` or imported bare."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "getenv")
    return isinstance(node, ast.Name) and node.id in ("environ", "getenv")


def test_only_the_cli_reads_the_environment():
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes()
             if path.name != "cli.py" and _reads_environment(node)]
    assert found == []


def test_environment_scan_sees_each_form():
    for src in ("os.environ.get('X')", "os.environ['X']", "os.getenv('X')",
                "from os import environ; environ['X']", "getenv('X')",
                "'X' in os.environ"):
        assert any(map(_reads_environment, ast.walk(ast.parse(src)))), src
    for src in ("os.path.join(x)", "env = 1", "x.get('environ')"):
        assert not any(map(_reads_environment, ast.walk(ast.parse(src)))), src
