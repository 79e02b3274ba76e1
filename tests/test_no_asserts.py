"""Library invariants raise exceptions: `python -O` strips `assert`."""

import ast
from pathlib import Path

import blobcell

SRC = Path(blobcell.__file__).parent


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
