"""Checks over the package source itself."""

import ast
import pathlib

import nanopose

SRC = pathlib.Path(nanopose.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts: invariants are raised as errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
