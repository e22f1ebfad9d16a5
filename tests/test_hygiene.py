"""Checks on the package source itself rather than on its behaviour."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xorcast"


def test_no_bare_assert():
    # invariants raise package errors: python -O strips assert statements
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/xorcast: " + ", ".join(found)
