"""Checks on the package source itself rather than on its behaviour."""

import ast
import sys
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


def test_runtime_imports_are_stdlib_or_numpy():
    # scipy and the rest stay test-only: the package needs numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "xorcast"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, "imports outside the standard library and numpy: " + ", ".join(found)
