"""Source checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tilechain"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so every re-verification in the
    # library must raise AssertionError explicitly.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
