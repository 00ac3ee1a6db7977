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


def test_deduce_has_no_recursion():
    # Forced search must reach widths and heights far past the interpreter's
    # recursion limit, so no function in deduce.py may call itself, directly
    # or as a method, and no generator may delegate with `yield from`.
    tree = ast.parse((SRC / "deduce.py").read_text())
    self_calls = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.id if isinstance(callee, ast.Name) else
                        callee.attr if isinstance(callee, ast.Attribute) else None)
                if name == func.name:
                    self_calls.append(f"{func.name}:{node.lineno}")
    assert self_calls == []
    assert not any(isinstance(node, ast.YieldFrom) for node in ast.walk(tree))
