"""A ratchet on library asserts, which ``python -O`` strips.

Library checks raise explicitly (``errors.InternalError`` for a bug, a
``DomainError`` for bad input).  The modules below still hold asserts; the
list may only shrink, and a module leaves it with its last assert.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snaketsys"
ALLOWED = {"realize.py", "snakes.py", "verify.py"}


def _assert_lines(path: Path) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]


def test_no_asserts_outside_allowlist():
    found = {path.name: _assert_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert found, f"no modules under {SRC}"
    assert {name: lines for name, lines in found.items() if lines and name not in ALLOWED} == {}
    assert sorted(name for name in ALLOWED if not found.get(name)) == []
