"""Ratchets on library asserts, which ``python -O`` strips, and on unchecked constructors.

Library checks raise explicitly (``errors.InternalError`` for a bug, a
``DomainError`` for bad input).  No module may hold an assert, so the
allowlist below stays empty.  The ``_trusted`` constructors skip the datum
checks, so only the lusztig kernels whose plan check or move rule proves
their results valid may use them, and the reference oracles and the
random case generators stay in ``verify``, off the production path.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "snaketsys"
ALLOWED: set[str] = set()
TRUSTED_USES = {"lusztig.py": 4}  # two_move, apply_three_move, rho_step, rho
ORACLES = {"dual_vertex_datum", "epsilon_bruteforce", "omega_interval"}  # verify's own
GENERATORS = {"grow_snake", "random_snake", "random_vertex", "snake_candidates"}  # verify's own


def _assert_lines(path: Path) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]


def test_no_asserts_outside_allowlist():
    found = {path.name: _assert_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert found, f"no modules under {SRC}"
    assert {name: lines for name, lines in found.items() if lines and name not in ALLOWED} == {}
    assert sorted(name for name in ALLOWED if not found.get(name)) == []


def _trusted_lines(path: Path) -> list[int]:
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_trusted"
        or isinstance(node, ast.Name) and node.id == "_trusted"
    ]


def test_trusted_constructors_used_only_in_lusztig():
    found = {path.name: _trusted_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: len(lines) for name, lines in found.items() if lines} == TRUSTED_USES, found


def _naming_lines(path: Path, names: set[str]) -> list[int]:
    """The lines of path that name one of names: as a name, an attribute, an import or a definition."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]


def test_reference_oracles_stay_in_verify():
    # the dual datum, Omega_j as a preceq interval and the order-ideal
    # enumeration are oracles: no production module may name them
    found = {path.name: _naming_lines(path, ORACLES) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"verify.py"}, found


def test_case_generators_stay_in_verify():
    # random vertices and snakes, and the candidates they grow from, are
    # sweep case generators: no production module may name them
    found = {path.name: _naming_lines(path, GENERATORS) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"verify.py"}, found


def _verify_stdout(*python_flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "snaketsys.cli", "verify", "--suite", "all", "--trials", "10", "--seed", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_same_under_python_O():
    # no behaviour may depend on the asserts that python -O strips
    plain = _verify_stdout()
    assert plain.strip()
    assert _verify_stdout("-O") == plain
