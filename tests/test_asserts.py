"""Ratchets on library asserts, which ``python -O`` strips, on unchecked constructors and on twins.

Library checks raise explicitly (``errors.InternalError`` for a bug, a
``DomainError`` for bad input).  No module may hold an assert, so the
allowlist below stays empty.  The ``_trusted`` constructors skip the datum
checks, so only the lusztig kernels whose plan check or move rule proves
their results valid may use them, and the reference oracles and the
random case generators stay in ``verify``, off the production path.  A
public form and its unchecked ``_name`` twin are one concept written twice,
so no new pair may appear.
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
TWINS_ALLOWED = {"quivers.py:HeightFunction.region"}  # region checks the flavor and the vertex, _region neither


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


def _twins(path: Path) -> list[str]:
    """Each name that path's module or one of its classes defines next to _name, as module:Class.name."""
    found = []
    tree = ast.parse(path.read_text())
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
        names = set()
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        prefix = f"{path.name}:" + (f"{scope.name}." if isinstance(scope, ast.ClassDef) else "")
        found += [prefix + name for name in sorted(names) if not name.startswith("_") and f"_{name}" in names]
    return found


def test_no_public_and_private_twins():
    # one implementation per concept: a module or class defines name or
    # _name, not both, save the allowlisted pairs
    found = {twin for path in sorted(SRC.glob("*.py")) for twin in _twins(path)}
    assert found == TWINS_ALLOWED


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
