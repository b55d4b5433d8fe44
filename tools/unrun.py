"""The raise lines of snaketsys that the tier-1 suite never reaches.

Runs tier-1 in this interpreter under a sys.settrace line tracer and prints,
as a Markdown list, every ``raise`` statement of the imported snaketsys
package whose line no test ran.  Code that only CLI subprocesses run is
not traced, so a raise that only they reach counts as unrun.
tests/test_budgets.py is left out: the tracer inflates its tracemalloc
peaks.  The suite's own output goes to stderr; the exit code is pytest's.

Run from the repository root:  PYTHONPATH=src python tools/unrun.py
"""
import ast
import contextlib
import glob
import os
import sys

import pytest

import snaketsys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(snaketsys.__file__))


def raise_lines(source: str) -> list[int]:
    """The first line of every raise statement of a module's source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on args, and the (file, line) pairs of snaketsys that the run executed."""
    ran: set[tuple[str, int]] = set()

    def trace(frame, event, _):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    with contextlib.redirect_stdout(sys.stderr):
        sys.settrace(trace)
        try:
            code = pytest.main(args)
        finally:
            sys.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--ignore=tests/test_budgets.py", "tests"])
    unrun, total = [], 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines, text = raise_lines(source), source.splitlines()
        total += len(lines)
        unrun += [(path, n, text[n - 1].strip()) for n in lines if (path, n) not in ran]
    print(f"Raise lines of snaketsys that tier-1 does not reach in process (Python {sys.version.split()[0]})")
    print()
    print(f"{len(unrun)} of {total} raise lines unrun:")
    print()
    for path, n, line in unrun:
        print(f"- `{os.path.relpath(path, ROOT)}:{n}` `{line}`")
    return code


if __name__ == "__main__":
    sys.exit(main())
