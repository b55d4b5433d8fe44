"""Deterministic budgets: counts that explain a speed claim without a timing.

Each budget is the figure measured when it was set (CPython 3.11); a rise
fails, and a change may lower a budget.  Raising one needs its reason and
the before and after figures in CHANGES.md.  Budgets explain timings and
never replace them.

- ``calls``: Python calls into snaketsys code during one warm call, as
  ``sys.setprofile`` sees them (a generator's every resumption counts).
  Calls into the standard library and builtins are left out.  The count
  still depends on the interpreter's version: from 3.12 on it reads lower,
  since comprehensions are inlined there (PEP 709) and no longer count as
  calls.  The Q/R run kernel ``snakes._qr_run`` builds a D-conjugated
  pair's Q/R in two list comprehensions, so on 3.11 a relation with such
  pairs counts two calls more per pair; from 3.12 on it counts none.
- ``lines``: the snaketsys source lines run in one warm call, as
  ``sys.settrace`` sees them.  Work per layer coming back, such as a
  buffer allocated and copied back per layer, shows here.
- ``peak``: the ``tracemalloc`` peak of one warm call, in bytes above what
  was allocated before it.  It is the work list and the result tuple,
  both one slot per vertex, and the counts above 256, so a second list for
  the whole rank shows here; a buffer per layer, smaller than the result
  and freed before it is built, does not.  Object sizes can differ by a
  few bytes between interpreter versions, so off 3.11 the ceiling is 5%
  above the budget.
- ``held``: the ``tracemalloc`` bytes that the cached rho plans of the
  ``transport`` benchmark's ranks hold, taken in a fresh interpreter after
  their windows are built.  Tuples reused from the interpreter's free
  lists bypass ``tracemalloc``, so the figure would depend on what ran
  before: in process on the tests, and even on whether the imports read
  ``.pyc`` files.  So the measurement runs in a fresh interpreter and a
  full collection empties the free lists before tracing starts.  A second
  form of the plan kept beside the programs shows here.  Off 3.11 the
  ceiling is 5% above the budget.
- ``code lines``: a module's code lines, as ``tools/linecount.py`` counts
  them (no blank lines, comments or docstrings).  A module that grows
  fails; lowering a ceiling is always allowed.

Print the figures next to their budgets:  PYTHONPATH=src python tests/test_budgets.py
"""
import contextlib
import glob
import io
import os
import random
import runpy
import subprocess
import sys
import tracemalloc

import pytest

from snaketsys import cli
from snaketsys.lusztig import GAMMA_BIG_THETA, Carrier, VertexDatum, rho, unit_datum
from snaketsys.quivers import HeightFunction, Vertex
from snaketsys.reineke import epsilon_any
from snaketsys.realize import Realization, relation_monomials
from snaketsys.tsystem import extended_tsystem, tfd_via_epsilon
from snaketsys.verify import random_height_function, random_snake

MEASURED_ON = (3, 11)
PACKAGE = os.path.dirname(sys.modules["snaketsys"].__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
TRANSPORT_RANKS = (7, 15, 31, 63, 95)  # the ranks the transport benchmark warms

# the published rank-15 example: rho(e(P)) = e(P-dagger)
_N15 = ((9, 16), (9, 20), (8, 25), (7, 30), (8, 35), (9, 40))


def _unit(n):
    return unit_datum(Carrier(GAMMA_BIG_THETA, n), [Vertex(*v) for v in _N15])


def _dense(n):
    rng = random.Random(n)
    carrier = Carrier(GAMMA_BIG_THETA, n)
    return VertexDatum(carrier, {v: rng.randint(0, 9) for v in sorted(carrier.vertices())})


def _epsilon(n, delta, j):
    """One dense epsilon op of the epsilon benchmark: a seeded count in [0, 4] on every vertex of the window."""
    rng = random.Random(n)
    carrier = Carrier(f"gamma-delta:{delta}", n)
    datum = VertexDatum(carrier, {v: rng.randint(0, 4) for v in sorted(carrier.vertices())})
    return lambda d: epsilon_any(j, d), datum


def _quiver(argv):
    """One windows op: the quiver command in process, its stdout captured."""
    def command(args):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)
    return command, argv


def _relation(n, n0=None):
    """One relation op of the relations benchmark: a seeded prime snake of length 5 and its monomials."""
    rng = random.Random(5)
    xi = random_height_function(n, rng) if n0 is None else random_height_function(n, rng, "twisted", n0)
    real = Realization.qdatum_a(n) if n0 is None else Realization.qdatum_b(n0)
    while len(pts := random_snake(xi, rng, 5, prime=True)) < 5:
        pass
    return lambda points: relation_monomials(extended_tsystem(xi, points), real), pts


def _bridge(xi, probe, points, side="left"):
    """One tfd_via_epsilon probe left (or right) of a snake."""
    return lambda side: tfd_via_epsilon(xi, Vertex(*probe), [Vertex(*v) for v in points], side), side


CASES = {
    "rho unit n=15": lambda: (rho, _unit(15)),
    "rho dense n=63": lambda: (rho, _dense(63)),
    "rho dense n=95": lambda: (rho, _dense(95)),
    "rho plans n=7-95": lambda: (TRANSPORT_RANKS,),
    "epsilon dense n=12": lambda: _epsilon(12, 0, 6),  # j of the window's parity: the staircase runs
    "epsilon dense n=24": lambda: _epsilon(24, 0, 12),  # the benchmark's largest rank, on the widest Omega
    "quiver n=8": lambda: _quiver(["quiver", "--n", "8"]),
    "relation p=5 n=8": lambda: _relation(8),
    "relation p=5 n0=4": lambda: _relation(7, 4),
    # the published examples: tfd 1 on both flavors
    "bridge untwisted": lambda: _bridge(HeightFunction.untwisted([1, 2, 3]), (2, 0), ((2, 4), (1, 10))),
    "bridge untwisted right": lambda: _bridge(HeightFunction.untwisted([1, 2, 3]), (1, 10), ((2, 0), (2, 4)), "right"),
    "bridge twisted": lambda: _bridge(HeightFunction.big_theta(2), (3, 4), ((2, 9), (2, 11))),
    "bridge twisted right": lambda: _bridge(HeightFunction.big_theta(2), (2, 11), ((3, 4), (2, 9)), "right"),
    # tfd 1 through a probe translate of two factors, the first of which drops
    "bridge twisted two-factor": lambda: _bridge(HeightFunction.big_theta(3), (2, 0), ((3, 5), (4, 10))),
    **{os.path.basename(path): lambda path=path: (path,) for path in MODULES},
}

BUDGETS = {
    ("calls", "rho unit n=15"): 3,
    ("calls", "rho dense n=63"): 3,
    ("calls", "epsilon dense n=12"): 9,
    ("calls", "epsilon dense n=24"): 9,
    ("calls", "quiver n=8"): 165,
    ("calls", "relation p=5 n=8"): 17,
    ("calls", "relation p=5 n0=4"): 17,
    ("calls", "bridge untwisted"): 9,
    ("calls", "bridge untwisted right"): 13,
    ("calls", "bridge twisted"): 37,
    ("calls", "bridge twisted right"): 42,
    ("calls", "bridge twisted two-factor"): 47,
    ("lines", "rho unit n=15"): 130,
    ("lines", "rho dense n=63"): 2_258,
    ("peak", "rho dense n=63"): 32_416,
    ("peak", "rho dense n=95"): 73_120,
    ("held", "rho plans n=7-95"): 579_644,
    ("code lines", "__init__.py"): 47,
    ("code lines", "cli.py"): 211,
    ("code lines", "errors.py"): 28,
    ("code lines", "lusztig.py"): 256,
    ("code lines", "quivers.py"): 285,
    ("code lines", "realize.py"): 194,
    ("code lines", "reineke.py"): 74,
    ("code lines", "roots.py"): 37,
    ("code lines", "snakes.py"): 180,
    ("code lines", "tsystem.py"): 173,
    ("code lines", "verify.py"): 346,
}


def calls(fn, arg) -> int:
    """The snaketsys Python calls of one warm fn(arg)."""
    fn(arg)
    count = 0

    def profile(frame, event, _):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(before)
    return count


def lines(fn, arg) -> int:
    """The snaketsys source lines run by one warm fn(arg)."""
    fn(arg)
    count = 0

    def trace(frame, event, _):
        nonlocal count
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        count += event == "line"
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(arg)
    finally:
        sys.settrace(before)
    return count


def peak(fn, arg) -> int:
    """The tracemalloc peak of one warm fn(arg), in bytes above the memory allocated before it."""
    fn(arg)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(arg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


_HELD = """
import gc, sys, tracemalloc
from snaketsys.lusztig import GAMMA_BIG_THETA, GAMMA_THETA, Carrier, _layer_plan
ranks = tuple(map(int, sys.argv[1:]))
for n in ranks:
    Carrier(GAMMA_BIG_THETA, n).slots, Carrier(GAMMA_THETA, n).slots
gc.collect()  # a full collection empties the free lists
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
for n in ranks:
    _layer_plan(n)
print(tracemalloc.get_traced_memory()[0] - base)
"""


def held(ranks) -> int:
    """The tracemalloc bytes that the cached plans of the ranks hold, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(PACKAGE), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HELD, *map(str, ranks)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return int(proc.stdout)


LINECOUNT = runpy.run_path(os.path.join(ROOT, "tools", "linecount.py"))


def code_lines(path: str) -> int:
    """A module's code lines, as tools/linecount.py counts them."""
    with open(path, encoding="utf-8") as f:
        return LINECOUNT["count"](f.read())[1]


MEASURES = {"calls": calls, "lines": lines, "peak": peak, "held": held, "code lines": code_lines}


def measure(kind: str, case: str) -> int:
    return MEASURES[kind](*CASES[case]())


def ceiling(kind: str, case: str) -> int:
    budget = BUDGETS[kind, case]
    return budget if kind not in ("peak", "held") or sys.version_info[:2] == MEASURED_ON else budget * 21 // 20


@pytest.mark.parametrize("kind, case", sorted(BUDGETS))
def test_budget(kind, case):
    assert measure(kind, case) <= ceiling(kind, case)


def test_every_module_has_a_code_line_ceiling():
    assert sorted(case for kind, case in BUDGETS if kind == "code lines") == list(map(os.path.basename, MODULES))


def main() -> None:
    print(f"Budgets (tests/test_budgets.py, Python {sys.version.split()[0]})")
    print()
    print("| budget | measured | ceiling |")
    print("|---|---:|---:|")
    for kind, case in sorted(BUDGETS):
        print(f"| {kind} {case} | {measure(kind, case):,} | {ceiling(kind, case):,} |")


if __name__ == "__main__":
    main()
