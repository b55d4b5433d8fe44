"""Deterministic budgets: counts that explain a speed claim without a timing.

Each budget is the figure measured when it was set (CPython 3.11); a rise
fails, and a change may lower a budget.  Raising one needs its reason and
the before and after figures in CHANGES.md.  Budgets explain timings and
never replace them.

- ``calls``: Python calls into snaketsys code during one warm call, as
  ``sys.setprofile`` sees them (a generator's every resumption counts).
  Calls into the standard library and builtins are left out, so the count
  does not depend on the interpreter's version.
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

Print the figures next to their budgets:  PYTHONPATH=src python tests/test_budgets.py
"""
import os
import random
import sys
import tracemalloc

import pytest

from snaketsys.lusztig import GAMMA_BIG_THETA, Carrier, VertexDatum, rho, unit_datum
from snaketsys.quivers import Vertex

MEASURED_ON = (3, 11)
PACKAGE = os.path.dirname(sys.modules["snaketsys"].__file__)

# the published rank-15 example: rho(e(P)) = e(P-dagger)
_N15 = ((9, 16), (9, 20), (8, 25), (7, 30), (8, 35), (9, 40))


def _unit(n):
    return unit_datum(Carrier(GAMMA_BIG_THETA, n), [Vertex(*v) for v in _N15])


def _dense(n):
    rng = random.Random(n)
    carrier = Carrier(GAMMA_BIG_THETA, n)
    return VertexDatum(carrier, {v: rng.randint(0, 9) for v in sorted(carrier.vertices())})


CASES = {
    "rho unit n=15": lambda: (rho, _unit(15)),
    "rho dense n=63": lambda: (rho, _dense(63)),
    "rho dense n=95": lambda: (rho, _dense(95)),
}

BUDGETS = {
    ("calls", "rho unit n=15"): 3,
    ("calls", "rho dense n=63"): 3,
    ("lines", "rho unit n=15"): 111,
    ("lines", "rho dense n=63"): 2_491,
    ("peak", "rho dense n=63"): 32_416,
    ("peak", "rho dense n=95"): 73_120,
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


MEASURES = {"calls": calls, "lines": lines, "peak": peak}


def measure(kind: str, case: str) -> int:
    return MEASURES[kind](*CASES[case]())


def ceiling(kind: str, case: str) -> int:
    budget = BUDGETS[kind, case]
    return budget if kind != "peak" or sys.version_info[:2] == MEASURED_ON else budget * 21 // 20


@pytest.mark.parametrize("kind, case", sorted(BUDGETS))
def test_budget(kind, case):
    assert measure(kind, case) <= ceiling(kind, case)


def main() -> None:
    print(f"Budgets (tests/test_budgets.py, Python {sys.version.split()[0]})")
    print()
    print("| budget | measured | ceiling |")
    print("|---|---:|---:|")
    for kind, case in sorted(BUDGETS):
        print(f"| {kind} {case} | {measure(kind, case):,} | {ceiling(kind, case):,} |")


if __name__ == "__main__":
    main()
