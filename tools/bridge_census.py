"""Which arms of the twisted tfd bridge a seeded sample reaches.

Draws twisted height functions of n0 = 2-4, snakes of 1 to 6 points and up
to four probes per side, strictly before the head (left) or after the tail
(right) and at most ntilde + 2 away, runs tfd_via_epsilon on each under a
sys.settrace line tracer, and prints as Markdown:

- the hits of every return and raise line of tsystem._untwisted_probe_tfd
  and tsystem._twisted_bridge, whose second return is the retry on the
  mirrored configuration; a line with 0 hits is an arm the sample never
  reached;
- the two-factor probe translates by whether the first factor, c1,
  interacts with the snake's head (lies in its prime window), the one test
  that picks their arm, both cases listed;
- the outcomes per side, each OutsideWindow by its message with the
  vertices elided.

Run from the repository root:  PYTHONPATH=src python tools/bridge_census.py [--seed S] [--snakes N]
"""
import argparse
import ast
import collections
import inspect
import os
import random
import re
import sys
import time

from snaketsys import tsystem
from snaketsys.errors import OutsideWindow
from snaketsys.snakes import _in_prime_window
from snaketsys.verify import random_height_function, random_snake

FUNCTIONS = (tsystem._untwisted_probe_tfd, tsystem._twisted_bridge)
TWO_FACTORS = {True: "OutsideWindow", False: "c1 dropped: epsilon of c2"}
VERTEX = re.compile(r"\(-?\d+,-?\d+(/2)?\)")


def arm_lines(fn) -> dict[int, str]:
    """The first line of each return and raise statement of a module-level function, with its text."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse("".join(lines))
    return {first + node.lineno - 1: lines[node.lineno - 1].strip()
            for node in ast.walk(tree) if isinstance(node, (ast.Return, ast.Raise))}


def probes(xi, pts, side, rng) -> list:
    """Up to four vertices strictly before the head (left) or after the tail (right), at most ntilde + 2 away."""
    reach = xi.ntilde2() + 4
    if side == "left":
        near = [v for v in xi.vertices_between(pts[0].k2 - reach, pts[0].k2) if xi.prec(v, pts[0])]
    else:
        near = [v for v in xi.vertices_between(pts[-1].k2, pts[-1].k2 + reach) if xi.prec(pts[-1], v)]
    return rng.sample(near, min(4, len(near)))


def census(seed: int, snakes: int) -> tuple[collections.Counter, collections.Counter]:
    """(hits, outcomes): hits by (function, line, (c1 interacts,) or ()), outcomes by (side, outcome)."""
    codes = {fn.__code__: arm_lines(fn) for fn in FUNCTIONS}
    hits: collections.Counter = collections.Counter()
    outcomes: collections.Counter = collections.Counter()

    def local(frame, event, _):
        if event == "line" and frame.f_lineno in codes[frame.f_code]:
            names = frame.f_locals  # a two-factor arm has c1 bound; its test, recomputed on the frame's values
            flags = (_in_prime_window(names["theta"], names["c1"], names["dagger"][0]),) if "c1" in names else ()
            hits[frame.f_code.co_name, frame.f_lineno, flags] += 1
        return local

    def trace(frame, event, _):
        return local if frame.f_code in codes else None

    rng, before = random.Random(seed), sys.gettrace()
    for _ in range(snakes):
        n0 = rng.randint(2, 4)
        xi = random_height_function(2 * n0 - 1, rng, "twisted", n0)
        pts = random_snake(xi, rng, rng.randint(1, 6))
        for side in ("left", "right"):
            for v in probes(xi, pts, side, rng):
                sys.settrace(trace)
                try:
                    got = tsystem.tfd_via_epsilon(xi, v, pts, side)
                except OutsideWindow as exc:
                    got = "OutsideWindow: " + VERTEX.sub("(i,k)", str(exc))
                finally:
                    sys.settrace(before)
                outcomes[side, got] += 1
    return hits, outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--snakes", type=int, default=6000)
    args = parser.parse_args()
    start = time.perf_counter()
    hits, outcomes = census(args.seed, args.snakes)
    elapsed = time.perf_counter() - start
    print(f"Bridge census (tools/bridge_census.py, Python {sys.version.split()[0]}, seed {args.seed}): "
          f"{sum(outcomes.values()):,} twisted probes on {args.snakes:,} snakes, n0 2-4, 1-6 points, "
          f"both sides, in {elapsed:.1f} s.  A line's hits count calls: the search may try several shifts per probe.")
    print()
    print("| function | line | statement | hits |")
    print("|---|---|---|---:|")
    for fn in FUNCTIONS:
        path = os.path.basename(inspect.getsourcefile(fn))
        for line, text in sorted(arm_lines(fn).items()):
            count = sum(c for (name, n, _), c in hits.items() if (name, n) == (fn.__name__, line))
            print(f"| `{fn.__name__}` | `{path}:{line}` | `{text}` | {count:,} |")
    print()
    print("| two-factor translate: c1 interacts with the head | hits |")
    print("|---|---:|")
    for flag, what in TWO_FACTORS.items():
        count = sum(c for (_, _, f), c in hits.items() if f == (flag,))
        print(f"| {flag}: {what} | {count:,} |")
    print()
    print("| side | outcome | probes |")
    print("|---|---|---:|")
    for (side, got), count in sorted(outcomes.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        print(f"| {side} | {got} | {count:,} |")


if __name__ == "__main__":
    main()
