"""Seeded fingerprints of two layers, pinned by tests/test_fingerprint.py.

Each layer is written out as canonical text lines on seeded inputs, and the
tier-1 test pins one sha256 per layer, so a refactor of that layer that
changes any output fails there.  The layers:

- ``quivers``: ``preceq`` between every pair of a window of vertices (plus
  off-quiver points), ``dualize(v, +1)`` and ``dualize(v, -1)``, and
  ``region`` on twisted quivers, over seeded random height functions;
- ``predictions``: ``check_theorem_hypotheses`` (``left``, ``right``,
  ``all_one``) and ``predicted_tfd_left``/``predicted_tfd_right`` against
  every window probe, on seeded prime and non-prime snakes of both flavors,
  some also with their last point moved so that most are no snakes.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py               # one digest per layer
    PYTHONPATH=src python tests/fingerprint.py --dump quivers  # that layer's lines
"""
from __future__ import annotations

import argparse
import hashlib
import random

from snaketsys.errors import NotSnake
from snaketsys.quivers import TWISTED, UNTWISTED, HeightFunction, Vertex
from snaketsys.tsystem import check_theorem_hypotheses, predicted_tfd_left, predicted_tfd_right
from snaketsys.verify import random_height_function, random_snake

SEED = 2023


def _height_functions(rng: random.Random, count: int) -> list[HeightFunction]:
    """count random height functions, alternating untwisted (n 1-6) and twisted (n0 2-4)."""
    out = []
    for t in range(count):
        if t % 2 == 0:
            out.append(random_height_function(rng.randint(1, 6), rng))
        else:
            n0 = rng.randint(2, 4)
            out.append(random_height_function(2 * n0 - 1, rng, TWISTED, n0))
    return out


def _window(xi: HeightFunction) -> list[Vertex]:
    """The vertices from just below the lowest height up to two duality periods above it."""
    lo = min(xi.values2) - 2
    return xi.vertices_between(lo, lo + 2 * xi.ntilde2())


def _bits(values) -> str:
    """1/0 for True/False, and 1/0/- for a 0/1/None prediction."""
    return "".join("-" if x is None else str(int(x)) for x in values)


def quivers_lines(count: int = 40) -> list[str]:
    rng = random.Random(SEED)
    lines = []
    for xi in _height_functions(rng, count):
        lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)}")
        verts = _window(xi)
        # the same vertices half a step off their rows: preceq is False on them
        targets = verts + [Vertex(v.i, v.k2 + 1) for v in verts[::3]]
        for v in verts:
            region = xi.region(v).name if xi.flavor == TWISTED else "-"
            lines.append(f"{v} D+{xi.dualize(v, 1)} D-{xi.dualize(v, -1)} {region} {_bits(xi.preceq(v, w) for w in targets)}")
    return lines


def _cases(rng: random.Random, count: int):
    """(xi, points) for count seeded snakes, cycling flavor and primality."""
    for t in range(count):
        flavor, prime = (UNTWISTED, TWISTED)[t % 2], t % 4 < 2
        if flavor == UNTWISTED:
            xi = random_height_function(rng.randint(2, 6), rng)
        else:
            n0 = rng.randint(2, 4)
            xi = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
        yield xi, random_snake(xi, rng, rng.randint(2, 7), prime=prime)


def predictions_lines(count: int = 48) -> list[str]:
    rng = random.Random(SEED + 1)
    lines = []
    for t, (xi, pts) in enumerate(_cases(rng, count)):
        # every third snake also appears with its last point one step down its row
        moved = pts[:-1] + (Vertex(pts[-1].i, pts[-1].k2 - 2 * xi.d2(pts[-1].i)),)
        for snake in (pts, moved) if t % 3 == 0 else (pts,):
            lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)} P={' '.join(map(str, snake))}")
            try:
                report = check_theorem_hypotheses(xi, snake)
            except NotSnake as exc:
                lines.append(f"hypotheses NotSnake: {exc}")
            else:
                lines.append(f"hypotheses left={_bits(report.left)} right={_bits(report.right)} all_one={report.all_one}")
            heights = [v.k2 for v in snake]
            probes = xi.vertices_between(min(heights) - xi.ntilde2(), max(heights) + xi.ntilde2())
            lines.append(f"left {_bits(predicted_tfd_left(xi, v, snake) for v in probes)}")
            lines.append(f"right {_bits(predicted_tfd_right(xi, snake, v) for v in probes)}")
    return lines


LAYERS = {"quivers": quivers_lines, "predictions": predictions_lines}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dump", choices=sorted(LAYERS), help="print the canonical lines of one layer")
    args = parser.parse_args(argv)
    if args.dump:
        print("\n".join(LAYERS[args.dump]()))
        return
    for name, lines_of in LAYERS.items():
        lines = lines_of()
        print(f"{name}: {digest(lines)} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
