"""The four benchmark workloads: inputs, the timed op and its output check.

Each workload turns a seeded ``random.Random`` into a round of ``block``
``Item``s before the clock starts; the harness then calls ``run`` on one
item at a time (closed loop) and ``check`` on what came back, round after
round.  A round repeats the same items, or, where a repeat would hit a
cache (``fresh``), is a new set of items of the same sizes, generated
between rounds.  Every position of the block has a fixed size class, the
same for every seed; the seed decides everything else (height functions,
snakes, counts, probes).  The classes are chosen so that the block's median
and 90th-percentile latencies fall inside a class of many like-sized
positions rather than on a boundary between classes, and so that a round is
short enough for many rounds to run.  The program only ever sees the
generated inputs.

All library calls go through module attributes (``tsystem.extended_tsystem``)
so that the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass

import oracle
from snaketsys import cli, lusztig, realize, reineke, snakes, tsystem
from snaketsys.errors import OutsideWindow
from snaketsys.quivers import HeightFunction, Vertex

GOLDEN = (math.sqrt(5) - 1) / 2

OK, FAIL, UNREACHABLE = "ok", "fail", "unreachable"


def spread(k: int, alpha: float) -> float:
    """k-th point of the Kronecker sequence: every prefix is near-uniform."""
    return (k * alpha) % 1.0


def positions(classes) -> list[tuple]:
    """One (class row, index within the class) per block position.

    The order is a fixed shuffle, the same for every seed, so that the heavy
    positions are spread over the round instead of run back to back.
    """
    out = [(row, t) for row in classes for t in range(row[0])]
    random.Random(0).shuffle(out)
    return out


def cycle(values, t: int):
    return values[t % len(values)]


@dataclass
class Item:
    bucket: str      # size bucket, reported as size.<bucket>.op_ms_p50
    args: tuple      # what the op receives
    expect: object   # what the check compares against


class Workload:
    name: str
    block: int     # positions per round
    fresh = False  # a new round of items (same sizes) every round, instead of repeats
    mix: str       # the size mix, recorded with each result

    def between_rounds(self) -> None:
        """Called before each fresh round is generated."""

    def unreachable(self, item: Item, exc: Exception) -> bool:
        """Whether an exception is a documented outcome rather than a failure."""
        return False


# -- shared generators ---------------------------------------------------------


def random_untwisted(rng, n: int, base: int = 0) -> HeightFunction:
    vals = [base + rng.randint(-3, 3)]
    for _ in range(n - 1):
        vals.append(vals[-1] + rng.choice((-1, 1)))
    return HeightFunction.untwisted(vals)


def random_twisted(rng, n0: int, base: int = 0) -> HeightFunction:
    left = [base + rng.randint(-3, 3)]
    for _ in range(n0 - 2):
        left.append(left[-1] + rng.choice((-1, 1)))
    after = left[-1] + rng.choice((-1, 1))
    mid2 = 2 * min(left[-1], after) + rng.choice((-1, 1))
    right = [after]
    for _ in range(n0 - 2):
        right.append(right[-1] + rng.choice((-1, 1)))
    return HeightFunction.twisted([2 * v for v in left] + [mid2] + [2 * v for v in right], n0)


def random_vertex(rng, hf: HeightFunction, k2_lo: int, k2_hi: int) -> Vertex:
    i = rng.randint(1, hf.n)
    step = oracle.row_step(hf, i)
    k2 = rng.randint(k2_lo + step, k2_hi)
    return Vertex(i, k2 - (k2 - hf.values2[i - 1]) % step)


def grow_snake(rng, hf: HeightFunction, first, length: int, test) -> tuple[Vertex, ...]:
    """Forward-grown snake: each next point satisfies test with the last."""
    pts = [Vertex(*first)]
    while len(pts) < length:
        cands = oracle.candidates(hf, pts[-1], test)
        if not cands:
            break
        pts.append(Vertex(*rng.choice(cands)))
    return tuple(pts)


def exact_snake(rng, hf: HeightFunction, length: int, test, starts=None) -> tuple[Vertex, ...]:
    """A grown snake of exactly ``length`` points (new start points until one is)."""
    for _ in range(1000):
        start = rng.choice(starts) if starts else random_vertex(rng, hf, -8, 8)
        pts = grow_snake(rng, hf, start, length, test)
        if len(pts) == length:
            return pts
    raise ValueError(f"no snake of length {length} on {hf}")


def _labels(hf: HeightFunction) -> dict:
    order, word = hf.compatible_reading()
    return oracle.root_labels(hf.n, order, word)


# -- relations: extended T-system + q-datum monomials of a prime snake ------------------


class Relations(Workload):
    name = "relations"
    block = 100
    # (positions, snake lengths p, untwisted ranks n, twisted ranks n0);
    # within a class the flavors alternate and p and the ranks cycle.  The
    # op's cost grows like p^3, so long snakes sit on the smallest ranks.
    # The class holding the 90th percentile is untwisted only: at p = 15 a
    # twisted snake costs about half as much again, and a mixed class would
    # put the percentile between its two modes.
    classes = (
        (20, (2,), tuple(range(4, 13)), tuple(range(2, 7))),
        (15, (3,), tuple(range(4, 13)), tuple(range(2, 7))),
        (30, (5,), (8,), (4,)),                      # holds the median
        (17, (8, 9, 10), (4, 5, 6), (2, 3)),
        (15, (15,), (4,), ()),                       # holds the 90th percentile
        (3, (24, 30, 40), (4,), (2,)),
    )
    mix = "per 100: p=2 (20) and p=3 (15) on n 4-12 / n0 2-6; p=5 (30) on n 8 / n0 4; p 8-10 (17) on n 4-6 / n0 2-3; p=15 (15) on n 4 untwisted; p 24, 30, 40 (3, the same for every seed) on n 4 / n0 2; untwisted and twisted alternate"

    def warm(self) -> None:
        """Nothing on this path is cached."""

    def generate(self, rng) -> list[Item]:
        # The snakes longer than 20 are drawn from a fixed stream, the same
        # for every seed: together they take about half of a round, and each
        # one's cost varies by +-20% with its shape, which would otherwise
        # make ops_per_s depend more on the seed than on the code.
        pinned = random.Random(20)
        items = []
        for (_, ps, ns, n0s), t in positions(self.classes):
            p = cycle(ps, t)
            src = pinned if p > 20 else rng
            if t % 2 == 0 or not n0s:
                hf = random_untwisted(src, cycle(ns, t // 2))
                real = realize.Realization.qdatum_a(hf.n)
            else:
                hf = random_twisted(src, cycle(n0s, t // 2))
                real = realize.Realization.qdatum_b(hf.n0)
            pts = exact_snake(src, hf, p, oracle.in_prime_snake_position)
            bucket = "p10" if p <= 10 else "p20" if p <= 20 else "p40"
            items.append(Item(bucket, (hf, pts, real), None))
        return items

    def run(self, item: Item):
        hf, pts, real = item.args
        rel = tsystem.extended_tsystem(hf, pts)
        return rel, realize.relation_monomials(rel, real)

    def check(self, item: Item, out) -> str:
        hf, pts, _ = item.args
        rel, mon = out
        q, r = rel.first_q, rel.first_r
        ok = (
            rel.hypotheses_ok
            and mon.identity_holds()
            and rel.term_a == pts
            and not set(q) & set(r)
            and all(oracle.is_snake(hf, s) for s in (q, r) if s)
        )
        return OK if ok else FAIL


# -- transport: rho from the big_theta window to the theta window -------------------


# rho(e(P)) = e(P-dagger) on the two published examples (ranks 7 and 15)
GOLDENS = {
    7: ([(5, 8), (5, 12), (4, 17), (4, 19)], [(5, 6), (5, 10), (5, 14), (4, 20)]),
    15: (
        [(9, 16), (9, 20), (8, 25), (7, 30), (8, 35), (9, 40)],
        [(9, 14), (9, 18), (9, 22), (7, 30), (9, 38), (9, 42)],
    ),
}


class Transport(Workload):
    name = "transport"
    block = 100
    # (positions, n): unit window-snake data at n = 7, 15, dense random data
    # above.  The n = 15 class holds the median and the n = 63 class the
    # 90th percentile; a round is about a second.
    classes = ((30, 7), (35, 15), (20, 31), (12, 63), (3, 95))
    mix = "per 100: unit window-snake data at n 7 (30) and 15 (35), every 4th a golden, snake lengths cycling over 1..4 / 1..5; dense random data at n 31 (20), 63 (12), 95 (3)"

    def warm(self) -> None:
        for _, n in self.classes:
            lusztig.rho(lusztig.VertexDatum(lusztig.Carrier(lusztig.GAMMA_BIG_THETA, n), {}))

    def generate(self, rng) -> list[Item]:
        labels = {}
        for _, n in self.classes:
            n0 = (n + 1) // 2
            labels[n] = (_labels(HeightFunction.big_theta(n0)), _labels(HeightFunction.theta(n0)))
        items = []
        for (_, n), t in positions(self.classes):
            n0 = (n + 1) // 2
            src, dst = labels[n]
            carrier = lusztig.Carrier(lusztig.GAMMA_BIG_THETA, n)
            if n in GOLDENS:
                if t % 4 == 0:
                    pts, dagger = GOLDENS[n]
                else:
                    big = HeightFunction.big_theta(n0)
                    # window snakes longer than a few points are rare
                    length = 1 + (t - t // 4 - 1) % (n0 // 4 + 3)
                    pts = exact_snake(rng, big, length, _in_window_snake_position(src), sorted(src))
                    dagger = snakes.translate_twisted(n0, pts)
                datum = lusztig.unit_datum(carrier, [Vertex(*v) for v in pts])
                expect = ("unit", Counter(map(tuple, dagger)), dst)
            else:
                counts = {Vertex(*v): rng.randint(0, 9) for v in sorted(src)}
                datum = lusztig.VertexDatum(carrier, counts)
                expect = ("dense", _weight(counts, src, n), dst)
            items.append(Item(f"n{n}", (datum,), expect))
        return items

    def run(self, item: Item):
        return lusztig.rho(item.args[0])

    def check(self, item: Item, out) -> str:
        kind, want, dst = item.expect
        counts = {(v[0], v[1]): c for v, c in out.counts.items() if c}
        if any(c < 0 for c in counts.values()) or not set(counts) <= set(dst):
            return FAIL
        got = _weight(counts, dst, out.carrier.n) if kind == "dense" else Counter(counts)
        return OK if got == want else FAIL


def _in_window_snake_position(window):
    return lambda hf, v, w: tuple(w) in window and oracle.in_snake_position(hf, v, w)


def _weight(counts: dict, labels: dict, n: int) -> tuple[int, ...]:
    """sum c_v * phi(v) as a simple-root coefficient vector."""
    out = [0] * (n + 2)
    for v, c in counts.items():
        lo, hi, sign = labels[(v[0], v[1])]
        out[lo] += sign * c
        out[hi + 1] -= sign * c
    for x in range(1, n + 2):
        out[x] += out[x - 1]
    return tuple(out[1:n + 1])


# -- epsilon: Reineke's epsilon / epsilon* and the tfd bridge -------------------------


class Epsilon(Workload):
    name = "epsilon"
    block = 1200
    sizes = (6, 12, 24)
    bridge_ns = tuple(range(2, 9))
    mix = "alternating (a) epsilon_any+epsilon_star on dense canonical data, n cycling {6,12,24}, j spread over [1,n]; (b) tfd_via_epsilon, untwisted n in [2,8] / twisted n0 in [2,4]"

    def warm(self) -> None:
        for n in sorted(set(self.sizes + self.bridge_ns)):
            for delta in (0, 1):
                lusztig.Carrier(f"gamma-delta:{delta}", n).vertices()
            for j in range(1, n + 1):
                reineke.omega(n, j)

    def generate(self, rng) -> list[Item]:
        labels = {
            (n, delta): _labels(HeightFunction.canonical(n, delta))
            for n in self.sizes for delta in (0, 1)
        }
        items = []
        for k in range(self.block):
            if k % 2:
                items.append(self._probe(rng))
                continue
            a = k // 2
            n = self.sizes[a % len(self.sizes)]
            j = 1 + int(spread(a, GOLDEN) * n)
            delta = (a // len(self.sizes)) % 2
            carrier = lusztig.Carrier(f"gamma-delta:{delta}", n)
            counts = {Vertex(*v): rng.randint(0, 4) for v in sorted(labels[n, delta])}
            # epsilon*_j is epsilon_j of the starred datum: reversing the reading
            # word and starring its letters sends the count at (i, k) to (i*, n - k)
            dual = {(n + 1 - i, 2 * n - k2): c for (i, k2), c in counts.items()}
            want = (
                _epsilon_oracle(j, n, delta, counts, labels),
                _epsilon_oracle(j, n, 1 - delta, dual, labels),
            )
            items.append(Item(f"n{n}", ("a", j, lusztig.VertexDatum(carrier, counts)), want))
        return items

    def _probe(self, rng) -> Item:
        """A probe/snake configuration whose lemma prediction is 0 or 1."""
        while True:
            if rng.random() < 0.5:
                hf = HeightFunction.canonical(rng.choice(self.bridge_ns), rng.randint(0, 1))
            else:
                hf = HeightFunction.big_theta(rng.randint(2, 4))
            hf = hf.shifted(2 * rng.randint(-4, 4))
            v = random_vertex(rng, hf, -8, 8)
            near = oracle.in_prime_snake_position if rng.random() < 0.4 else _strictly_after
            cands = oracle.candidates(hf, v, near)
            if not cands:
                continue
            test = oracle.in_prime_snake_position if rng.random() < 0.5 else oracle.in_snake_position
            pts = grow_snake(rng, hf, rng.choice(cands), rng.randint(1, 4), test)
            if rng.random() < 0.5:
                side, pred = "left", tsystem.predicted_tfd_left(hf, v, pts)
            else:
                after = oracle.candidates(hf, pts[-1], _strictly_after)
                if not after:
                    continue
                side, v = "right", Vertex(*rng.choice(after))
                pred = tsystem.predicted_tfd_right(hf, pts, v)
            if pred is not None:
                return Item("n8", ("b", hf, v, pts, side), pred)

    def run(self, item: Item):
        if item.args[0] == "a":
            _, j, datum = item.args
            return reineke.epsilon_any(j, datum), reineke.epsilon_star(j, datum)
        _, hf, v, pts, side = item.args
        return tsystem.tfd_via_epsilon(hf, v, pts, side)

    def unreachable(self, item: Item, exc: Exception) -> bool:
        return item.args[0] == "b" and isinstance(exc, OutsideWindow)

    def check(self, item: Item, out) -> str:
        return OK if out == item.expect else FAIL


def _strictly_after(hf, v, w) -> bool:
    return tuple(v) != tuple(w) and oracle.reaches(hf, v, w)


def _epsilon_oracle(j: int, n: int, delta: int, counts: dict, labels: dict) -> int:
    """epsilon_j of a datum on the canonical delta window.

    Off parity, j is the first letter of the reading word and epsilon_j is
    its count c_{j,0}; on parity, the best lower set of Omega_j, the window
    vertices whose root contains a_j, weighted by c_v - c_{v - (0, 2)}.
    """
    if j % 2 != delta:
        return counts.get((j, 0), 0)
    weights = {
        v: counts.get(v, 0) - counts.get((v[0], v[1] - 4), 0)
        for v, (lo, hi, _) in labels[n, delta].items() if lo <= j <= hi
    }
    return oracle.max_closure(weights)


# -- windows: the quiver CLI on never-seen height functions ---------------------------


_DOT_LABEL = re.compile(r'^\s*"(\d+):(-?\d+)" \[label="\d+:-?\d+\\n([^"]*)"\];$')


class Windows(Workload):
    name = "windows"
    block = 100
    # every op needs a height function not seen before: each round is fresh
    fresh = True
    # (positions, untwisted ranks n, twisted ranks n0); within a class the
    # flavors alternate and the ranks cycle.  The n = 10 class holds the
    # median; it is untwisted only, as a twisted n0 = 5 (n = 9) op costs a
    # fifth less and a mixed class would put the median between its two
    # modes.  The n = 15 / n0 = 8 class (both n = 15) holds the 90th
    # percentile.
    classes = (
        (30, (8, 9), (3, 4, 5)),
        (35, (10,), ()),
        (20, (11, 12, 13), (6, 7)),
        (12, (15,), (8,)),
        (3, (24, 20), (10,)),
    )
    mix = "per 100, fresh every round: n 8-9 / n0 3-5 (30), n 10 untwisted (35), n 11-13 / n0 6-7 (20), n 15 / n0 8 (12), n 20, 24 / n0 10 (3); untwisted and twisted alternate, text and dot formats in turn"

    def __init__(self):
        self.seen = set()

    def warm(self) -> None:
        """The CLI is imported with the package; every op misses the caches."""

    def between_rounds(self) -> None:
        """Empty the library's caches, so that they hold one round at most and
        peak_rss_mb does not grow with the number of rounds run."""
        for key, mod in list(sys.modules.items()):
            if key == "snaketsys" or key.startswith("snaketsys."):
                for val in list(vars(mod).values()):
                    if hasattr(val, "cache_clear") and getattr(val, "__module__", None) == key:
                        val.cache_clear()

    def generate(self, rng) -> list[Item]:
        items = []
        for (_, ns, n0s), t in positions(self.classes):
            while True:
                base = rng.randint(-40, 40)
                if t % 2 == 0 or not n0s:
                    hf = random_untwisted(rng, cycle(ns, t // 2), base)
                else:
                    hf = random_twisted(rng, cycle(n0s, t // 2), base)
                if hf.values2 not in self.seen:
                    self.seen.add(hf.values2)
                    break
            fmt = "text" if (t // 2) % 2 == 0 else "dot"
            argv = ["quiver", "--xi=" + ",".join(map(str, hf.values2)), "--format", fmt]
            if hf.flavor == "twisted":
                argv += ["--flavor", "twisted", "--n0", str(hf.n0)]
            items.append(Item("n12" if hf.n <= 12 else "n24", (argv,), (hf, fmt)))
        return items

    def run(self, item: Item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(item.args[0]))
        return code, buf.getvalue()

    def check(self, item: Item, out) -> str:
        code, text = out
        hf, fmt = item.expect
        want = {v: oracle.root_str(lo, hi) for v, (lo, hi, sign) in _labels(hf).items() if sign > 0}
        try:
            got = _parse_dot(text) if fmt == "dot" else _parse_text(text)
        except ValueError:  # not the asked-for format
            return FAIL
        return OK if code == 0 and got == want and len(want) == hf.n * (hf.n + 1) // 2 else FAIL


def _parse_text(text: str) -> dict:
    """Labels of the (i \\ k) grid: a 5-wide row header, then fixed-width cells."""
    head, *rows = text.rstrip("\n").split("\n")
    cols = head.split()[1:]
    width = (len(head) - 5 - (len(cols) - 1)) // len(cols)
    k2s = [int(c[:-2]) if c.endswith("/2") else 2 * int(c) for c in cols]
    got = {}
    for row in rows:
        i = int(row[:4])
        for c, k2 in enumerate(k2s):
            cell = row[5 + c * (width + 1): 5 + c * (width + 1) + width].strip()
            if cell:
                got[(i, k2)] = cell
    return got


def _parse_dot(text: str) -> dict:
    got = {}
    for line in text.split("\n"):
        m = _DOT_LABEL.match(line)
        if m:
            got[(int(m.group(1)), int(m.group(2)))] = m.group(3)
    return got


WORKLOADS = {w.name: w for w in (Relations, Transport, Epsilon, Windows)}
