"""Randomized and exhaustive verification sweeps, run by one runner over the SWEEPS table.

Each row lists its cases in draw order and a check that yields (ok,
counterexample) per comparison, or (None, reason) per skip.  ``run`` seeds
one rng per sweep and counts into a SweepResult, so the CLI can report and
exit nonzero on failure.  The case generators and the reference oracles
live here, off the production path.
"""
from __future__ import annotations

import itertools
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from . import reineke, roots, snakes, tsystem
from .errors import DomainError, InternalError, OutsideWindow
from .lusztig import (
    GAMMA_BIG_THETA,
    GAMMA_THETA,
    Carrier,
    LusztigDatum,
    VertexDatum,
    apply_three_move,
    rho,
    star_datum,
    two_move,
    unit_datum,
    weight,
)
from .quivers import TWISTED, UNTWISTED, HeightFunction, Region, Vertex, big_theta2

Outcome = tuple[bool | None, str]  # (ok, counterexample), or (None, skip reason)


@dataclass
class SweepResult:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    first_failure: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool | None, message: str) -> None:
        """Count a pass, a failure with its counterexample, or a skip by its reason."""
        if ok is None:
            self.skipped += 1
            self.details[message] = self.details.get(message, 0) + 1
        elif ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = message

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"{self.name}: {status} ({self.passed} passed, {self.failed} failed, {self.skipped} skipped)"
        if self.first_failure:
            line += f"\n  first counterexample: {self.first_failure}"
        return line


class Sweep(NamedTuple):
    group: str  # the --suite that runs it
    name: str
    cases: Callable[[int], Iterable[tuple]]  # trials -> the cases, in draw order
    check: Callable[..., Iterator[Outcome]]  # check(rng, *case)
    until: bool = False  # repeat the cases until trials checks have passed or failed


def run(sweep: Sweep, trials: int, seed: int) -> SweepResult:
    """Check every case of sweep, drawing from one rng seeded with seed.

    A check that raises fails its own case and the sweep goes on; a case generator that raises, or
    10 * trials draws of an ``until`` sweep that decide nothing, end it.  ``details`` keeps the first traceback.
    """
    res = SweepResult(sweep.name, details={"seed": seed})
    rng = random.Random(seed)
    start = time.perf_counter()

    def fail(exc: Exception) -> None:
        res.record(False, f"{type(exc).__name__}: {exc}")
        res.details.setdefault("traceback", traceback.format_exc())

    try:
        cases, undecided = sweep.cases(trials), 0
        for case in itertools.cycle(cases) if sweep.until else cases:
            decided = res.passed + res.failed
            if sweep.until and (decided >= trials or undecided >= 10 * trials):
                if decided < trials:
                    res.record(False, f"{undecided} draws decided nothing, {decided} of {trials} checks made")
                break
            try:
                for outcome in sweep.check(rng, *case):
                    res.record(*outcome)
            except Exception as exc:
                fail(exc)
            undecided += res.passed + res.failed == decided
    except Exception as exc:
        fail(exc)
    res.details["elapsed_s"] = time.perf_counter() - start
    return res


def random_height_function(n: int, rng: random.Random, flavor: str = UNTWISTED, n0: int | None = None) -> HeightFunction:
    if flavor == UNTWISTED:
        vals = [rng.randint(-3, 3)]
        for _ in range(n - 1):
            vals.append(vals[-1] + rng.choice((-1, 1)))
        return HeightFunction.untwisted(vals)
    if n0 is None or n != 2 * n0 - 1:
        raise DomainError(f"a twisted height function of rank {n} needs n0 with n = 2*n0 - 1, got {n0}")
    left = [rng.randint(-3, 3)]
    for _ in range(n0 - 2):
        left.append(left[-1] + rng.choice((-1, 1)))
    after = left[-1] + rng.choice((-1, 1))
    mid2 = 2 * min(left[-1], after) + rng.choice((-1, 1))
    right = [after]
    for _ in range(n - n0 - 1):
        right.append(right[-1] + rng.choice((-1, 1)))
    vals2 = [2 * v for v in left] + [mid2] + [2 * v for v in right]
    return HeightFunction.twisted(vals2, n0)


def snake_candidates(xi: HeightFunction, v: Vertex, prime: bool) -> list[Vertex]:
    """Vertices in (prime) snake position w.r.t. v, at most ntilde above it (sampling bound)."""
    pred = snakes.in_prime_snake_position if prime else snakes.in_snake_position
    return [w for w in xi.vertices_between(v.k2 + 1, v.k2 + xi.ntilde2()) if pred(xi, v, w)]


def random_vertex(xi: HeightFunction, rng: random.Random, k2_lo: int, k2_hi: int) -> Vertex:
    """A random row, then a height in [k2_lo, k2_hi] rounded down onto it (redrawn below k2_lo)."""
    while True:
        i = rng.randint(1, xi.n)
        k2 = rng.randint(k2_lo, k2_hi)
        k2 -= (k2 - xi.xi2(i)) % xi.d2(i)
        if k2 >= k2_lo:
            return Vertex(i, k2)


def grow_snake(
    xi: HeightFunction, rng: random.Random, first: Vertex, length: int, prime: bool = False, in_gamma: bool = False
) -> tuple[Vertex, ...]:
    """Forward-grown random (prime) snake from first; may stop short at a dead end."""
    points = [first]
    for _ in range(length - 1):
        cands = snake_candidates(xi, points[-1], prime)
        if in_gamma:
            cands = [w for w in cands if xi.in_gamma(w)]
        if not cands:
            break
        points.append(rng.choice(cands))
    return tuple(points)


def random_snake(
    xi: HeightFunction, rng: random.Random, length: int, prime: bool = False, k2_lo: int = 0, in_gamma: bool = False
) -> tuple[Vertex, ...]:
    """grow_snake from a random window vertex (in_gamma) or a random vertex at or above k2_lo."""
    if in_gamma:
        first = rng.choice(xi.gamma_vertices())
    else:
        first = random_vertex(xi, rng, k2_lo, k2_lo + 2 * xi.ntilde2())
    return grow_snake(xi, rng, first, length, prime, in_gamma)


def _random_datum(n: int, delta: int, rng: random.Random) -> VertexDatum:
    carrier = Carrier(f"gamma-delta:{delta}", n)
    counts = {}
    for v in carrier.vertices():
        if rng.random() < 0.5:
            counts[v] = rng.randint(0, 4)
    return VertexDatum(carrier, counts)


def canonical_prime_pairs(ns: Iterable[int]) -> Iterator[tuple[HeightFunction, Vertex, Vertex]]:
    """Every prime pair (v, w) of canonical(n, 0) with 0 <= k2(v) <= 4*ntilde, for each n of ns."""
    for n in ns:
        xi = HeightFunction.canonical(n, 0)
        for v in xi.vertices_between(0, 4 * xi.ntilde2()):
            for w in snake_candidates(xi, v, prime=True):
                yield xi, v, w


# -- move layer -------------------------------------------------------------


def _check_walk(rng: random.Random, n: int) -> Iterator[Outcome]:
    """A random 200-step move walk: both move involutions every 25 steps, then weight conservation."""
    _, word = HeightFunction.canonical(n, 0).compatible_reading()
    d = LusztigDatum(n, word, tuple(rng.randint(0, 9) for _ in word))
    w0 = weight(d)
    for step in range(200):
        two = [r for r in range(len(d.word) - 1) if abs(d.word[r] - d.word[r + 1]) >= 2]
        three = [r for r in range(1, len(d.word) - 1)
                 if d.word[r - 1] == d.word[r + 1] and abs(d.word[r] - d.word[r - 1]) == 1]
        kind, r = rng.choice([("2", r) for r in two] + [("3", r) for r in three])
        nxt = two_move(d, r) if kind == "2" else apply_three_move(d, r)
        if step % 25 == 0:
            back = two_move(nxt, r) if kind == "2" else apply_three_move(nxt, r)
            yield back == d, f"{kind}-move at {r} not involutive on {d}"
        d = nxt
    yield weight(d) == w0, f"weight drifted on a walk at n={n}"


# -- rho vs translation ------------------------------------------------------


def _check_rho(rng: random.Random, n0: int) -> Iterator[Outcome]:
    """rho(e(P)) = e(P-dagger) on a random window snake."""
    big = HeightFunction.big_theta(n0)
    pts = random_snake(big, rng, rng.randint(1, 6), prime=False, in_gamma=True)
    want = unit_datum(Carrier(GAMMA_THETA, big.n), snakes.translate_twisted(n0, pts))
    got = rho(unit_datum(Carrier(GAMMA_BIG_THETA, big.n), pts))
    yield got.nonzero() == want.nonzero(), f"rho(e(P)) != e(P-dagger) for n0={n0}, P={pts}"


# -- Reineke ---------------------------------------------------------------


class OmegaInterval(NamedTuple):
    """Omega_j as the interval (j,1) <= v <= (j*, n) of the canonical window, with its arrows."""

    vertices: tuple[Vertex, ...]
    covers: tuple[tuple[int, int], ...]  # (a, b): vertices[a] -> vertices[b] arrow


def omega_interval(n: int, j: int) -> OmegaInterval:
    """The second description of ``reineke.omega``: filter the window by preceq, join by arrows."""
    hf = HeightFunction.canonical(n, reineke.bar(j))
    lo, hi = Vertex(j, 2), Vertex(roots.star(n, j), 2 * n)
    verts = tuple(v for v in hf.gamma_vertices() if hf.preceq(lo, v) and hf.preceq(v, hi))
    pos = {v: a for a, v in enumerate(verts)}
    covers = tuple((a, pos[w]) for a, v in enumerate(verts) for w in hf.arrow_targets(v) if w in pos)
    return OmegaInterval(verts, covers)


def _ideal_masks(om: OmegaInterval):
    """All lower closed subsets of Omega as bitmasks.

    A lower set stays lower when it gains a vertex whose arrow sources it
    already holds, and every lower set is reached that way from the empty one.
    """
    m = len(om.vertices)
    pred_mask = [0] * m
    for a, b in om.covers:
        pred_mask[b] |= 1 << a
    seen = {0}
    stack = [0]
    while stack:
        mask = stack.pop()
        yield mask
        for x in range(m):
            if not mask >> x & 1 and pred_mask[x] & ~mask == 0:
                new = mask | 1 << x
                if new not in seen:
                    seen.add(new)
                    stack.append(new)


def epsilon_bruteforce(om: OmegaInterval, d: VertexDatum) -> int:
    """Reference oracle for ``reineke.epsilon``: maximize over explicitly enumerated order ideals."""
    wts = [d.get(v) - d.get((v.i, v.k2 - 4)) for v in om.vertices]  # looked up by key, not by slot
    best = 0
    for mask in _ideal_masks(om):
        s = 0
        x = mask
        while x:
            b = x & -x
            s += wts[b.bit_length() - 1]
            x ^= b
        if s > best:
            best = s
    return best


def dual_vertex_datum(d: VertexDatum) -> VertexDatum:
    """The c-dual datum, built: cv_{(i,k)} = c_{(i*, n-k)} on the complementary window.

    The carrier flips delta -> 1 - delta (the vertex map (i,k) -> (i*, n-k)
    exchanges exactly the two canonical windows).  ``reineke.epsilon_star``
    reads this datum through the map without building it.
    """
    n = d.carrier.n
    dual = Carrier(f"gamma-delta:{1 - reineke.delta_of_carrier(d.carrier)}", n)
    return VertexDatum(dual, {Vertex(roots.star(n, v.i), 2 * n - v.k2): c for v, c in d.counts.items()})


def _check_reineke_dual(rng: random.Random, n: int, delta: int) -> Iterator[Outcome]:
    """Brute force on the preceq interval against the staircase programme on the closed form, every j."""
    d = _random_datum(n, delta, rng)
    for j in range(1, n + 1):
        if j % 2 != delta:
            continue
        bf = epsilon_bruteforce(omega_interval(n, j), d)
        dp = reineke.epsilon(j, d)
        yield bf == dp, f"solvers disagree: n={n} j={j} {bf} != {dp} on {d.nonzero()}"


def _check_epsilon_star(rng: random.Random, n: int, delta: int) -> Iterator[Outcome]:
    """epsilon* read through the duality map against the word-level star route."""
    d = _random_datum(n, delta, rng)
    hf = d.carrier.height_function()
    order, word = hf.compatible_reading()
    ld = LusztigDatum(n, word, tuple(d.get(v) for v in order))
    starred = star_datum(ld)
    # position r of the starred word corresponds to the reversed,
    # starred-and-flipped reading vertex
    dual_carrier = Carrier(f"gamma-delta:{1 - delta}", n)
    counts = {}
    for r, c in enumerate(starred.counts):
        src = order[len(order) - 1 - r]
        u = Vertex(roots.star(n, src.i), 2 * n - src.k2)
        if starred.word[r] != u.i:
            raise InternalError(f"starred letter {starred.word[r]} at {r} is not the row of {u}")
        if c:
            counts[u] = c
    via_word = VertexDatum(dual_carrier, counts)
    for j in range(1, n + 1):
        a = reineke.epsilon_star(j, d)
        b = reineke.epsilon_any(j, via_word)
        yield a == b, f"epsilon* mismatch n={n} j={j}: {a} != {b}"


# -- epsilon predictions -----------------------------------------------------


def _cone_candidates(xi: HeightFunction, v: Vertex, span2: int) -> list[Vertex]:
    return [w for w in xi.vertices_between(v.k2 + 1, v.k2 + span2) if xi.prec(v, w)]


def _ray_candidates(xi: HeightFunction, v: Vertex, span2: int) -> list[Vertex]:
    out = []
    if xi.flavor == UNTWISTED:
        for r in range(1, span2 // 2 + 1):
            for i in (v.i - r, v.i + r):
                w = Vertex(i, v.k2 + 2 * r)
                if 1 <= i <= xi.n and xi.is_vertex(w):
                    out.append(w)
        return out
    for i in range(1, xi.n + 1):
        for sign in (1, -1):
            r2 = sign * (big_theta2(xi.n0, i) - big_theta2(xi.n0, v.i))
            if 0 < r2 <= span2:
                w = Vertex(i, v.k2 + r2)
                if xi.is_vertex(w) and xi.prec(v, w):
                    out.append(w)
    return out


def _region_break_candidates(xi: HeightFunction, v: Vertex, span2: int) -> list[Vertex]:
    """Twisted starts violating the region half of the snake condition."""
    rv = xi.region(v)
    if rv in (Region.LT, Region.U):
        allowed = (Region.GT, Region.U)
    else:
        allowed = (Region.LT, Region.D)
    return [w for w in _cone_candidates(xi, v, span2) if xi.region(w) in allowed]


def _check_prediction(rng: random.Random, flavor: str) -> Iterator[Outcome]:
    """A lemma-predicted 0/1 tfd value against the Reineke epsilon bridge."""
    if flavor == UNTWISTED:
        n = rng.randint(2, 6)
        xi = HeightFunction.canonical(n, rng.randint(0, 1)).shifted(2 * rng.randint(-4, 4))
    else:
        n0 = rng.randint(2, 4)
        xi = HeightFunction.big_theta(n0).shifted(2 * rng.randint(-4, 4))
    span2 = 2 * xi.ntilde2()
    v = random_vertex(xi, rng, -8, 8)
    mode = rng.choice(("prime", "ray", "cone", "cone") + (("break",) if flavor == TWISTED else ()))
    if mode == "prime":
        cands = snake_candidates(xi, v, prime=True)
    elif mode == "ray":
        cands = _ray_candidates(xi, v, span2)
    elif mode == "break":
        cands = _region_break_candidates(xi, v, span2)
    else:
        cands = _cone_candidates(xi, v, span2)
    if not cands:
        return
    pts = grow_snake(xi, rng, rng.choice(cands), rng.randint(1, 4), prime=bool(rng.getrandbits(1)))
    side = rng.choice(("left", "right"))
    if side == "left":
        predicted = tsystem.predicted_tfd_left(xi, v, pts)
    else:
        # reuse the same configuration mirrored: probe after the snake
        top = pts[-1]
        wcands = _cone_candidates(xi, top, span2)
        if not wcands:
            return
        v = rng.choice(wcands)
        predicted = tsystem.predicted_tfd_right(xi, pts, v)
    if predicted is None:
        yield None, "indeterminate"
        return
    try:
        got = tsystem.tfd_via_epsilon(xi, v, pts, side)
    except OutsideWindow:
        # the configuration admits no window normalization (snake wider
        # than the staircase window); the lemma value stands untested
        yield None, "bridge_unreachable"
        return
    yield got == predicted, f"prediction {predicted} != epsilon {got} for v={v}, P={pts}, side={side}, xi={xi.values2}"


# -- Q/R -------------------------------------------------------------------


def _check_qr_snakes(rng: random.Random, flavor: str) -> Iterator[Outcome]:
    """Concatenated Q/R of a random prime snake: snakes, disjoint, on-quiver."""
    if flavor == UNTWISTED:
        n = rng.randint(2, 6)
        xi = random_height_function(n, rng)
    else:
        n0 = rng.randint(2, 4)
        xi = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
    pts = random_snake(xi, rng, rng.randint(2, 6), prime=True, k2_lo=rng.randint(-6, 6))
    if len(pts) < 2:
        return
    pair = snakes.qr_sequences(xi, pts)
    ok = True
    msg = ""
    if set(pair.q) & set(pair.r):
        ok, msg = False, f"Q and R share vertices for P={pts}"
    for seq, tag in ((pair.q, "Q"), (pair.r, "R")):
        if seq and not snakes.is_snake(xi, seq):
            ok, msg = False, f"{tag}={seq} is not a snake for P={pts}"
        if any(not xi.is_vertex(u) for u in seq):
            ok, msg = False, f"{tag}={seq} leaves the quiver for P={pts}"
    yield ok, msg


def _check_dual_equivariance(rng: random.Random, xi: HeightFunction, v: Vertex, w: Vertex) -> Iterator[Outcome]:
    """Untwisted D-equivariance: the Q/R pair of the dualized pair is the dualized, swapped pair."""
    pair = snakes.qr_untwisted(xi, v, w)
    dual = snakes.qr_untwisted(xi, xi.dualize(v), xi.dualize(w))
    want_q = tuple(xi.dualize(u) for u in pair.r)
    want_r = tuple(xi.dualize(u) for u in pair.q)
    yield dual.q == want_q and dual.r == want_r, f"D-equivariance fails at v={v}, w={w} (n={xi.n})"


def _datum_cases(trials: int) -> Iterator[tuple[int, int]]:
    """(n, delta) for n = 2..6, trials // 5 (at least 1) of each, delta alternating."""
    return ((n, t % 2) for n in range(2, 7) for t in range(max(1, trials // 5)))


# in report order; "all" runs every row, and D-equivariance is exhaustive up to n = 4
SWEEPS = (
    Sweep("moves", "moves", lambda trials: ((n,) for n in range(2, 7) for _ in range(max(1, trials // 5))), _check_walk),
    Sweep("rho", "rho", lambda trials: ((n0,) for n0 in range(2, 6) for _ in range(trials)), _check_rho),
    Sweep("reineke", "reineke-dual", _datum_cases, _check_reineke_dual),
    Sweep("reineke", "epsilon-star", _datum_cases, _check_epsilon_star),
    Sweep("reineke", f"epsilon-predictions-{UNTWISTED}", lambda trials: [(UNTWISTED,)], _check_prediction, until=True),
    Sweep("reineke", f"epsilon-predictions-{TWISTED}", lambda trials: [(TWISTED,)], _check_prediction, until=True),
    Sweep("qr", f"qr-being-snake-{UNTWISTED}", lambda trials: [(UNTWISTED,)], _check_qr_snakes, until=True),
    Sweep("qr", f"qr-being-snake-{TWISTED}", lambda trials: [(TWISTED,)], _check_qr_snakes, until=True),
    Sweep("qr", "qr-dual-equivariance", lambda trials: canonical_prime_pairs(range(2, 5)), _check_dual_equivariance),
)


def run_suite(suite: str, trials: int, seed: int) -> list[SweepResult]:
    """The sweeps of a suite ("all" runs every row), in SWEEPS order."""
    out = [run(sweep, trials, seed) for sweep in SWEEPS if suite in (sweep.group, "all")]
    if not out:
        raise ValueError(f"unknown suite {suite!r}")
    return out
