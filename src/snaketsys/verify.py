"""Randomized and exhaustive verification sweeps.

Each sweep returns a SweepResult with pass/fail counts and the first
counterexample (as text), so the CLI can report and exit nonzero on
failure and the test suite can assert emptiness.  All sweeps are seeded.
"""
from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def record(self, ok: bool, message: str = "") -> None:
        if ok:
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


# -- move layer -------------------------------------------------------------


def sweep_moves(ns=(2, 3, 4, 5, 6), walks_per_n: int = 200, steps: int = 200, seed: int = 0) -> SweepResult:
    """Random move walks: weight conservation plus both move involutions."""
    res = SweepResult("moves")
    rng = random.Random(seed)
    for n in ns:
        _, word = HeightFunction.canonical(n, 0).compatible_reading()
        for _ in range(walks_per_n):
            counts = tuple(rng.randint(0, 9) for _ in word)
            d = LusztigDatum(n, word, counts)
            w0 = weight(d)
            for step in range(steps):
                two = [r for r in range(len(d.word) - 1) if abs(d.word[r] - d.word[r + 1]) >= 2]
                three = [
                    r for r in range(1, len(d.word) - 1)
                    if d.word[r - 1] == d.word[r + 1] and abs(d.word[r] - d.word[r - 1]) == 1
                ]
                kind, r = rng.choice([("2", r) for r in two] + [("3", r) for r in three])
                nxt = two_move(d, r) if kind == "2" else apply_three_move(d, r)
                if step % 25 == 0:
                    back = two_move(nxt, r) if kind == "2" else apply_three_move(nxt, r)
                    res.record(back == d, f"{kind}-move at {r} not involutive on {d}")
                d = nxt
            res.record(weight(d) == w0, f"weight drifted on a walk at n={n}")
    return res


# -- rho vs translation ------------------------------------------------------


def sweep_rho(n0s=(2, 3, 4, 5), trials_per_n0: int = 500, seed: int = 0) -> SweepResult:
    """rho(e(P)) = e(P-dagger) on random window snakes."""
    res = SweepResult("rho")
    rng = random.Random(seed)
    for n0 in n0s:
        big = HeightFunction.big_theta(n0)
        n = big.n
        src_carrier = Carrier(GAMMA_BIG_THETA, n)
        dst_carrier = Carrier(GAMMA_THETA, n)
        for _ in range(trials_per_n0):
            pts = snakes.random_snake(big, rng, rng.randint(1, 6), prime=False, in_gamma=True)
            dagger = snakes.translate_twisted(n0, pts)
            got = rho(unit_datum(src_carrier, pts))
            want = unit_datum(dst_carrier, dagger)
            res.record(
                got.nonzero() == want.nonzero(),
                f"rho(e(P)) != e(P-dagger) for n0={n0}, P={pts}",
            )
    return res


# -- Reineke ---------------------------------------------------------------


def _random_datum(n: int, delta: int, rng: random.Random) -> VertexDatum:
    carrier = Carrier(f"gamma-delta:{delta}", n)
    counts = {}
    for v in carrier.vertices():
        if rng.random() < 0.5:
            counts[v] = rng.randint(0, 4)
    return VertexDatum(carrier, counts)


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
    wts = reineke._weights(om, d)
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


def sweep_reineke_dual(ns=(2, 3, 4, 5, 6), trials_per_n: int = 200, seed: int = 0) -> SweepResult:
    """Brute force on the preceq interval against the staircase programme on the closed form, every j."""
    res = SweepResult("reineke-dual")
    rng = random.Random(seed)
    for n in ns:
        for t in range(trials_per_n):
            delta = t % 2
            d = _random_datum(n, delta, rng)
            for j in range(1, n + 1):
                if j % 2 != delta:
                    continue
                bf = epsilon_bruteforce(omega_interval(n, j), d)
                dp = reineke.epsilon(j, d)
                res.record(bf == dp, f"solvers disagree: n={n} j={j} {bf} != {dp} on {d.nonzero()}")
    return res


def sweep_epsilon_star(ns=(2, 3, 4, 5, 6), trials_per_n: int = 200, seed: int = 0) -> SweepResult:
    """epsilon* read through the duality map against the word-level star route."""
    res = SweepResult("epsilon-star")
    rng = random.Random(seed)
    for n in ns:
        for t in range(trials_per_n):
            delta = t % 2
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
                res.record(a == b, f"epsilon* mismatch n={n} j={j}: {a} != {b}")
    return res


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


def sweep_epsilon_predictions(flavor: str, trials: int = 500, seed: int = 0) -> SweepResult:
    """Lemma-predicted 0/1 tfd values against the Reineke epsilon bridge."""
    res = SweepResult(f"epsilon-predictions-{flavor}")
    rng = random.Random(seed)
    tally: dict = {0: 0, 1: 0, None: 0}
    while res.passed + res.failed < trials:
        if flavor == UNTWISTED:
            n = rng.randint(2, 6)
            xi = HeightFunction.canonical(n, rng.randint(0, 1)).shifted(2 * rng.randint(-4, 4))
        else:
            n0 = rng.randint(2, 4)
            xi = HeightFunction.big_theta(n0).shifted(2 * rng.randint(-4, 4))
        span2 = 2 * xi.ntilde2()
        v = snakes.random_vertex(xi, rng, -8, 8)
        mode = rng.choice(("prime", "ray", "cone", "cone") + (("break",) if flavor == TWISTED else ()))
        if mode == "prime":
            cands = snakes.snake_candidates(xi, v, prime=True)
        elif mode == "ray":
            cands = _ray_candidates(xi, v, span2)
        elif mode == "break":
            cands = _region_break_candidates(xi, v, span2)
        else:
            cands = _cone_candidates(xi, v, span2)
        if not cands:
            continue
        pts = snakes.grow_snake(xi, rng, rng.choice(cands), rng.randint(1, 4), prime=bool(rng.getrandbits(1)))
        side = rng.choice(("left", "right"))
        if side == "left":
            predicted = tsystem.predicted_tfd_left(xi, v, pts)
        else:
            # reuse the same configuration mirrored: probe after the snake
            top = pts[-1]
            wcands = _cone_candidates(xi, top, span2)
            if not wcands:
                continue
            v = rng.choice(wcands)
            predicted = tsystem.predicted_tfd_right(xi, pts, v)
        tally[predicted] = tally.get(predicted, 0) + 1
        tally[mode] = tally.get(mode, 0) + 1
        if predicted is None:
            res.skipped += 1
            continue
        try:
            got = tsystem.tfd_via_epsilon(xi, v, pts, side)
        except OutsideWindow:
            # the configuration admits no window normalization (snake wider
            # than the staircase window); the lemma value stands untested
            res.details["bridge_unreachable"] = res.details.get("bridge_unreachable", 0) + 1
            res.skipped += 1
            continue
        res.record(
            got == predicted,
            f"prediction {predicted} != epsilon {got} for v={v}, P={pts}, side={side}, xi={xi.values2}",
        )
    res.details["coverage"] = {str(k): c for k, c in tally.items()}
    return res


# -- Q/R -------------------------------------------------------------------


def sweep_qr_being_snake(flavor: str, trials: int = 1000, seed: int = 0) -> SweepResult:
    """Concatenated Q/R of random prime snakes: snakes, disjoint, on-quiver."""
    res = SweepResult(f"qr-being-snake-{flavor}")
    rng = random.Random(seed)
    while res.passed + res.failed < trials:
        if flavor == UNTWISTED:
            n = rng.randint(2, 6)
            xi = random_height_function(n, rng)
        else:
            n0 = rng.randint(2, 4)
            xi = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
        pts = snakes.random_snake(xi, rng, rng.randint(2, 6), prime=True, k2_lo=rng.randint(-6, 6))
        if len(pts) < 2:
            continue
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
        res.record(ok, msg)
    return res


def sweep_qr_dual_equivariance(ns=(2, 3, 4, 5, 6), seed: int = 0) -> SweepResult:
    """Exhaustive untwisted D-equivariance: QR of a dualized pair swaps.

    Every prime pair (v, w) of canonical(n, 0) with 0 <= k2(v) <= 4*ntilde
    is checked.
    """
    res = SweepResult("qr-dual-equivariance")
    for n in ns:
        xi = HeightFunction.canonical(n, 0)
        for v in xi.vertices_between(0, 4 * xi.ntilde2()):
            for w in snakes.snake_candidates(xi, v, prime=True):
                pair = snakes.qr_untwisted(xi, v, w)
                dual = snakes.qr_untwisted(xi, xi.dualize(v), xi.dualize(w))
                want_q = tuple(xi.dualize(u) for u in pair.r)
                want_r = tuple(xi.dualize(u) for u in pair.q)
                res.record(
                    dual.q == want_q and dual.r == want_r,
                    f"D-equivariance fails at v={v}, w={w} (n={n})",
                )
    return res


# -- suite runner ------------------------------------------------------------


# (suite, result name, sweep of (trials, seed)), in report order; "all" runs every row
SUITES = (
    ("moves", "moves", lambda trials, seed: sweep_moves(walks_per_n=max(1, trials // 5), seed=seed)),
    ("rho", "rho", lambda trials, seed: sweep_rho(trials_per_n0=trials, seed=seed)),
    ("reineke", "reineke-dual",
     lambda trials, seed: sweep_reineke_dual(trials_per_n=max(1, trials // 5), seed=seed)),
    ("reineke", "epsilon-star",
     lambda trials, seed: sweep_epsilon_star(trials_per_n=max(1, trials // 5), seed=seed)),
    ("reineke", f"epsilon-predictions-{UNTWISTED}",
     lambda trials, seed: sweep_epsilon_predictions(UNTWISTED, trials=trials, seed=seed)),
    ("reineke", f"epsilon-predictions-{TWISTED}",
     lambda trials, seed: sweep_epsilon_predictions(TWISTED, trials=trials, seed=seed)),
    ("qr", f"qr-being-snake-{UNTWISTED}",
     lambda trials, seed: sweep_qr_being_snake(UNTWISTED, trials=trials, seed=seed)),
    ("qr", f"qr-being-snake-{TWISTED}",
     lambda trials, seed: sweep_qr_being_snake(TWISTED, trials=trials, seed=seed)),
    ("qr", "qr-dual-equivariance", lambda trials, seed: sweep_qr_dual_equivariance(ns=(2, 3, 4), seed=seed)),
)


def run_suite(suite: str, trials: int, seed: int) -> list[SweepResult]:
    """The sweeps of a suite, in SUITES order.

    A sweep that raises becomes a failed result whose first counterexample
    names the exception (the traceback is kept in its details), and the
    later sweeps still run.
    """
    out: list[SweepResult] = []
    for group, name, sweep in SUITES:
        if suite not in (group, "all"):
            continue
        try:
            out.append(sweep(trials, seed))
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
            out.append(SweepResult(name, failed=1, first_failure=failure, details={"traceback": traceback.format_exc()}))
    if not out:
        raise ValueError(f"unknown suite {suite!r}")
    return out
