"""Extended T-system relations and the epsilon-based verification bridge.

For a prime snake P of length p >= 2 the relation has the shape

    0 -> S(Q) (x) S(R) -> S(P_[1,p-1]) (x) S(P_[2,p])
                       -> S(P) (x) S(P_[2,p-1]) -> 0,

with (Q, R) the concatenated socle positions; its primality check is the
left half of the hypothesis sweep, and the right half, all 1 on a prime
snake, is left to check_theorem_hypotheses (see extended_tsystem).  The
invariant tfd between a cuspidal probe and a snake head is never computed
categorically; this module exposes the 0/1 predictions of the
snake-position lemmas, plus an exact evaluation path through Reineke's
epsilon: normalize the probe, translate twisted data to the untwisted
staircase, and maximize over lower closed subsets.  The two paths are
independent and are cross-checked in the test suite.  Both are written for
a probe before the snake; the coordinate reversal (i, k) -> (i*, -k) of
HeightFunction.reversed turns a probe after the snake into one before it,
except in the twisted normalization search.  The bridge checks its input
once, at tfd_via_epsilon (or tfd_left_via_epsilon): the points must be a
snake and the probe a vertex, else NotSnake.  After that the bridge moves
checked vertices only by maps that keep them on the quiver (the reversal,
D, the parity shift, shifts by a multiple of 4), builds the reversed and
shifted ones with _vertex, and checks none of them again: only the
translation's result guards run, and the translated snake goes to Reineke
as it is.
"""
from __future__ import annotations

from functools import partial
from itertools import dropwhile, repeat, takewhile
from typing import NamedTuple

from . import reineke
from .errors import NotPrimeSnake, NotSnake, OutsideWindow, TooShort
from .quivers import TWISTED, UNTWISTED, HeightFunction, Region, Vertex, _vertex, vertices_json
from .snakes import (
    Points,
    _dagger,
    _in_prime_window,
    _qr_concat,
    _snake_position,
    is_snake,
    split_prime,
    twisted_parity_shift2,
)


class TSystemRelation(NamedTuple):
    xi: HeightFunction
    p: Points            # the prime snake
    term_b: Points       # P_[1, p-1]
    term_c: Points       # P_[2, p]
    term_a: Points       # P
    term_d: Points       # P_[2, p-1], () denotes the unit
    first_q: Points
    first_r: Points
    # class constants, not fields: extended_tsystem raises on every snake
    # for which one of them would be False
    real = prime = hypotheses_ok = True

    @property
    def flavor(self) -> str:
        return self.xi.flavor


def extended_tsystem(xi: HeightFunction, points) -> TSystemRelation:
    """The relation of a prime snake; the snake is checked once, here.

    Each point is checked to be a vertex, and then primality is read from
    the left predictions of the hypothesis sweep: _predict_left returns 1
    exactly on a pair in prime snake position, so the snake is prime iff
    every left prediction is 1.  On a prime snake every right prediction
    is 1 too, so hypotheses_ok is True without computing them;
    check_theorem_hypotheses still runs the whole sweep, and the tests
    hold it to this.
    """
    pts = tuple(points)
    if len(pts) < 2:
        raise TooShort("extended T-system needs a snake of length >= 2")
    if not all(map(xi.is_vertex, pts)):
        raise NotPrimeSnake("input is not a snake")
    left = _pair_predictions(xi, pts)
    if left.count(1) != len(left):
        if is_snake(xi, pts):
            raise NotPrimeSnake(f"snake is not prime; prime segments: {split_prime(xi, pts)}")
        raise NotPrimeSnake("input is not a snake")
    first_q, first_r = _qr_concat(xi, pts)
    return TSystemRelation(xi, pts, pts[:-1], pts[1:], pts, pts[1:-1], first_q, first_r)


# -- lemma-driven tfd predictions -----------------------------------------


def _on_ray(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """w strictly after v but on the boundary of its snake cone (v, w vertices of twisted xi)."""
    r2, t = w.k2 - v.k2, xi._rows
    return r2 > 0 and abs(t[w.i] - t[v.i]) == r2


def predicted_tfd_left(xi: HeightFunction, v: Vertex, points) -> int | None:
    """Predicted tfd(S_v, S(P)) for a probe strictly preceding the snake.

    1 in the prime-position case, 0 in the enumerated vanishing cases,
    None (indeterminate) outside them.  Only the head of the snake enters.
    """
    pts = tuple(points)
    if not is_snake(xi, pts) or not xi.is_vertex(v):
        return None
    return _predict_left(xi, v, pts[0])


def _predict_left(xi: HeightFunction, v: Vertex, first: Vertex) -> int | None:
    """predicted_tfd_left of a probe and a snake head already known to lie on the quiver."""
    if _snake_position(xi, v, first):
        # within the prime window, snake position is automatically prime
        return 1 if _in_prime_window(xi, v, first) else 0
    if v == first or not xi._climbs(v.i, first.i, first.k2 - v.k2):
        return None
    if not _in_prime_window(xi, v, first):
        return 0  # the whole snake sits outside the prime window of v
    if xi.flavor == UNTWISTED:
        return 0  # off the snake cone but inside the window: boundary rays
    if _on_ray(xi, v, first):
        return 0
    rv, rf = xi._region(v), xi._region(first)
    if rv == Region.U and rf in (Region.GT, Region.U):
        return 0
    if rv == Region.D and rf in (Region.LT, Region.D):
        return 0
    return None


def predicted_tfd_right(xi: HeightFunction, points, v: Vertex) -> int | None:
    """Predicted tfd(S(P), S_v) for a probe strictly after the snake.

    The coordinate reversal makes it a left probe, so only the tail of the
    snake enters.  The configuration is checked before it is reversed, so
    off-quiver input gives None, as on the left.
    """
    pts = tuple(points)
    if not is_snake(xi, pts) or not xi.is_vertex(v):
        return None
    return _predict_left(xi.reversed(), *_reverse(xi, (pts[-1], v)))


def _reverse(xi: HeightFunction, points) -> Points:
    """Vertices of xi's rows under the reversal (i, k) -> (i*, -k) of
    HeightFunction.reverse_vertex, read backwards; rows are not checked."""
    top = xi.n + 1
    return tuple([_vertex((top - i, -k2)) for i, k2 in reversed(tuple(points))])


# -- tfd through Reineke's epsilon ----------------------------------------


def _checked(xi: HeightFunction, v: Vertex, points) -> Points:
    """The bridge's one check of its input: points must be a snake and v a vertex of xi's quiver."""
    pts = tuple(points)
    if not is_snake(xi, pts):
        raise NotSnake("epsilon bridge expects a snake")
    if not xi.is_vertex(v):
        raise NotSnake(f"{v} is not a vertex of the quiver")
    return pts


def _truncate_to_window(xi: HeightFunction, v: Vertex, pts: Points) -> Points:
    """Drop the suffix outside the prime window of v (strong commutation): every point from the first
    that does not reach D^-1(v) on."""
    return tuple(takewhile(partial(_in_prime_window, xi, v), pts))


def tfd_left_via_epsilon(xi: HeightFunction, v: Vertex, points) -> int:
    """Exact tfd(S_v, S(P)) for an untwisted configuration.

    Drops the snake suffix that strongly commutes with the probe, then
    normalizes the probe to (j, -1) on the canonical parity window and
    evaluates Reineke's epsilon_j there.  The identity needs no order
    relation between probe and snake, only that the normalized snake fits
    the window.
    """
    if xi.flavor != UNTWISTED:
        raise ValueError("use tfd_via_epsilon for twisted data")
    return _epsilon_tfd(xi, v, _checked(xi, v, points))


def _epsilon_tfd(xi: HeightFunction, v: Vertex, pts: Points) -> int:
    """tfd_left_via_epsilon of an untwisted probe and snake already known to lie on the quiver."""
    pts = _truncate_to_window(xi, v, pts)
    if not pts:
        return 0
    slot = HeightFunction.canonical(xi.n, v.i % 2).window.slot
    vals = [0] * len(slot)
    off2 = v.k2 + 2  # the probe moves to (j, -1)
    for x in (_vertex((u.i, u.k2 - off2)) for u in pts):
        if x not in slot:
            raise OutsideWindow(f"normalized point {x} escapes the canonical window")
        vals[slot[x]] += 1
    return reineke._epsilon_on_slots(xi.n, v.i, tuple(vals))


def _untwisted_probe_tfd(theta: HeightFunction, probes: tuple[Vertex, ...], dagger: tuple[Vertex, ...]) -> int:
    """tfd between the head of the translated probe factors and S(dagger).

    A single factor goes straight to Reineke.  With two factors, drop
    whichever strongly commutes with the whole snake; the prime-window
    clearance points toward the snake, one extra duality step for the
    factor on the far side of the head.  Probes and dagger come from the
    translation, whose result guard has checked them on theta's quiver.
    """
    if len(probes) == 1:
        return _epsilon_tfd(theta, probes[0], dagger)
    c1, c2 = probes
    ft = dagger[0]
    drop1 = not _in_prime_window(theta, c1, ft)
    drop2 = not _in_prime_window(theta, theta.dualize(c2, -1), ft)
    if drop1 and drop2:
        return 0
    if drop1 or drop2:
        return _epsilon_tfd(theta, c2 if drop1 else c1, dagger)
    raise OutsideWindow("probe translate has two interacting factors")


def _truncate_after_window(xi: HeightFunction, pts: Points, v: Vertex) -> Points:
    """Drop the snake prefix whose prime windows miss a right probe."""
    return tuple(dropwhile(lambda x: not _in_prime_window(xi, x, v), pts))


def _twisted_core(big: HeightFunction, v: Vertex, pts: Points, side: str) -> int:
    """The normalization search on the big_theta parity class, kept two-sided:
    on the reversed configuration it moves a few configurations between a
    value and OutsideWindow, both ways, though the values found agree.

    v and pts lie on big_theta's quiver and pts is a snake there.  A shift
    by a multiple of 4 keeps every vertex on its row's lattice and every
    snake a snake, and the candidate shifts keep the whole snake in the
    window, so the moved snake is built with _vertex, only for a candidate
    whose probe passes the window test, and translated unchecked.
    """
    n0 = big.n0
    pts = _truncate_to_window(big, v, pts) if side == "left" else _truncate_after_window(big, pts, v)
    if not pts:
        return 0
    # even shifts (multiples of 4 in doubled units) for which the whole snake fits the big_theta window
    rows = [(big.gamma_row(x.i), x.k2) for x in pts]
    s_lo = max(row[0] - k2 for row, k2 in rows)
    s_hi = min(row[-1] - k2 for row, k2 in rows)
    candidates = range(s_hi - s_hi % 4, s_lo - 1, -4)
    theta = HeightFunction.theta(n0)
    dual_sign = -1 if side == "left" else 1  # off-window probe rewrite direction
    last_error: Exception | None = None
    for steps in (0, -dual_sign):  # the probe in the window, then one duality step away from it
        for s2 in candidates:
            probe_src = _vertex((v.i, v.k2 + s2))
            if steps:
                probe_src = big.dualize(probe_src, dual_sign)
            if not big.in_gamma(probe_src):
                continue
            try:
                dagger = _dagger(n0, tuple([_vertex((x.i, x.k2 + s2)) for x in pts]))
                probes = _dagger(n0, (probe_src,))
                if steps:
                    probes = tuple(theta.dualize(c, steps) for c in probes)
                if side == "left":
                    return _untwisted_probe_tfd(theta, probes, dagger)
                # a right probe on theta is a left probe on the reversed theta
                return _untwisted_probe_tfd(theta.reversed(), _reverse(theta, probes), _reverse(theta, dagger))
            except OutsideWindow as exc:
                last_error = exc
    raise OutsideWindow(f"no admissible normalization ({side}): {last_error}")


def _twisted_bridge(xi: HeightFunction, v: Vertex, pts: Points, side: str) -> int:
    """tfd_via_epsilon of twisted data already checked: the parity shift puts xi's quiver on big_theta's,
    row for row on the same lattice, so the moved probe and snake are built with _vertex."""
    big = HeightFunction.big_theta(xi.n0)
    s2 = twisted_parity_shift2(xi)
    v, *pts = (_vertex((x.i, x.k2 - s2)) for x in (v, *pts))
    try:
        return _twisted_core(big, v, tuple(pts), side)
    except OutsideWindow:
        # duality preserves the invariant; retry on the mirrored configuration
        return _twisted_core(big, big.dualize(v), tuple(big.dualize(x) for x in pts), side)


def tfd_via_epsilon(xi: HeightFunction, v: Vertex, points, side: str) -> int:
    """Exact tfd(S_v, S(P)) (side "left") or tfd(S(P), S_v) (side "right").

    The snake and the probe are checked once, here: a probe off the quiver
    is a NotSnake, as in Snake.  An untwisted right probe is a left probe
    of the reversed configuration.  Twisted data is aligned with the
    big_theta parity class and slid until the snake fits the window; the
    probe becomes a translated snake module (directly if its slot is in the
    window, through one duality step otherwise), and the surviving
    untwisted factor is evaluated by Reineke's epsilon.  Configurations
    whose probe translate keeps two interacting factors are outside the
    reduction and raise OutsideWindow.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    pts = _checked(xi, v, points)
    if xi.flavor == TWISTED:
        return _twisted_bridge(xi, v, pts, side)
    if side == "right":
        xi, (v, *pts) = xi.reversed(), _reverse(xi, (*pts, v))
    return _epsilon_tfd(xi, v, tuple(pts))


# -- hypothesis sweep -------------------------------------------------------


class HypothesesReport(NamedTuple):
    """The sweep over a snake of length p, stored as its 2(p-1) predictions.

    With 0-based points, left[s] is predicted_tfd_left of the probe pts[s]
    against the snake (pts[s+1],) and right[s] is predicted_tfd_right of the
    snake (pts[s],) against the probe pts[s+1]; the left check of slice
    [a, b] reads left[a-1] and the right check right[b-2].
    """

    left: tuple[int | None, ...]
    right: tuple[int | None, ...]

    @property
    def all_one(self) -> bool:
        """Every check predicts 1: each prediction fills at least one check."""
        return all(x == 1 for x in self.left) and all(x == 1 for x in self.right)


def _pair_predictions(xi: HeightFunction, pts: Points) -> tuple[int | None, ...]:
    """predicted_tfd_left of each point against the snake made of its successor."""
    return tuple(map(_predict_left, repeat(xi), pts, pts[1:]))


def check_theorem_hypotheses(xi: HeightFunction, points) -> HypothesesReport:
    """Evaluate both exactness hypotheses on every sub-slice of a snake.

    The left check of slice [a, b] probes P_[a+1, b] with its predecessor
    and the right check probes P_[a, b-1] with its successor.  Slices of a
    snake are snakes, and predicted_tfd_left reads only the head of its
    snake (predicted_tfd_right only the tail), so each prediction depends
    on one adjacent pair: 2(p-1) predictions fill all p(p-1) checks.  For a
    prime snake every check predicts 1.  The exact values behind the
    predictions come from tfd_via_epsilon, which needs the whole slice;
    verify's epsilon-predictions sweeps compare the two.
    """
    pts = tuple(points)
    if not is_snake(xi, pts):
        raise NotSnake("hypothesis check expects a snake")
    left = _pair_predictions(xi, pts)
    # predicted_tfd_right of each point's snake against its successor, on the configuration reversed once
    right = _pair_predictions(xi.reversed(), _reverse(xi, pts))[::-1]
    return HypothesesReport(left, right)


# -- rendering ---------------------------------------------------------------


def _render(rel: TSystemRelation, unit: str, name: str, tensor: str, arrow: str) -> str:
    """0 -> Q (x) R -> B (x) C -> A (x) D -> 0 with the given unit, module, tensor and arrow symbols."""
    def term(points: Points) -> str:
        return unit if not points else f"{name}(" + ",".join(map(str, points)) + ")"

    pairs = ((rel.first_q, rel.first_r), (rel.term_b, rel.term_c), (rel.term_a, rel.term_d))
    return f"0{arrow}" + arrow.join(term(x) + tensor + term(y) for x, y in pairs) + f"{arrow}0"


def relation_text(rel: TSystemRelation) -> str:
    return _render(rel, "1", "S", " (x) ", " -> ")


def relation_latex(rel: TSystemRelation) -> str:
    return _render(rel, r"\mathbf{1}", r"\mathbf{S}", r" \otimes ", r" \to ")


def relation_json(rel: TSystemRelation) -> dict:
    return {
        "flavor": rel.flavor,
        "P": vertices_json(rel.p),
        "B": vertices_json(rel.term_b),
        "C": vertices_json(rel.term_c),
        "A": vertices_json(rel.term_a),
        "D": vertices_json(rel.term_d),
        "Q": vertices_json(rel.first_q),
        "R": vertices_json(rel.first_r),
        "flags": {"real": rel.real, "prime": rel.prime},
        "hypotheses_ok": rel.hypotheses_ok,
    }
