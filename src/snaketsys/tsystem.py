"""Extended T-system relations and the epsilon-based verification bridge.

For a prime snake P of length p >= 2 the relation has the shape

    0 -> S(Q) (x) S(R) -> S(P_[1,p-1]) (x) S(P_[2,p])
                       -> S(P) (x) S(P_[2,p-1]) -> 0,

with (Q, R) the concatenated socle positions of its pairs.  A
TSystemRelation is a checked value: however it is built, its snake is
checked once, by snakes.qr_sequences, which owns both the primality check
and (Q, R): one vertex check per point, then one call of the run kernel,
which tests each pair's prime position and gives its Q/R in one loop, so
realize.relation_monomials trusts its points.  P, Q and R are stored as
Vertex values, also when P was given as plain (i, k2) pairs.  Every check
of the hypothesis sweep is 1 on a prime snake, so only
check_theorem_hypotheses runs it (see extended_tsystem); it and
snakes.split_prime build Vertex values from their points after checking
them, as the bridge does.

The invariant tfd between a cuspidal probe and a snake head is never computed
categorically; this module exposes the 0/1 predictions of the
snake-position lemmas, plus an exact evaluation path through Reineke's
epsilon: normalize the probe, translate twisted data to the untwisted
staircase, and maximize over lower closed subsets.  The two paths are
independent and are cross-checked in the test suite.  Both are written for
a probe before the snake; the coordinate reversal (i, k) -> (i*, -k) of
HeightFunction.reversed turns a probe after the snake into one before it,
except in the twisted normalization search.  The bridge checks its input
once, at tfd_via_epsilon, its one entry: the points must be a snake and
the probe a vertex, else NotSnake.  After that the bridge moves
checked vertices only by maps that keep them on the quiver (the reversal,
D, the parity shift, shifts by a multiple of 4), reads the points as
(i, k2) pairs and builds each vertex it moves, and the probe it reads
fields of, with _vertex, so plain pairs work as input.  It checks none of
them again, save in the twisted search's retry on the mirrored
configuration, which moves the probe and the snake by the checked
HeightFunction.dualize: only the translation's result guards run, and
the translated snake goes to Reineke as it is.
An untwisted probe costs one loop over the snake: the prime-window
truncation on constants hoisted out of it, the canonical window's slot
lookup as the window test, and the normalized points handed to
reineke._unit_weights, which places their unit counts straight onto
Omega_j's cells, so no vector over the window is built.
The twisted search reads its rank's constants from the table
snakes._twist: the window row bounds, theta and its reversal, and each
window probe's translation, checked when the table was built, so a
probe's window test and its translation are one lookup.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import dropwhile, repeat, takewhile
from typing import NamedTuple

from . import reineke
from .errors import NotPrimeSnake, NotSnake, OutsideWindow, TooShort
from .quivers import TWISTED, HeightFunction, Vertex, _vertex, vertices_json
from .snakes import (
    Points,
    _Twist,
    _dagger,
    _in_prime_window,
    _snake_position,
    _twist,
    is_snake,
    qr_sequences,
    split_prime,
    twisted_parity_shift2,
)


@dataclass(frozen=True)
class TSystemRelation:
    """The relation of a prime snake P, checked when it is built.

    Every way to build one (the constructor, extended_tsystem,
    dataclasses.replace) runs __post_init__, which checks the snake once, by
    qr_sequences: each point a vertex, then one call of the run kernel,
    which tests each pair's prime snake position and gives its Q/R.
    Its NotPrimeSnake becomes a message naming the prime segments that
    split_prime finds, or, on split_prime's NotSnake, saying the input is no
    snake.  B, C, A and D are slices of P.
    """

    xi: HeightFunction
    p: Points  # the prime snake, stored as a tuple
    first_q: Points = field(init=False)
    first_r: Points = field(init=False)
    # class constants, not fields: a relation is only built on a prime snake,
    # for which none of them is False
    real = prime = hypotheses_ok = True

    def __post_init__(self):
        xi, pts = self.xi, tuple(self.p)
        if len(pts) < 2:
            raise TooShort("extended T-system needs a snake of length >= 2")
        try:
            first_q, first_r = qr_sequences(xi, pts)
        except NotPrimeSnake:
            try:
                segments = split_prime(xi, pts)
            except NotSnake:
                raise NotPrimeSnake("input is not a snake") from None
            raise NotPrimeSnake(f"snake is not prime; prime segments: {segments}") from None
        p = pts if {*map(type, pts)} == {Vertex} else tuple(map(_vertex, pts))  # plain (i, k2) pairs: Vertex values
        self.__dict__.update(p=p, first_q=first_q, first_r=first_r)  # frozen: set once, here

    flavor = property(lambda self: self.xi.flavor)
    term_a = property(lambda self: self.p)  # P
    term_b = property(lambda self: self.p[:-1])  # P_[1, p-1]
    term_c = property(lambda self: self.p[1:])  # P_[2, p]
    term_d = property(lambda self: self.p[1:-1])  # P_[2, p-1], () denotes the unit


def extended_tsystem(xi: HeightFunction, points) -> TSystemRelation:
    """The relation of a prime snake: TSystemRelation(xi, points), checked once as it is built.

    On a prime snake every prediction of the hypothesis sweep is 1, so
    hypotheses_ok is True without computing them; check_theorem_hypotheses
    still runs the whole sweep, and the tests hold it to this.
    """
    return TSystemRelation(xi, points)


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
    return _predict_left(xi, _vertex(v), _vertex(pts[0]))


def _predict_left(xi: HeightFunction, v: Vertex, first: Vertex) -> int | None:
    """predicted_tfd_left of a probe and a snake head already known to lie on the quiver.

    Past the window test, an untwisted probe, a twisted probe on the middle
    row and a head on a boundary ray of the probe's cone give 0; the rest
    is None.  The middle-row rule stands for two region rules, a probe in U
    against a head in GT or U and one in D against LT or D: the parity
    argument below shows that a middle-row probe gets this far with no
    other head.  The certificate
    test_middle_row_rule_certifies_the_region_rules in tests/test_tsystem.py
    holds it to a copy of the old rules on every pair of a probe of one
    period and a head within two duality periods, on every twisted shape
    with n0 <= 4.
    """
    if _snake_position(xi, v, first):
        # within the prime window, snake position is automatically prime
        return 1 if _in_prime_window(xi, v, first) else 0
    if v == first or not xi._climbs(v.i, first.i, first.k2 - v.k2):
        return None
    if not _in_prime_window(xi, v, first):
        return 0  # the whole snake sits outside the prime window of v
    # Untwisted: off the snake cone but inside the window, the head lies on a boundary ray.  Twisted, a middle-row
    # probe: a head in the regions where the region half of snake position holds fails only its gap half, so
    # |dT| <= diff2 < |dT| + 2 with dT = T_j - T_n0, and off the ray diff2 = |dT| + 1.  But diff2 - |dT| is even:
    # a middle-row k2 is odd, every other k2 even, T_n0 is odd and every other T even.
    return 0 if xi.n0 in (None, v.i) or _on_ray(xi, v, first) else None


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


def _truncate_to_window(xi: HeightFunction, v: Vertex, pts: Points) -> Points:
    """Drop the suffix outside the prime window of v (strong commutation): every point from the first
    that does not reach D^-1(v) on."""
    return tuple(takewhile(partial(_in_prime_window, xi, v), pts))


def _epsilon_tfd(xi: HeightFunction, v: Vertex, pts: Points) -> int:
    """Exact tfd(S_v, S(P)) of an untwisted probe and snake already known to lie on the quiver.

    Drops the snake suffix that strongly commutes with the probe, then
    normalizes the probe to (j, -1) on the canonical parity window and
    evaluates Reineke's epsilon_j there.  The identity needs no order
    relation between probe and snake, only that the normalized snake fits
    the window.  One loop does it all: the prime-window test of
    _in_prime_window on the hoisted constants, the window test as a slot
    lookup, and the normalized point kept; reineke._unit_weights places
    their unit counts straight onto Omega_j's cells for the staircase.
    """
    t, slot = xi._rows, HeightFunction.canonical(xi.n, v.i % 2).window.slot
    # D^-1(v) = (top, reach2), xi being untwisted (ntilde = n + 1); the probe moves to (j, -1)
    top, reach2, off2 = xi.n + 1 - v.i, v.k2 + 2 * (xi.n + 1), v.k2 + 2
    xs = []
    for i, k2 in pts:
        gap2 = reach2 - k2
        if not (gap2 >= abs(t[top] - t[i]) if t else gap2 == 0):
            break  # this point and all after it lie outside the prime window of v
        if (x := (i, k2 - off2)) not in slot:
            raise OutsideWindow(f"normalized point {_vertex(x)} escapes the canonical window")
        xs.append(x)
    return reineke._staircase(v.i, reineke._unit_weights(xi.n, v.i, xs)) if xs else 0


def _untwisted_probe_tfd(theta: HeightFunction, probes: tuple[Vertex, ...], dagger: tuple[Vertex, ...]) -> int:
    """tfd between the head of the translated probe factors and S(dagger).

    A single factor goes straight to Reineke.  Of two factors, the second,
    c2, never strongly commutes with the snake: the head always reaches
    D^-2(c2), so it lies in the prime window of D^-1(c2), the clearance of
    the factor on the far side of the head.  The certificate
    test_second_probe_factor_never_drops in tests/test_tsystem.py checks
    this for n0 = 2-12 on every two-factor translate of the rank's table,
    moved as _twisted_core moves it, against every head the translation
    can give (a theta-window vertex, reversed on the right).  So c1
    interacting with the head is outside the reduction (OutsideWindow), and
    otherwise c1 drops and the value is epsilon of c2.  Probes and dagger
    come from the translation, whose result guard has checked them on
    theta's quiver.
    """
    if len(probes) == 1:
        return _epsilon_tfd(theta, probes[0], dagger)
    c1, c2 = probes
    if _in_prime_window(theta, c1, dagger[0]):
        raise OutsideWindow("probe translate has two interacting factors")
    return _epsilon_tfd(theta, c2, dagger)


def _truncate_after_window(xi: HeightFunction, pts: Points, v: Vertex) -> Points:
    """Drop the snake prefix whose prime windows miss a right probe."""
    return tuple(dropwhile(lambda x: not _in_prime_window(xi, x, v), pts))


def _twisted_core(tw: _Twist, v: Vertex, pts: Points, side: str) -> int:
    """The normalization search on the big_theta parity class, kept two-sided:
    on the reversed configuration it moves a few configurations between a
    value and OutsideWindow, both ways, though the values found agree.

    v and pts lie on big_theta's quiver and pts is a snake there.  A shift
    by a multiple of 4 keeps every vertex on its row's lattice and every
    snake a snake, and the candidate shifts keep the whole snake in the
    window, so the moved snake is built with _vertex, only for a candidate
    whose probe lies in the window, and translated unchecked.  The probe,
    moved with _vertex by the shift and D, is looked up in the rank's
    table, whose keys are the window: the lookup is its window test and
    gives its translation, checked when the table was built.
    """
    big, theta = tw.big, tw.theta
    pts = _truncate_to_window(big, v, pts) if side == "left" else _truncate_after_window(big, pts, v)
    if not pts:
        return 0
    # even shifts (multiples of 4 in doubled units) for which the whole snake fits the big_theta window
    s_lo = max(tw.lo[x.i] - x.k2 for x in pts)
    s_hi = min(tw.hi[x.i] - x.k2 for x in pts)
    candidates = range(s_hi - s_hi % 4, s_lo - 1, -4)
    top, nt2 = big.n + 1, big.ntilde2()  # D^sign (i, k2) = (i*, k2 - sign ntilde2); theta's ntilde2 is nt2 + 2
    dual_sign = -1 if side == "left" else 1  # off-window probe rewrite direction
    last_error: Exception | str = "no candidate shift puts the probe, or its dual step, in the window"
    for steps in (0, -dual_sign):  # the probe in the window, then one duality step away from it
        for s2 in candidates:
            probe_src = _vertex((top - v.i, v.k2 + s2 - dual_sign * nt2) if steps else (v.i, v.k2 + s2))
            if (probes := tw.one.get(probe_src)) is None:
                continue
            try:
                dagger = _dagger(big.n0, tuple([_vertex((x.i, x.k2 + s2)) for x in pts]))
                if steps:
                    probes = tuple([_vertex((top - c.i, c.k2 - steps * (nt2 + 2))) for c in probes])
                if side == "left":
                    return _untwisted_probe_tfd(theta, probes, dagger)
                # a right probe on theta is a left probe on the reversed theta
                return _untwisted_probe_tfd(tw.theta_rev, _reverse(theta, probes), _reverse(theta, dagger))
            except OutsideWindow as exc:
                last_error = exc
    raise OutsideWindow(f"no admissible normalization ({side}): {last_error}")


def _twisted_bridge(xi: HeightFunction, v: Vertex, pts: Points, side: str) -> int:
    """tfd_via_epsilon of twisted data already checked: the parity shift puts xi's quiver on big_theta's,
    row for row on the same lattice, so the moved probe and snake are built with _vertex."""
    tw = _twist(xi.n0)
    s2 = twisted_parity_shift2(xi)
    v, *pts = (_vertex((i, k2 - s2)) for i, k2 in (v, *pts))
    try:
        return _twisted_core(tw, v, tuple(pts), side)
    except OutsideWindow:
        # duality preserves the invariant; retry on the mirrored configuration
        return _twisted_core(tw, tw.big.dualize(v), tuple(map(tw.big.dualize, pts)), side)


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
    pts = tuple(points)
    if not is_snake(xi, pts):
        raise NotSnake("epsilon bridge expects a snake")
    if not xi.is_vertex(v):
        raise NotSnake(f"{v} is not a vertex of the quiver")
    if xi.flavor == TWISTED:
        return _twisted_bridge(xi, v, pts, side)
    if side == "right":
        xi, (v, *pts) = xi.reversed(), _reverse(xi, (*pts, v))
    return _epsilon_tfd(xi, _vertex(v), tuple(pts))  # _epsilon_tfd reads v.i and v.k2: a Vertex, also from a pair


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
    if not is_snake(xi, pts := tuple(points)):
        raise NotSnake("hypothesis check expects a snake")
    pts = tuple(map(_vertex, pts))  # Vertex values, also from plain (i, k2) pairs
    # predicted_tfd_left of each point against the snake made of its successor; the right predictions are
    # the left ones of the configuration reversed once, read backwards
    left = tuple(map(_predict_left, repeat(xi), pts, pts[1:]))
    rev = _reverse(xi, pts)
    right = tuple(map(_predict_left, repeat(xi.reversed()), rev, rev[1:]))[::-1]
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
    terms = zip("PBCADQR", (rel.p, rel.term_b, rel.term_c, rel.term_a, rel.term_d, rel.first_q, rel.first_r))
    return {
        "flavor": rel.flavor,
        **{name: vertices_json(points) for name, points in terms},
        "flags": {"real": rel.real, "prime": rel.prime},
        "hypotheses_ok": rel.hypotheses_ok,
    }
