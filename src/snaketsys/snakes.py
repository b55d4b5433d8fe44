"""Snake combinatorics: position predicates, Q/R socle pairs, translation.

All operations take the governing height function explicitly.  The pair
tests _snake_position and _in_prime_window are arithmetic on the row
heights T of preceq (2i untwisted, big_theta's twisted) and, on a twisted
pair, the middle row's parity.  One run kernel, _qr_run, is the one loop
over the consecutive pairs of a run of points, with no call per pair: it
reads the quiver's constants once, runs the arithmetic of both tests
inline (tests/test_snakes.py pins this copy to the two predicates),
returns None at the first pair off prime snake position, and gives Q/R
for both flavors from the same row heights: Q is one formula on T, the
one-point formula for R serves untwisted pairs and twisted pairs below
row n0, and a twisted pair starting in region GT or D is D-conjugated.
qr_sequences checks each point once and calls the kernel once; the pair
functions qr_untwisted and qr_twisted call it on (v, w).  The twisted
formulas and the twisted-to-untwisted translation are stated on the
staircase pair (big_theta, theta).  Q/R commute with integer
shifts (each k2 term has total weight 1), so they run on any twisted
quiver as is; the tfd bridge aligns its data with big_theta's parity class
by an integer shift (twisted_parity_shift2) before it translates.
_dagger translates in one pass over the pairs of points, reading each
point's region from its row and, on the middle row, its k2 mod 4.
_twist(n0) is the translation's bounded, read-only table of rank
2 n0 - 1: big_theta, theta and theta reversed, the first and last k2 of
each big_theta window row, and the translation of each window vertex as a
one-point snake, which passes _dagger's result guards once, when the table
is built on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import InternalError, NotPrimeSnake, NotPrimeSnakePair, NotSnake, OutsideWindow
from .quivers import TWISTED, UNTWISTED, HeightFunction, Vertex, _vertex, big_theta2, json_int, vertices_json


Points = tuple[Vertex, ...]


class QRPair(NamedTuple):
    """The public Q/R result; the trusted kernels return the plain (q, r) tuple."""

    q: tuple[Vertex, ...]
    r: tuple[Vertex, ...]


@dataclass(frozen=True)
class Snake:
    """A vertex sequence bundled with its height function (JSON unit)."""

    xi: HeightFunction
    points: tuple[Vertex, ...]

    def __post_init__(self):
        if not self.points:
            raise NotSnake("a snake is nonempty")
        for v in self.points:
            if not self.xi.is_vertex(v):
                raise NotSnake(f"{v} is not a vertex of the quiver")


# -- position predicates -------------------------------------------------


def in_snake_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    return is_snake(xi, (v, w))


def _snake_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """in_snake_position on two vertices already known to lie on the quiver.

    v shifted by one step d2(v.i) along its row reaches w (preceq's bound on
    the row heights T), and a twisted pair runs from region LT or U to LT or
    D, or from GT or D to GT or U: v is in GT or D iff w is in GT or U.  A
    middle-row vertex is in region D iff k2 = xi2(n0 + 1) - 1 mod 4, the
    test of HeightFunction.region.
    """
    (i, k2), (j, kp2) = v, w
    t, n0 = xi._rows, xi.n0
    gap2 = kp2 - k2 - (2 if i == n0 else 4)
    if not (gap2 >= abs(t[j] - t[i]) if t else gap2 == 0):  # untwisted rank 1 has no arrows
        return False
    if n0 is None:  # untwisted
        return True
    dk2 = xi.values2[n0] - 1
    return (i > n0 or i == n0 and (k2 - dk2) % 4 == 0) == (j > n0 or j == n0 and (kp2 - dk2) % 4 != 0)


def in_prime_snake_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    return is_prime_snake(xi, (v, w))


def _prime_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """in_prime_snake_position on two vertices already known to lie on the quiver."""
    return _snake_position(xi, v, w) and _in_prime_window(xi, v, w)


def _in_prime_window(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """w reaches D^-1(v) = (v.i*, v.k2 + ntilde2), for two vertices already known to lie on the quiver.

    D maps vertices to vertices, so D^-1(v) needs no check; it is not built either.
    """
    t = xi._rows
    gap2 = v.k2 + xi.ntilde2() - w.k2
    return gap2 >= abs(t[xi.n + 1 - v.i] - t[w.i]) if t else gap2 == 0


def is_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    return bool(points) and all(map(xi.is_vertex, points)) and all(map(_snake_position, repeat(xi), points, points[1:]))


def is_prime_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    return bool(points) and all(map(xi.is_vertex, points)) and all(map(_prime_position, repeat(xi), points, points[1:]))


def split_prime(xi: HeightFunction, points: Sequence[Vertex]) -> list[tuple[Vertex, ...]]:
    """Cut a snake at every pair failing the prime condition."""
    if not is_snake(xi, points):
        raise NotSnake("split_prime expects a snake")
    points = tuple(map(_vertex, points))
    cuts = [s for s in range(1, len(points)) if not _prime_position(xi, points[s - 1], points[s])]
    return [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]


# -- Q/R socle positions ---------------------------------------------------


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise InternalError(f"{num} not divisible by {den}")
    return num // den


def qr_untwisted(xi: HeightFunction, v: Vertex, w: Vertex) -> QRPair:
    """Socle positions of an untwisted prime pair: Q toward row 1, R toward row n."""
    return _checked_qr(xi, v, w, UNTWISTED, "qr_untwisted needs an untwisted height function")


def qr_twisted(xi: HeightFunction, v: Vertex, w: Vertex) -> QRPair:
    """Socle positions of a twisted prime pair; a pair starting in region GT or D is D-conjugated."""
    return _checked_qr(xi, v, w, TWISTED, "qr_twisted needs a twisted height function")


def _checked_qr(xi: HeightFunction, v: Vertex, w: Vertex, flavor: str, wrong_flavor: str) -> QRPair:
    """qr_untwisted and qr_twisted: the flavor and the two vertices checked, then the run kernel on (v, w)."""
    if xi.flavor != flavor:
        raise NotPrimeSnakePair(wrong_flavor)
    if not (xi.is_vertex(v) and xi.is_vertex(w)) or (qr := _qr_run(xi, (v, w))) is None:
        raise NotPrimeSnakePair(f"{w} is not in prime snake position w.r.t. {v}")
    return QRPair(*qr)


def _qr_run(xi: HeightFunction, points: Sequence[Vertex]) -> tuple[Points, Points] | None:
    """The Q/R of the consecutive pairs of a run of vertices already known to lie on the quiver, either
    flavor, concatenated; None unless every pair is in prime snake position.

    One loop, with no call per pair.  The quiver's constants are read once;
    each pair then runs inline the arithmetic of _snake_position and
    _in_prime_window (tests/test_snakes.py holds this copy to them on every
    pair of the small shapes), the Q/R formulas on the same row heights T
    with their exact-division guards, and is_vertex's range and lattice
    test on each result point, an InternalError off the quiver.  A twisted
    pair starting in region GT or D is D-conjugated: its Q/R are D^-1 of
    the R/Q of (D v, D w), which starts in region LT or U.  An untwisted
    quiver puts its middle row past row n, where no vertex lies, so none of
    its pairs is conjugated and each R takes the one-point formula.
    """
    n, n0, vals2, nt2 = xi.n, xi.n0, xi.values2, xi.ntilde2()
    # untwisted rank 1 has no arrows, but its row height is 2i all the same: with T = (0, 2) the snake gap reads
    # diff2 >= 4 where _snake_position reads diff2 = 4, and the prime window diff2 <= 4, so together they agree
    t, top = xi._rows or (0, 2), n + 1
    mid, dk2 = (top, 0) if n0 is None else (n0, vals2[n0] - 1)  # a middle-row vertex is in D iff k2 = dk2 mod 4
    qs, rs = [], []  # (i, k2) pairs, made Vertex values once, at the end
    for (i, k2), (j, kj2) in zip(points, points[1:]):
        diff2, dual = kj2 - k2, i > mid or i == mid and (k2 - dk2) % 4 == 0  # dual: v in region GT or D
        # snake position: v shifted by d2(i) reaches w, and on a twisted quiver v is in GT or D iff w is in GT
        # or U; prime window: w reaches D^-1 v = (i*, k2 + ntilde2)
        gap2, win2 = diff2 - (2 if i == mid else 4), nt2 - diff2
        if not (-gap2 <= t[j] - t[i] <= gap2 and -win2 <= t[top - i] - t[j] <= win2
                and dual == (j > mid or j == mid and (kj2 - dk2) % 4 != 0)):
            return None
        if dual:  # D (i, k2) = (i*, k2 - ntilde2), i* = n + 1 - i
            i, k2, j, kj2 = top - i, k2 - nt2, top - j, kj2 - nt2
        top2 = (ti := t[i]) + (tj := t[j])  # Q's bound; R's is 4 mid - top2
        # Q: empty when w sits T_i + T_j above v, one point toward row 1 below that
        if diff2 > top2:
            raise InternalError(f"Q of a prime pair lies past row 1: {_vertex((i, k2))}, {_vertex((j, kj2))}")
        q = r = ()
        if diff2 < top2:
            if (a := top2 - diff2) % 4 or (b := ti - tj + k2 + kj2) % 2:
                raise InternalError(f"{a} not divisible by 4" if a % 4 else f"{b} not divisible by 2")
            q = ((a // 4, b // 2),)
        # R: one point toward row n, empty at the untwisted bound 4(n+1) - T_i - T_j; a twisted pair with a point
        # on row n0, or a gap at its bound 4 n0 - T_i - T_j or more, takes the row-n0 points of the rays v -> w
        if i < mid and j < mid and diff2 < 4 * mid - top2:
            if (a := top2 + diff2) % 4 or (b := tj - ti + k2 + kj2) % 2:
                raise InternalError(f"{a} not divisible by 4" if a % 4 else f"{b} not divisible by 2")
            r = ((a // 4, b // 2),)
        elif n0 is not None:
            r = (((n0, k2 + t[n0] - ti),) if i < n0 else ()) + (((n0, kj2 - t[n0] + tj),) if j < n0 else ())
        elif diff2 > 4 * mid - top2:
            raise InternalError(f"R of a prime pair lies past row {n}: {_vertex((i, k2))}, {_vertex((j, kj2))}")
        if dual:
            q, r = tuple([(top - a, b + nt2) for a, b in r]), tuple([(top - a, b + nt2) for a, b in q])
        for a, b in q + r:
            if not (1 <= a <= n and (b - vals2[a - 1]) % (2 if a == n0 else 4) == 0):
                raise InternalError(f"{_vertex((a, b))} fell off the quiver")
        qs += q
        rs += r
    return tuple(map(_vertex, qs)), tuple(map(_vertex, rs))


def qr_sequences(xi: HeightFunction, points: Sequence[Vertex]) -> QRPair:
    """Concatenated pairwise Q/R outputs of a prime snake, empties dropped.

    Each point is checked once to be a vertex, then one call of the run
    kernel _qr_run tests the prime snake position of each pair and gives
    its Q/R.  extended_tsystem takes its (Q, R) from here and rewords the
    NotPrimeSnake.
    """
    if len(points) < 2:
        raise NotPrimeSnake("qr_sequences needs a prime snake of length >= 2")
    if not all(map(xi.is_vertex, points)) or (qr := _qr_run(xi, points)) is None:
        raise NotPrimeSnake("qr_sequences expects a prime snake")
    return QRPair(*qr)


# -- twisted -> untwisted translation -------------------------------------


def twisted_parity_shift2(xi: HeightFunction) -> int:
    """Even doubled shift aligning xi's quiver with big_theta's parity class."""
    n0, vals2 = xi.n0, xi.values2
    s2 = (vals2[0] - big_theta2(n0, 1)) % 4
    if s2 not in (0, 2):
        raise InternalError(f"odd doubled shift {s2} to big_theta")
    for i, x2 in enumerate(vals2, 1):
        if i != n0 and (x2 - s2 - big_theta2(n0, i)) % 4:
            raise InternalError("twisted quiver parity mismatch")
    return s2


class _Twist(NamedTuple):
    """The per-rank constants of the twisted translation: see _twist."""

    big: HeightFunction
    theta: HeightFunction
    theta_rev: HeightFunction  # theta.reversed(): a right probe on theta is a left probe there
    lo: tuple[int, ...]  # lo[i], hi[i]: the first and last k2 of big_theta's window row i (lo[0], hi[0] unused)
    hi: tuple[int, ...]
    one: Mapping[Vertex, Points]  # each big_theta window vertex -> its translation as a one-point snake


@lru_cache(maxsize=32)
def _twist(n0: int) -> _Twist:
    """The table of the twisted translation of rank 2 n0 - 1, built on first use and shared, so read-only.

    Each one-point translation passes _dagger's result guards once, here.
    The keys of ``one`` are the big_theta window, so a lookup there is the
    window test of a probe and its translation at once.
    """
    big, theta = HeightFunction.big_theta(n0), HeightFunction.theta(n0)
    rows = [big.gamma_row(i) for i in range(1, big.n + 1)]
    one = MappingProxyType({v: _dagger(n0, (v,)) for v in big.window.vertices})
    return _Twist(big, theta, theta.reversed(), (0, *(r[0] for r in rows)), (0, *(r[-1] for r in rows)), one)


def translate_twisted(n0: int, points: Sequence[Vertex]) -> tuple[Vertex, ...]:
    """The untwisted shadow P-dagger of a snake in the big_theta window.

    Points left of the middle row are kept; every maximal segment in the
    closed right half is replaced by its X^-/X/X^+ sequence.  The result is
    a snake in the theta window satisfying rho(e(P)) = e(P-dagger), which
    the ``verify`` rho sweep checks.  The points may be plain (i, k2) pairs.
    """
    big = HeightFunction.big_theta(n0)
    for v in points:
        if not big.in_gamma(v):
            raise OutsideWindow(f"{v} is outside the big_theta window")
    if not is_snake(big, points):
        raise NotSnake("translate_twisted expects a snake")
    return _dagger(n0, tuple(map(_vertex, points)))


def _dagger(n0: int, points: Sequence[Vertex]) -> Points:
    """translate_twisted of a snake already known to lie in the big_theta window, in one pass over its pairs.

    A point below row n0 (region LT) is kept.  A maximal run u_1, ..., u_m
    from row n0 on becomes X^-(u_1), X(u_1, u_2), ..., X(u_m-1, u_m),
    X^+(u_m), less X^- of a point in region D and the X or X^+ after a
    point in region U; a middle-row point is in region D iff its k2 is the
    row's height T_n0 = 2 n0 - 1 mod 4.  Its input is not checked again;
    its result is, and a result off the theta window or not a snake is an
    InternalError.
    """
    big, theta = HeightFunction.big_theta(n0), HeightFunction.theta(n0)
    t, n4 = big._rows, 4 * big.n
    out: list[Vertex] = []
    for u, v in zip((None, *points), (*points, None)):
        if u is not None and (u.i > n0 or u.i == n0 and (u.k2 - t[n0]) % 4 == 0):  # u in GT or D: X(u, v) or X^+(u)
            tu, k2 = t[u.i], u.k2
            if v is not None and v.i >= n0:
                tv = t[v.i]
                out.append(_vertex((_exact_div(tu + tv - k2 + v.k2, 4), _exact_div(tv - tu + k2 + v.k2, 2))))
            else:
                out.append(_vertex((_exact_div(tu - k2 + n4, 4), _exact_div(k2 - tu + n4, 2))))
        if v is None:
            break
        if v.i < n0:
            out.append(v)
        elif (u is None or u.i < n0) and (v.i > n0 or (v.k2 - t[n0]) % 4):  # v opens a run, not in D: X^-(v)
            out.append(_vertex((_exact_div(t[v.i] + v.k2 + 4, 4), _exact_div(t[v.i] + v.k2 - 4, 2))))
    result, slot = tuple(out), theta.window.slot
    for v in result:
        if v not in slot:
            raise InternalError(f"translated point {v} left the theta window")
    if not is_snake(theta, result):
        raise InternalError("translation did not produce a snake")
    return result


# -- JSON ------------------------------------------------------------------


def snake_to_json(xi: HeightFunction, points: Sequence[Vertex]) -> dict:
    obj = {
        "flavor": xi.flavor,
        "xi": list(xi.values2),
        "points": vertices_json(points),
    }
    if xi.flavor == TWISTED:
        obj["n0"] = xi.n0
    return obj


def snake_from_json(obj: dict) -> Snake:
    flavor = obj["flavor"]
    values2 = tuple(json_int(x) for x in obj["xi"])
    n0 = json_int(obj["n0"]) if flavor == TWISTED else None
    xi = HeightFunction(len(values2), flavor, values2, n0)  # rejects an unknown flavor
    points = tuple(Vertex(json_int(p["i"]), json_int(p["k2"])) for p in obj["points"])
    return Snake(xi, points)
