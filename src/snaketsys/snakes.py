"""Snake combinatorics: position predicates, Q/R socle pairs, translation.

All operations take the governing height function explicitly.  One pair
kernel gives Q/R for both flavors: Q is one formula on the row heights T
of preceq (2i untwisted, big_theta's twisted), the one-point formula for R
serves untwisted pairs and twisted pairs below row n0, and a twisted pair
starting in region GT or D is D-conjugated.  The twisted formulas and the
twisted-to-untwisted translation are stated on the staircase pair
(big_theta, theta).  Q/R commute with integer shifts (each k2 term has
total weight 1), so they run on any twisted quiver as is; the tfd bridge
aligns its data with big_theta's parity class by an integer shift
(twisted_parity_shift2) before it translates.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import InternalError, NotPrimeSnake, NotPrimeSnakePair, NotSnake, OutsideWindow
from .quivers import TWISTED, UNTWISTED, HeightFunction, Region, Vertex, _vertex, big_theta2, json_int, vertices_json


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
    """in_snake_position on two vertices already known to lie on the quiver:
    v shifted by one step d2(v.i) along its row reaches w."""
    i = v.i
    if not xi._climbs(i, w.i, w.k2 - v.k2 - (2 if i == xi.n0 else 4)):
        return False
    if xi.n0 is None:  # untwisted
        return True
    rv, rw = xi._region(v), xi._region(w)
    if rv in (Region.LT, Region.U):
        return rw in (Region.LT, Region.D)
    return rw in (Region.GT, Region.U)


def in_prime_snake_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    return is_prime_snake(xi, (v, w))


def _prime_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """in_prime_snake_position on two vertices already known to lie on the quiver."""
    return _snake_position(xi, v, w) and _in_prime_window(xi, v, w)


def _in_prime_window(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """w reaches D^-1(v) = (v.i*, v.k2 + ntilde2), for two vertices already known to lie on the quiver.

    D maps vertices to vertices, so D^-1(v) needs no check; it is not built either.
    """
    return xi._climbs(w.i, xi.n + 1 - v.i, v.k2 + xi.ntilde2() - w.k2)


def is_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    return bool(points) and all(map(xi.is_vertex, points)) and all(map(_snake_position, repeat(xi), points, points[1:]))


def is_prime_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    return bool(points) and all(map(xi.is_vertex, points)) and all(map(_prime_position, repeat(xi), points, points[1:]))


def split_prime(xi: HeightFunction, points: Sequence[Vertex]) -> list[tuple[Vertex, ...]]:
    """Cut a snake at every pair failing the prime condition."""
    if not is_snake(xi, points):
        raise NotSnake("split_prime expects a snake")
    out: list[tuple[Vertex, ...]] = []
    start = 0
    for s in range(len(points) - 1):
        if not _prime_position(xi, points[s], points[s + 1]):
            out.append(tuple(points[start:s + 1]))
            start = s + 1
    out.append(tuple(points[start:]))
    return out


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
    """qr_untwisted and qr_twisted: the flavor and the prime pair checked, then the pair kernel."""
    if xi.flavor != flavor:
        raise NotPrimeSnakePair(wrong_flavor)
    if not is_prime_snake(xi, (v, w)):
        raise NotPrimeSnakePair(f"{w} is not in prime snake position w.r.t. {v}")
    return QRPair(*_qr_pair(xi, v, w))


def _qr_pair(xi: HeightFunction, v: Vertex, w: Vertex) -> tuple[Points, Points]:
    """Q/R of a pair already known to be prime, either flavor.

    A twisted pair starting in region GT or D is D-conjugated: its Q/R are
    D^-1 of the R/Q of (D v, D w), which starts in region LT or U.  D maps
    quiver vertices to quiver vertices, so it builds them with _vertex.
    """
    n0 = xi.n0
    dual = n0 is not None and xi._region(v) in (Region.GT, Region.D)
    if dual:
        top, nt2 = xi.n + 1, xi.ntilde2()  # D (i, k2) = (i*, k2 - ntilde2), i* = n + 1 - i
        v, w = _vertex((top - v.i, v.k2 - nt2)), _vertex((top - w.i, w.k2 - nt2))
    (i, k2), (ip, kp2) = v, w
    t = xi._rows or (0, 2)  # untwisted rank 1 has no arrows, but its row height is 2i all the same
    ti, tp = t[i], t[ip]
    diff2 = kp2 - k2
    # Q: empty when w sits T_i + T_i' above v, one point toward row 1 below that
    top2 = ti + tp
    if diff2 > top2:
        raise InternalError(f"Q of a prime pair lies past row 1: {v}, {w}")
    q = (_vertex((_exact_div(top2 - diff2, 4), _exact_div(ti - tp + k2 + kp2, 2))),) if diff2 < top2 else ()
    # R: one point toward row n, empty at the untwisted bound 4(n+1) - T_i - T_i'; a twisted pair with a point
    # on row n0, or a gap at its bound 4 n0 - T_i - T_i' or more, takes the row-n0 points of the rays v -> w
    bottom2 = 4 * (n0 or xi.n + 1) - top2
    if n0 is None or i < n0 and ip < n0 and diff2 < bottom2:
        if diff2 > bottom2:
            raise InternalError(f"R of a prime pair lies past row {xi.n}: {v}, {w}")
        r = (_vertex((_exact_div(top2 + diff2, 4), _exact_div(tp - ti + k2 + kp2, 2))),) if diff2 < bottom2 else ()
    else:
        r = (_vertex((n0, k2 + t[n0] - ti)),) if i < n0 else ()
        if ip < n0:
            r += (_vertex((n0, kp2 - t[n0] + tp)),)
    if dual:
        q, r = tuple([_vertex((top - a, b + nt2)) for a, b in r]), tuple([_vertex((top - a, b + nt2)) for a, b in q])
    for u in q + r:
        if not xi.is_vertex(u):
            raise InternalError(f"{u} fell off the quiver")
    return q, r


def qr_sequences(xi: HeightFunction, points: Sequence[Vertex]) -> QRPair:
    """Concatenated pairwise Q/R outputs of a prime snake, empties dropped."""
    if len(points) < 2:
        raise NotPrimeSnake("qr_sequences needs a prime snake of length >= 2")
    if not is_prime_snake(xi, points):
        raise NotPrimeSnake("qr_sequences expects a prime snake")
    return QRPair(*_qr_concat(xi, points))


def _qr_concat(xi: HeightFunction, points: Sequence[Vertex]) -> tuple[Points, Points]:
    """qr_sequences on a sequence already known to be a prime snake of length >= 2."""
    qs: list[Vertex] = []
    rs: list[Vertex] = []
    for v, w in zip(points, points[1:]):
        q, r = _qr_pair(xi, v, w)
        qs += q
        rs += r
    return tuple(qs), tuple(rs)


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


def _x_minus(n0: int, v: Vertex, region: Region) -> Vertex | None:
    if region == Region.D:
        return None
    t = big_theta2(n0, v.i)
    return Vertex(_exact_div(t + v.k2 + 4, 4), _exact_div(t + v.k2 - 4, 2))


def _x_plus(n0: int, n: int, v: Vertex, region: Region) -> Vertex | None:
    if region == Region.U:
        return None
    t = big_theta2(n0, v.i)
    return Vertex(_exact_div(t - v.k2 + 4 * n, 4), _exact_div(-t + v.k2 + 4 * n, 2))


def _x_mid(n0: int, v: Vertex, w: Vertex, region_v: Region) -> Vertex | None:
    if region_v == Region.U:
        return None
    t, tp = big_theta2(n0, v.i), big_theta2(n0, w.i)
    return Vertex(_exact_div(t + tp - v.k2 + w.k2, 4), _exact_div(-t + tp + v.k2 + w.k2, 2))


def translate_twisted(n0: int, points: Sequence[Vertex]) -> tuple[Vertex, ...]:
    """The untwisted shadow P-dagger of a snake in the big_theta window.

    Points left of the middle row are kept; every maximal segment in the
    closed right half is replaced by its X^-/X/X^+ sequence.  The result is
    a snake in the theta window satisfying rho(e(P)) = e(P-dagger), which
    the ``verify`` rho sweep checks.
    """
    big = HeightFunction.big_theta(n0)
    for v in points:
        if not big.in_gamma(v):
            raise OutsideWindow(f"{v} is outside the big_theta window")
    if not is_snake(big, points):
        raise NotSnake("translate_twisted expects a snake")
    return _dagger(n0, points)


def _dagger(n0: int, points: Sequence[Vertex]) -> Points:
    """translate_twisted of a snake already known to lie in the big_theta window.

    Its input is not checked again; its result is, and a result off the
    theta window or not a snake is an InternalError.
    """
    big = HeightFunction.big_theta(n0)
    theta = HeightFunction.theta(n0)
    n = big.n
    regions = [big._region(v) for v in points]
    out: list[Vertex] = []
    s = 0
    while s < len(points):
        if regions[s] == Region.LT:
            out.append(points[s])
            s += 1
            continue
        e = s
        while e + 1 < len(points) and regions[e + 1] != Region.LT:
            e += 1
        seg: list[Vertex | None] = [_x_minus(n0, points[s], regions[s])]
        for t in range(s, e):
            seg.append(_x_mid(n0, points[t], points[t + 1], regions[t]))
        seg.append(_x_plus(n0, n, points[e], regions[e]))
        out.extend(u for u in seg if u is not None)
        s = e + 1
    result = tuple(out)
    for v in result:
        if not theta.in_gamma(v):
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
