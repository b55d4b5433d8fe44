"""Snake combinatorics: position predicates, Q/R socle pairs, translation.

All operations take the governing height function explicitly.  The twisted
Q/R formulas and the twisted-to-untwisted translation are stated on the
staircase pair (big_theta, theta).  The Q/R formulas commute with integer
shifts, so they run on any twisted quiver as is; the tfd bridge aligns its
data with big_theta's parity class by an integer shift
(twisted_parity_shift2) before it translates.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    return xi.is_vertex(v) and xi.is_vertex(w) and _snake_position(xi, v, w)


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
    return xi.is_vertex(v) and xi.is_vertex(w) and _prime_position(xi, v, w)


def _prime_position(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """in_prime_snake_position on two vertices already known to lie on the quiver."""
    return _snake_position(xi, v, w) and _in_prime_window(xi, v, w)


def _in_prime_window(xi: HeightFunction, v: Vertex, w: Vertex) -> bool:
    """w reaches D^-1(v) = (v.i*, v.k2 + ntilde2), for two vertices already known to lie on the quiver.

    D maps vertices to vertices, so D^-1(v) needs no check; it is not built either.
    """
    return xi._climbs(w.i, xi.n + 1 - v.i, v.k2 + xi.ntilde2() - w.k2)


def is_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    if not points or not all(xi.is_vertex(v) for v in points):
        return False
    return all(_snake_position(xi, points[s], points[s + 1]) for s in range(len(points) - 1))


def is_prime_snake(xi: HeightFunction, points: Sequence[Vertex]) -> bool:
    if not points or not all(xi.is_vertex(v) for v in points):
        return False
    return all(_prime_position(xi, points[s], points[s + 1]) for s in range(len(points) - 1))


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
    """Socle positions of a prime pair: Q toward row 1, R toward row n."""
    if xi.flavor != UNTWISTED:
        raise NotPrimeSnakePair("qr_untwisted needs an untwisted height function")
    if not in_prime_snake_position(xi, v, w):
        raise NotPrimeSnakePair(f"{w} is not in prime snake position w.r.t. {v}")
    return QRPair(*_qr_untwisted(xi, v, w))


def _qr_untwisted(xi: HeightFunction, v: Vertex, w: Vertex) -> tuple[Points, Points]:
    """qr_untwisted on a pair already known to be prime."""
    n = xi.n
    (i, k2), (ip, kp2) = v, w
    diff2 = kp2 - k2
    if diff2 == 2 * (i + ip):
        q: tuple[Vertex, ...] = ()
    else:
        if diff2 > 2 * (i + ip):
            raise InternalError(f"Q of a prime pair lies past row 1: {v}, {w}")
        q = (_vertex((_exact_div(2 * (i + ip) - diff2, 4), _exact_div(2 * (i - ip) + k2 + kp2, 2))),)
    if diff2 == 2 * (2 * n + 2 - i - ip):
        r: tuple[Vertex, ...] = ()
    else:
        if diff2 > 2 * (2 * n + 2 - i - ip):
            raise InternalError(f"R of a prime pair lies past row {n}: {v}, {w}")
        r = (_vertex((_exact_div(2 * (i + ip) + diff2, 4), _exact_div(2 * (ip - i) + k2 + kp2, 2))),)
    for u in q + r:
        if not xi.is_vertex(u):
            raise InternalError(f"{u} fell off the quiver")
    return q, r


def twisted_parity_shift2(xi: HeightFunction) -> int:
    """Even doubled shift aligning xi's quiver with big_theta's parity class."""
    s2 = (xi.values2[0] - big_theta2(xi.n0, 1)) % 4
    if s2 not in (0, 2):
        raise InternalError(f"odd doubled shift {s2} to big_theta")
    for i in range(1, xi.n + 1):
        if i != xi.n0 and (xi.xi2(i) - s2 - big_theta2(xi.n0, i)) % 4:
            raise InternalError("twisted quiver parity mismatch")
    return s2


def _qr_direct(n0: int, v: Vertex, w: Vertex) -> tuple[Points, Points]:
    """Q/R of a prime pair whose first point is in region LT or U."""
    (i, k2), (ip, kp2) = v, w
    t_i, t_ip = big_theta2(n0, i), big_theta2(n0, ip)
    diff2 = kp2 - k2
    if diff2 == t_i + t_ip:
        q: tuple[Vertex, ...] = ()
    else:
        if diff2 > t_i + t_ip:
            raise InternalError(f"Q of a prime pair lies past row 1: {v}, {w}")
        q = (_vertex((_exact_div(t_i + t_ip - diff2, 4), _exact_div(t_i - t_ip + k2 + kp2, 2))),)
    if i < n0 and ip < n0:
        if diff2 < 2 * (2 * n0 - i - ip):
            r: tuple[Vertex, ...] = (
                _vertex((_exact_div(2 * (i + ip) + diff2, 4), _exact_div(2 * (ip - i) + k2 + kp2, 2))),
            )
        else:
            r = (_vertex((n0, 2 * n0 - 2 * i + k2 - 1)), _vertex((n0, 2 * ip + kp2 - 2 * n0 + 1)))
    elif i < n0 and ip == n0:
        r = (_vertex((n0, 2 * n0 - 2 * i + k2 - 1)),)
    elif i == n0 and ip < n0:
        r = (_vertex((n0, 2 * ip + kp2 - 2 * n0 + 1)),)
    else:
        r = ()
    return q, r


def qr_twisted(xi: HeightFunction, v: Vertex, w: Vertex) -> QRPair:
    """Twisted socle positions; the downward branch is D-conjugated."""
    if xi.flavor != TWISTED:
        raise NotPrimeSnakePair("qr_twisted needs a twisted height function")
    if not in_prime_snake_position(xi, v, w):
        raise NotPrimeSnakePair(f"{w} is not in prime snake position w.r.t. {v}")
    return QRPair(*_qr_twisted(xi, v, w))


def _qr_twisted(xi: HeightFunction, v: Vertex, w: Vertex) -> tuple[Points, Points]:
    """qr_twisted on a pair already known to be prime.

    The formulas are stated on big_theta's parity class, but every one of
    them moves with an integer shift of both points (their k2 terms have
    total weight 1), and so do regions, D and the quiver's lattice; so they
    run on any twisted quiver as is.
    """
    if xi._region(v) in (Region.LT, Region.U):
        q, r = _qr_direct(xi.n0, v, w)
    else:
        dq, dr = _qr_direct(xi.n0, xi.dualize(v), xi.dualize(w))
        q, r = tuple(xi.dualize(u, -1) for u in dr), tuple(xi.dualize(u, -1) for u in dq)
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
    kernel = _qr_untwisted if xi.flavor == UNTWISTED else _qr_twisted
    qs: list[Vertex] = []
    rs: list[Vertex] = []
    for v, w in zip(points, points[1:]):
        q, r = kernel(xi, v, w)
        qs += q
        rs += r
    return tuple(qs), tuple(rs)


# -- twisted -> untwisted translation -------------------------------------


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
    theta = HeightFunction.theta(n0)
    n = big.n
    for v in points:
        if not big.in_gamma(v):
            raise OutsideWindow(f"{v} is outside the big_theta window")
    if not is_snake(big, points):
        raise NotSnake("translate_twisted expects a snake")
    regions = [big.region(v) for v in points]
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
