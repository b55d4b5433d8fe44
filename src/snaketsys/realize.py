"""Dominant-monomial realizations of cuspidal and snake modules.

Three modes.  qdatum_A (untwisted quivers) realizes the vertex (i,k) as
Y_{i,-k}; qdatum_B (twisted quivers) as Y_{min(i,i*),-2k}; custom mode reads
a finite table over the window Gamma and extends it to the whole quiver by
the duality shift Y_{j,l} -> Y_{j*, l +- h_dual} per application of D.

Only relative spectral parameters matter, so they are bare integers.  The
mode is resolved once per call (a relation, a snake or a point), and each
distinct point is checked to be a vertex once and realized once.

A product of cuspidal monomials is built in one pass over its points, into
the dict that its Monomial keeps.  In the q-datum modes a point is one
variable with exponent 1, so the pass counts keys and no exponent is 0; a
custom product sums the table entries and then drops the keys that cancel.
A relation's A, Q and R are such products.  B, C and D are copies of A
with the product of A's last point, its first or both divided out in place:
a key is deleted when its exponent reaches 0, and nothing is scanned.  Each
monomial keeps its keys in the order in which they first occur.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import roots
from .errors import DomainError, MissingTableEntry
from .quivers import TWISTED, UNTWISTED, HeightFunction, Vertex, exact_ints, json_int

QDATUM_A = "qdatum_A"
QDATUM_B = "qdatum_B"
CUSTOM = "custom"


class Monomial:
    """Laurent monomial in variables Y_{node,spectral}; exponents add."""

    __slots__ = ("factors",)

    def __init__(self, factors: Mapping[tuple[int, int], int] | None = None):
        factors = factors or {}
        bad = [k for k in factors if not isinstance(k, tuple) or len(k) != 2]
        if bad:
            raise DomainError(f"monomial keys must be (node, spectral) pairs, got {bad[0]!r}")
        exact_ints("monomial nodes, spectral parameters and exponents", [*chain.from_iterable(factors), *factors.values()])
        self.factors = {k: e for k, e in factors.items() if e != 0}

    @staticmethod
    def one() -> "Monomial":
        return Monomial()

    @staticmethod
    def y(node: int, spectral: int, exp: int = 1) -> "Monomial":
        return Monomial({(node, spectral): exp})

    @staticmethod
    def _wrap(factors: dict[tuple[int, int], int]) -> "Monomial":
        """A monomial that takes over a dict of int keys and nonzero int exponents that no one else holds."""
        m = object.__new__(Monomial)
        m.factors = factors
        return m

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial._wrap(_times(dict(self.factors), other.factors))

    def __pow__(self, e: int) -> "Monomial":
        return Monomial({k: v * e for k, v in self.factors.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.factors == other.factors

    def dual_shift(self, g0_rank: int, h_dual: int, t: int = 1) -> "Monomial":
        """Apply the duality substitution Y_{j,l} -> Y_{j*, l + h_dual} t times."""
        out = {}
        for (j, l), e in self.factors.items():
            jj = roots.star(g0_rank, j) if t % 2 else j
            out[(jj, l + t * h_dual)] = e
        return Monomial(out)

    def _sorted(self):
        return sorted(self.factors.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def _render(self, exponent: str) -> str:
        """Factors in _sorted order; exponent formats an exponent other than 1."""
        if not self.factors:
            return "1"
        return "".join(f"Y_{{{j},{l}}}" + ("" if e == 1 else exponent.format(e)) for (j, l), e in self._sorted())

    def __str__(self) -> str:
        return self._render("^{}")

    def latex(self) -> str:
        return self._render("^{{{}}}")

    def to_json(self) -> list[dict]:
        return [
            {"node": j, "spectral": l, "exp": e}
            for (j, l), e in self._sorted()
        ]

    @staticmethod
    def from_json(entries) -> "Monomial":
        out = {}
        for f in entries:
            key = (json_int(f["node"]), json_int(f["spectral"]))
            out[key] = out.get(key, 0) + json_int(f["exp"])
        return Monomial(out)

    __repr__ = __str__


@dataclass(frozen=True)
class Realization:
    mode: str
    h_dual: int
    g0_rank: int
    table: dict[Vertex, Monomial] | None = None

    def __post_init__(self):
        if self.mode not in (QDATUM_A, QDATUM_B, CUSTOM):
            raise ValueError(f"unknown realization mode {self.mode!r}")

    @staticmethod
    def qdatum_a(n: int) -> "Realization":
        exact_ints("ranks", (n,))
        return Realization(QDATUM_A, n + 1, n)

    @staticmethod
    def qdatum_b(n0: int) -> "Realization":
        exact_ints("n0 values", (n0,))
        return Realization(QDATUM_B, 2 * n0 - 1, n0)

    @staticmethod
    def custom(h_dual: int, table: Mapping[Vertex, Monomial], g0_rank: int | None = None) -> "Realization":
        exact_ints("dual Coxeter numbers and ranks", (h_dual,) if g0_rank is None else (h_dual, g0_rank))
        # classical subalgebras of type A have h_dual = rank + 1
        return Realization(CUSTOM, h_dual, g0_rank if g0_rank is not None else h_dual - 1, dict(table))


def cuspidal_monomial(real: Realization, xi: HeightFunction, v: Vertex) -> Monomial:
    """Highest dominant monomial of the cuspidal module at a quiver vertex."""
    return Monomial._wrap(_checked_product(real, xi, (v,))((v,)))


def _times(factors: dict, other: Mapping, sign: int = 1) -> dict:
    """factors times other (over it with sign -1), in place: a key whose exponent
    reaches 0 is deleted there, so other must hold no 0 exponent."""
    for key, e in other.items():
        e = factors.get(key, 0) + sign * e
        if e:
            factors[key] = e
        else:
            del factors[key]
    return factors


def _factor_items(real: Realization, xi: HeightFunction) -> Callable[[Iterable[Vertex]], dict]:
    """The product of the cuspidal monomials along a run of vertices of xi, as
    a fresh dict of its nonzero exponents, keys in the order they first occur.

    The mode and its preconditions are resolved here, once per caller.  In
    the q-datum modes a vertex is one variable with exponent 1, Y_{i,-k}
    (qdatum_A) or Y_{min(i,i*),-2k} (qdatum_B), so the product counts keys
    and no exponent is 0.  In custom mode it sums the table entries, realizing
    each distinct vertex once, and drops the keys that cancel.
    """
    if real.mode == QDATUM_A:
        if xi.flavor != UNTWISTED:
            raise ValueError("qdatum_A realizes untwisted quivers")
        fold, top, div = xi.n, 0, 2  # no row folds
    elif real.mode == QDATUM_B:
        if xi.flavor != TWISTED:
            raise ValueError("qdatum_B realizes twisted quivers")
        fold, top, div = xi.n0, xi.n + 1, 1  # min(i, i*) = i up to n0, then i* = n + 1 - i
    elif real.table is None:
        raise MissingTableEntry("custom realization has no table")
    else:
        entries = {}

        def summed(run):
            factors = {}
            for v in run:
                entry = entries.get(v)
                if entry is None:
                    entry = entries[v] = _table_entry(real, xi, v)
                for key, e in entry.factors.items():
                    factors[key] = factors.get(key, 0) + e
            return {key: e for key, e in factors.items() if e}

        return summed

    def counted(run):
        factors = {}
        for v in run:
            i = v.i
            key = (i if i <= fold else top - i, -v.k2 // div)
            factors[key] = factors.get(key, 0) + 1
        return factors

    return counted


def _table_entry(real: Realization, xi: HeightFunction, v: Vertex) -> Monomial:
    """The custom table's monomial at a vertex of xi, slid into the window along D."""
    if v in real.table:
        return real.table[v]
    # slide v into the window along D and shift the table entry back
    nt2 = xi.ntilde2()
    reach = abs(v.k2) // nt2 + xi.n + 3
    for t in range(-reach, reach + 1):
        u = Vertex(v.i if t % 2 == 0 else roots.star(xi.n, v.i), v.k2 + t * nt2)
        if xi.in_gamma(u):
            if u not in real.table:
                raise MissingTableEntry(f"table lacks the window vertex {u}")
            return real.table[u].dual_shift(real.g0_rank, real.h_dual, t)
    raise MissingTableEntry(f"could not slide {v} into the window")


def _checked_product(real: Realization, xi: HeightFunction, points: Iterable[Vertex]) -> Callable[[Iterable[Vertex]], dict]:
    """_factor_items of the mode, after each distinct point is checked once to
    be a vertex of xi; with no point the mode is not resolved."""
    points = dict.fromkeys(points)
    bad = next(filterfalse(xi.is_vertex, points), None)
    if bad is not None:
        raise MissingTableEntry(f"{bad} is not a vertex of the quiver")
    return _factor_items(real, xi) if points else dict


def snake_monomial(real: Realization, xi: HeightFunction, points: Sequence[Vertex]) -> tuple[Monomial, bool]:
    """Formal product of cuspidal monomials along a snake.

    Exact (equal to the highest monomial of the snake module) in the qdatum
    modes, where spectral parameters decrease along the snake; a formal
    product only in custom mode.  The exponents are summed in one dict, in
    O(len(points)) for monomials of bounded size.
    """
    points = tuple(points)
    return Monomial._wrap(_checked_product(real, xi, points)(points)), real.mode != CUSTOM


class RelationMonomials(NamedTuple):
    b: Monomial
    c: Monomial
    a: Monomial
    d: Monomial
    q: Monomial
    r: Monomial
    exact: bool

    def identity_holds(self) -> bool:
        return self.b * self.c == self.a * self.d


def relation_monomials(rel, real: Realization) -> RelationMonomials:
    """Monomials of all six terms, each equal to the snake_monomial of its points.

    The mode is resolved once per relation, and each distinct point is
    checked and realized once.  A, Q and R are products; B, C and D are
    copies of A divided in place by the product of its last point, its first
    or both, so m(B)m(C) = m(A)m(D) holds by construction (identity_holds
    recomputes it).
    """
    pts, q, r = rel.term_a, rel.first_q, rel.first_r
    product = _checked_product(real, rel.xi, chain(pts, q, r))
    a = product(pts)
    b, c, d = (_times(dict(a), product(ends), -1) for ends in (pts[-1:], pts[:1], (pts[0], pts[-1])))
    return RelationMonomials(*map(Monomial._wrap, (b, c, a, d, product(q), product(r))), real.mode != CUSTOM)


def _render_relation(mon: RelationMonomials, render) -> str:
    b, c, a, d, q, r = map(render, (mon.b, mon.c, mon.a, mon.d, mon.q, mon.r))
    return f"[{b}][{c}] = [{a}][{d}] + [{q}][{r}]"


def relation_monomials_text(mon: RelationMonomials) -> str:
    return _render_relation(mon, str) + ("" if mon.exact else "   (formal products; custom table)")


def relation_monomials_latex(mon: RelationMonomials) -> str:
    return _render_relation(mon, Monomial.latex)


def relation_monomials_json(mon: RelationMonomials) -> dict:
    return {
        "B": mon.b.to_json(),
        "C": mon.c.to_json(),
        "A": mon.a.to_json(),
        "D": mon.d.to_json(),
        "Q": mon.q.to_json(),
        "R": mon.r.to_json(),
        "exact": mon.exact,
        "identity_holds": mon.identity_holds(),
    }


# -- custom table file format ---------------------------------------------


def realization_from_json(obj: Mapping, xi: HeightFunction) -> Realization:
    """Load a custom table and check it covers the whole window of xi.

    Every number is a JSON integer (``quivers.json_int``); anything else is a
    TypeError, a missing key a KeyError, and a monomial node outside
    [1, g0_rank] or a vertex listed twice a ValueError.
    """
    h_dual = json_int(obj["h_dual"])
    g0_rank = json_int(obj.get("g0_rank", h_dual - 1))
    table = {}
    for e in obj["entries"]:
        mono = Monomial.from_json(e["monomial"])
        for node, _ in mono.factors:
            roots.check_node(g0_rank, node)
        v = Vertex(json_int(e["i"]), json_int(e["k2"]))
        if v in table:
            raise ValueError(f"table lists vertex {v} twice")
        table[v] = mono
    missing = [v for v in xi.gamma_vertices() if v not in table]
    if missing:
        raise MissingTableEntry(f"table misses window vertices, e.g. {missing[:3]}")
    return Realization.custom(h_dual, table, g0_rank)
