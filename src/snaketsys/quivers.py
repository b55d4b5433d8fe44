"""Height functions, repetition quivers, the window Gamma, phi and duality.

Half-integer coordinates are stored as doubled integers throughout (k2 = 2k),
so all arithmetic stays exact.  A vertex (i, k) of the repetition quiver is
the pair Vertex(i, k2); a height function stores its doubled values.

Untwisted height functions take integer values with |xi_i - xi_{i+1}| = 1.
Twisted ones (n = 2*n0 - 1) take a half-integer value at the middle node n0,
where the quiver row is twice as dense (d_{n0} = 1 instead of 2).

A height function builds its Gamma window once, as one immutable Window
kept on the instance that lusztig and reineke read too: the vertices in slot
order (row by row, each by k2), the slots of each row, the (k2, i) reading,
and on first use the slot map and phi's roots.  The canonical functions and
staircases are shared per rank in typed bounded caches that check the rank.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from . import roots
from .errors import InternalError, NotAnInteger, NotHeightFunction, NotSnake, OutsideWindow
from .roots import Root

UNTWISTED = "untwisted"
TWISTED = "twisted"


class Vertex(NamedTuple):
    i: int
    k2: int  # doubled spectral coordinate, k = k2/2

    def __str__(self) -> str:
        return f"({self.i},{_fmt_k2(self.k2)})"


# Vertex((i, k2)) without NamedTuple's Python-level __new__: the same tuple
# subclass, hash and str.  It takes the pair as one tuple and checks nothing,
# so it is only for vertices that trusted code derives from vertices already
# known to lie on a quiver: the coordinate reversal, the duality D, Q/R, and
# the tfd bridge's shifts, by a multiple of 4 or by the twisted parity shift,
# each of which keeps a vertex on its row's lattice.
_vertex = partial(tuple.__new__, Vertex)


def vertices_json(points: Iterable[Vertex]) -> list[dict]:
    """A vertex sequence as the JSON list of its {"i", "k2"} objects."""
    return [{"i": v.i, "k2": v.k2} for v in points]


def _fmt_k2(k2: int) -> str:
    return str(k2 // 2) if k2 % 2 == 0 else f"{k2}/2"


def json_int(x) -> int:
    """An integer entry of JSON input, taken as is; a float, bool or string is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def exact_ints(what: str, values: Collection) -> None:
    """Raise NotAnInteger naming the first of values that is not an int (a bool is none)."""
    if not set(map(type, values)) <= {int}:  # one C-level pass over a run of ints
        raise NotAnInteger(f"{what} must be integers, got {next(x for x in values if type(x) is not int)!r}")


class Region(enum.Enum):
    """Row classification of a twisted repetition quiver."""

    LT = "lt"  # i < n0
    GT = "gt"  # i > n0
    U = "U"    # middle row, outgoing arrows point upward (to n0 - 1)
    D = "D"    # middle row, outgoing arrows point downward (to n0 + 1)


@dataclass(frozen=True)
class HeightFunction:
    n: int
    flavor: str
    values2: tuple[int, ...]
    n0: int | None = None

    def __post_init__(self):
        # checked first: an unknown flavor is a plain ValueError whatever the values
        if self.flavor not in (UNTWISTED, TWISTED):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        exact_ints("rank, heights and n0", (self.n, *self.values2) + (() if self.n0 is None else (self.n0,)))
        if self.n < 1 or len(self.values2) != self.n:
            raise NotHeightFunction("values must assign one height per node")
        if self.flavor == UNTWISTED:
            if self.n0 is not None:
                raise NotHeightFunction("untwisted height function takes no n0")
            if any(v % 2 for v in self.values2):
                raise NotHeightFunction("untwisted heights must be integers")
            for i in range(1, self.n):
                if abs(self.values2[i] - self.values2[i - 1]) != 2:
                    raise NotHeightFunction(f"|xi_{i} - xi_{i+1}| != 1")
        else:
            n0 = self.n0
            if n0 is None or n0 < 2 or self.n != 2 * n0 - 1:
                raise NotHeightFunction("twisted height function needs n = 2*n0 - 1, n0 >= 2")
            for i in range(1, self.n + 1):
                if i != n0 and self.values2[i - 1] % 2:
                    raise NotHeightFunction(f"xi_{i} must be an integer")
            if self.values2[n0 - 1] % 2 == 0:
                raise NotHeightFunction("xi_n0 must be a half-integer")
            for i in range(1, self.n):
                if i in (n0 - 1, n0):
                    continue
                if abs(self.values2[i] - self.values2[i - 1]) != 2:
                    raise NotHeightFunction(f"|xi_{i} - xi_{i+1}| != 1")
            lo = min(self.values2[n0 - 2], self.values2[n0])
            if abs(self.values2[n0 - 2] - self.values2[n0]) != 2:
                raise NotHeightFunction("|xi_{n0-1} - xi_{n0+1}| != 1")
            if abs(self.values2[n0 - 1] - lo) != 1:
                raise NotHeightFunction("|xi_n0 - min(xi_{n0-1}, xi_{n0+1})| != 1/2")

    # -- constructors -------------------------------------------------

    @staticmethod
    def untwisted(values: Iterable[int]) -> "HeightFunction":
        vals = tuple(values)
        exact_ints("heights", vals)  # before doubling, which turns True into 2
        return HeightFunction(len(vals), UNTWISTED, tuple(2 * v for v in vals))

    @staticmethod
    def twisted(values2: Iterable[int], n0: int) -> "HeightFunction":
        vals2 = tuple(values2)
        return HeightFunction(len(vals2), TWISTED, vals2, n0)

    @staticmethod
    @lru_cache(maxsize=64, typed=True)
    def canonical(n: int, delta: int) -> "HeightFunction":
        """The 0/1-valued untwisted function with xi_1 = delta."""
        if type(delta) is not int or delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        exact_ints("ranks", (n,))
        if n < 1:
            raise NotHeightFunction(f"the rank n must be at least 1, got {n}")
        return HeightFunction.untwisted([(i + 1 + delta) % 2 for i in range(1, n + 1)])

    @staticmethod
    @lru_cache(maxsize=32, typed=True)
    def theta(n0: int) -> "HeightFunction":
        """Untwisted companion of big_theta: i on [1,n0], i-2 above."""
        exact_ints("n0 values", (n0,))
        if n0 < 1:
            raise NotHeightFunction(f"the rank 2*n0 - 1 must be at least 1, got n0 = {n0}")
        n = 2 * n0 - 1
        return HeightFunction.untwisted([i if i <= n0 else i - 2 for i in range(1, n + 1)])

    @staticmethod
    @lru_cache(maxsize=32, typed=True)
    def big_theta(n0: int) -> "HeightFunction":
        """Twisted i, n0-1/2, i-1 staircase on [1, 2*n0-1]."""
        exact_ints("n0 values", (n0,))
        if n0 < 1:
            raise NotHeightFunction(f"the rank 2*n0 - 1 must be at least 1, got n0 = {n0}")
        return HeightFunction.twisted([big_theta2(n0, i) for i in range(1, 2 * n0)], n0)

    # -- basic structure ----------------------------------------------

    @property
    def twisted_flavor(self) -> bool:
        return self.flavor == TWISTED

    def xi2(self, i: int) -> int:
        roots.check_node(self.n, i)
        return self.values2[i - 1]

    def d2(self, i: int) -> int:
        """Doubled translation step of row i (2*d_i is the k2 modulus)."""
        return 2 if i == self.n0 else 4  # n0 is None on untwisted functions

    @cached_property
    def _rows(self) -> tuple[int, ...] | None:
        """The doubled row heights T of preceq, T[i] for i in [0, n] (T[0] unused): 2i untwisted,
        big_theta2 twisted; None on untwisted n = 1, which has no arrows."""
        n, n0 = self.n, self.n0
        if n0 is not None:
            return tuple(big_theta2(n0, i) for i in range(n + 1))
        return tuple(range(0, 2 * n + 1, 2)) if n > 1 else None

    def ntilde2(self) -> int:
        return 2 * self.n if self.n0 is not None else 2 * (self.n + 1)  # n0 is set on twisted functions only

    def shifted(self, p2: int) -> "HeightFunction":
        """Add the integer p = p2/2 to every height (p2 must be even)."""
        if p2 % 2:
            raise ValueError("shift must be an integer (even doubled value)")
        return HeightFunction(self.n, self.flavor, tuple(v + p2 for v in self.values2), self.n0)

    def reversed(self) -> "HeightFunction":
        """The height function of this quiver under reverse_vertex, (i, k) -> (i*, -k).

        The map turns every arrow v -> w into w' -> v', so it reverses preceq
        and sends a snake, read backwards, to a snake.  Twisted rows keep U and
        D and swap LT with GT.  The middle value of a twisted function keeps
        its offset from the lower of its neighbours, so reversing twice gives
        the function back.  Being an involution, reversal keeps a valid
        function valid, so the result is not validated again; it shares this
        function's row heights, which depend only on the shape.
        tests/test_tsystem.py rebuilds the reversal of every small shape
        through the validating constructor.
        """
        vals2 = [-x for x in reversed(self.values2)]
        if self.n0 is not None:
            m, old = self.n0 - 1, self.values2
            vals2[m] = min(vals2[m - 1], vals2[m + 1]) + old[m] - min(old[m - 1], old[m + 1])
        rev = object.__new__(HeightFunction)
        rev.__dict__.update(n=self.n, flavor=self.flavor, values2=tuple(vals2), n0=self.n0, _rows=self._rows)
        return rev

    def reverse_vertex(self, v: Vertex) -> Vertex:
        """(i, k) -> (i*, -k): a vertex of this quiver to one of reversed(); NotSnake off the quiver."""
        if not self.is_vertex(v):
            raise NotSnake(f"{v} is not a vertex of the quiver")
        return _vertex((self.n + 1 - v.i, -v.k2))

    def vertices_between(self, k2_lo: int, k2_hi: int) -> list[Vertex]:
        """Every vertex with k2_lo <= k2 <= k2_hi, row by row, k2 ascending in a row."""
        out = []
        for i in range(1, self.n + 1):
            d2 = self.d2(i)
            start = k2_lo + (self.values2[i - 1] - k2_lo) % d2
            out.extend(Vertex(i, k2) for k2 in range(start, k2_hi + 1, d2))
        return out

    def is_vertex(self, v: Vertex) -> bool:
        """Whether v lies on this quiver; NotAnInteger unless both coordinates are ints (a bool is none)."""
        i, k2 = v
        if type(i) is not int or type(k2) is not int:
            raise NotAnInteger(f"vertex coordinates must be integers, got {v!r}")
        if not 1 <= i <= self.n:
            return False
        return (k2 - self.values2[i - 1]) % (2 if i == self.n0 else 4) == 0  # the modulus d2(i)

    def _arrow_step2(self, i: int, j: int) -> int:
        # doubled min(d_i, d_j)/2
        return min(self.d2(i), self.d2(j)) // 2

    def arrow_targets(self, v: Vertex) -> list[Vertex]:
        out = []
        for j in (v.i - 1, v.i + 1):
            if 1 <= j <= self.n:
                w = Vertex(j, v.k2 + self._arrow_step2(v.i, j))
                if self.is_vertex(w):
                    out.append(w)
        return out

    def has_arrow(self, v: Vertex, w: Vertex) -> bool:
        if not (self.is_vertex(v) and self.is_vertex(w)):
            return False
        return abs(v.i - w.i) == 1 and w.k2 - v.k2 == self._arrow_step2(v.i, w.i)

    def preceq(self, v: Vertex, w: Vertex) -> bool:
        """Oriented-path reachability v -> ... -> w (reflexive), in O(1).

        One formula for both flavors: with the doubled gap g = w.k2 - v.k2,
        v reaches w iff g >= |T_i' - T_i|, where the row height T_i is 2i
        (untwisted) or the doubled big_theta height (twisted).  Untwisted
        n = 1 has no arrows, so there v reaches only itself.  Every arrow
        raises k2 by exactly the change it makes to T, so the bound is
        necessary; tests/test_quivers.py checks that it is sufficient
        against breadth-first search over arrow_targets.
        """
        return self.is_vertex(v) and self.is_vertex(w) and self._climbs(v.i, w.i, w.k2 - v.k2)

    def _climbs(self, i: int, j: int, gap2: int) -> bool:
        """A vertex of this quiver on row i reaches the one gap2 (doubled) above it on row j."""
        t = self._rows
        return gap2 >= abs(t[j] - t[i]) if t else gap2 == 0

    def prec(self, v: Vertex, w: Vertex) -> bool:
        return v != w and self.preceq(v, w)

    # -- sinks, sources, reflections ----------------------------------

    def sinks(self) -> set[int]:
        """The rows i with xi_i below xi_j on every neighbouring row j."""
        return self._below_neighbours(self.xi2)

    def sources(self) -> set[int]:
        """The rows i with xi_i - d_i above xi_j - d_j on every neighbouring row j."""
        return self._below_neighbours(lambda i: self.d2(i) - self.xi2(i))

    def _below_neighbours(self, key) -> set[int]:
        n = self.n
        return {i for i in range(1, n + 1) if all(key(i) < key(j) for j in (i - 1, i + 1) if 1 <= j <= n)}

    # -- duality and regions ------------------------------------------

    def dualize(self, v: Vertex, sign: int = 1) -> Vertex:
        """D^sign (i,k) = (i*, k - sign*ntilde) of a vertex of this quiver; NotSnake off the quiver."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.is_vertex(v):
            raise NotSnake(f"{v} is not a vertex of the quiver")
        return _vertex((self.n + 1 - v.i, v.k2 - sign * self.ntilde2()))

    def region(self, v: Vertex) -> Region:
        if not self.twisted_flavor:
            raise ValueError("regions exist only for twisted height functions")
        if not self.is_vertex(v):
            raise NotSnake(f"{v} is not a vertex of the quiver")
        n0 = self.n0
        if v.i < n0:
            return Region.LT
        if v.i > n0:
            return Region.GT
        # the arrow (n0, k) -> (n0 + 1, k + 1/2) exists iff its head lies on row n0 + 1
        return Region.D if (v.k2 + 1 - self.values2[n0]) % 4 == 0 else Region.U

    # -- the finite window Gamma --------------------------------------

    @cached_property
    def window(self) -> "Window":
        """The Gamma window, built once; InternalError unless it holds N = n(n+1)/2 vertices."""
        rows = [map(_vertex, zip(repeat(i), self.gamma_row(i))) for i in range(1, self.n + 1)]
        win = Window.of_rows([(), *map(tuple, rows), ()], reading=True)
        if len(win.vertices) != roots.num_positive_roots(self.n):
            raise InternalError(f"|Gamma| = {len(win.vertices)} != {roots.num_positive_roots(self.n)}")
        return win

    def gamma_vertices(self) -> tuple[Vertex, ...]:
        """All N = n(n+1)/2 vertices with xi_i <= k <= n-1+xi_{i*}, by (k2, i)."""
        return self.window.reading

    def gamma_row(self, i: int) -> range:
        """The doubled heights k2 of row i inside Gamma: xi_i <= k <= n-1+xi_{i*}, step d_i."""
        top2 = 2 * (self.n - 1) + self.xi2(roots.star(self.n, i))
        return range(self.xi2(i), top2 + 1, self.d2(i))

    def in_gamma(self, v: Vertex) -> bool:
        return v in self.window.slot

    def compatible_reading(self, reverse_rows: bool = False) -> tuple[tuple[Vertex, ...], tuple[int, ...]]:
        """A topological order of Gamma and its node word.

        Arrows strictly increase k2, so any k2-ascending order is compatible.
        Ties break by ascending row (descending when reverse_rows, used to
        check reading-independence, a stable sort of the reversed slot order).
        """
        win = self.window
        order = tuple(sorted(reversed(win.vertices), key=itemgetter(1))) if reverse_rows else win.reading
        return order, tuple(map(itemgetter(0), order))

    def phi(self, v: Vertex) -> Root:
        """Positive root attached to a window vertex by the inversion sequence."""
        if v not in self.window.phi:
            raise OutsideWindow(f"{v} is not in the Gamma window")
        return self.window.phi[v]


def big_theta2(n0: int, i: int) -> int:
    """Doubled big_theta height of row i: 2i below n0, 2n0 - 1 at n0, 2(i - 1) above."""
    if i < n0:
        return 2 * i
    if i == n0:
        return 2 * n0 - 1
    return 2 * (i - 1)


@dataclass(frozen=True, eq=False)
class Window:
    """Vertices of a quiver of rank n in slot order, row by row, each row by k2; shared, so read-only."""

    vertices: tuple[Vertex, ...]
    rows: tuple[slice, ...]  # rows[i]: the slots of row i, for i in [0, n+1] (rows 0 and n+1 are empty)
    reading: tuple[Vertex, ...]  # by (k2, i) on a Gamma window, a compatible reading; empty on lusztig's V<j>

    @classmethod
    def of_rows(cls, rows: Sequence[Sequence[Vertex]], reading: bool = False) -> "Window":
        """The window whose row i is rows[i], already by k2; its reading is a stable sort by k2."""
        vertices = tuple(chain.from_iterable(rows))
        ends = tuple(accumulate(map(len, rows), initial=0))
        order = tuple(sorted(vertices, key=itemgetter(1))) if reading else ()
        return cls(vertices, tuple(map(slice, ends, ends[1:])), order)

    @cached_property
    def slot(self) -> Mapping[Vertex, int]:
        """The slot of each vertex; a plain (i, k2) tuple finds it too."""
        return MappingProxyType(dict(zip(self.vertices, count())))

    @cached_property
    def phi(self) -> Mapping[Vertex, Root]:
        """The positive root of each vertex of the reading, by the inversion sequence of its word."""
        betas = roots.inversion_sequence(len(self.rows) - 2, tuple(map(itemgetter(0), self.reading)))
        return MappingProxyType(dict(zip(self.reading, betas)))


def phi_map(hf: HeightFunction) -> Mapping[Vertex, Root]:
    """Window vertex -> positive root, in the (k2, i) reading; read-only, built once per height function."""
    return hf.window.phi


def phi_closed_form(n: int, v: Vertex) -> Root:
    """Interval root at (i,k) for the canonical 0/1 height functions."""
    if v.k2 % 2:
        raise ValueError("canonical height functions have integer coordinates")
    i, k = v.i, v.k2 // 2
    x = i - k if i - k > 0 else k - i + 1
    y = i + k if i + k <= n else 2 * n + 1 - i - k
    return Root(x, y, +1)


# -- rendering ---------------------------------------------------------


def quiver_dot(hf: HeightFunction, k2_lo: int, k2_hi: int, phi_labels: bool = False) -> str:
    """DOT of the quiver restricted to a k2 window ("i:k2" vertex labels).

    With phi_labels, restricts to the Gamma window and appends the root.
    """
    if phi_labels:
        verts = [v for v in hf.gamma_vertices() if k2_lo <= v.k2 <= k2_hi]
    else:
        verts = hf.vertices_between(k2_lo, k2_hi)
    vset = set(verts)
    lines = ["digraph repetition_quiver {", "  rankdir=LR;"]
    for v in sorted(vset, key=lambda u: (u.k2, u.i)):
        label = f"{v.i}:{v.k2}\\n{hf.phi(v)}" if phi_labels else f"{v.i}:{v.k2}"
        lines.append(f'  "{v.i}:{v.k2}" [label="{label}"];')
    for v in sorted(vset, key=lambda u: (u.k2, u.i)):
        for w in hf.arrow_targets(v):
            if w in vset:
                lines.append(f'  "{v.i}:{v.k2}" -> "{w.i}:{w.k2}";')
    lines.append("}")
    return "\n".join(lines)


def quiver_ascii(hf: HeightFunction, k2_lo: int, k2_hi: int, phi_labels: bool = False) -> str:
    """Plain-text (i \\ k) grid of the requested window."""
    if phi_labels:
        cells = {v: str(hf.phi(v)) for v in hf.gamma_vertices() if k2_lo <= v.k2 <= k2_hi}
    else:
        cells = dict.fromkeys(hf.vertices_between(k2_lo, k2_hi), "*")
    if not cells:
        return "(empty window)"
    cols = sorted({v.k2 for v in cells})
    width = max(len(_fmt_k2(c)) for c in cols)
    width = max(width, max(len(s) for s in cells.values()))
    head = "i\\k  " + " ".join(_fmt_k2(c).rjust(width) for c in cols)
    lines = [head]
    for i in range(1, hf.n + 1):
        row = [cells.get(Vertex(i, c), "").rjust(width) for c in cols]
        lines.append(f"{i:<4} " + " ".join(row))
    return "\n".join(lines)
