"""Crystal string functions epsilon_j / epsilon*_j on canonical-quiver data.

On the two canonical 0/1 height functions the value epsilon_j of a datum c
is the maximum of sum(c_{i,k} - c_{i,k-2}) over lower closed subsets of the
diamond Omega_j.  In the coordinates (k+i, k-i) Omega_j is a full rectangle
whose arrows are the unit steps, so a lower set is a staircase of column
heights that never rise to the right, and epsilon is a dynamic programme
over the columns, linear in |Omega_j|.  Exhaustive enumeration of order
ideals stays as the reference oracle of the ``verify`` sweep.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import roots
from .errors import InternalError, ParityMismatch, WrongCarrier
from .lusztig import Carrier, VertexDatum
from .quivers import HeightFunction, Vertex


def bar(i: int) -> int:
    return i % 2


def delta_of_carrier(carrier: Carrier) -> int:
    if carrier.kind != "gamma-delta":
        raise WrongCarrier("epsilon expects a datum on a canonical Gamma window")
    return carrier.arg


@dataclass(frozen=True)
class OmegaPoset:
    """The diamond {v : (j,1) <= v <= (j*, n)} inside the canonical window."""

    n: int
    j: int
    delta: int
    vertices: tuple[Vertex, ...]
    covers: tuple[tuple[int, int], ...]  # (a, b): vertices[a] -> vertices[b] arrow
    columns: tuple[tuple[int, ...], ...]  # vertex indices per column k+i, by row k-i


@lru_cache(maxsize=256)
def omega(n: int, j: int) -> OmegaPoset:
    """Omega_j as the interval (j,1) <= v <= (j*, n) of the canonical window.

    The test suite checks it against the root-set description
    {v : phi(v) contains j}; its grid layout is checked here, once per (n, j).
    """
    roots.check_node(n, j)
    delta = bar(j)
    hf = HeightFunction.canonical(n, delta)
    lo = Vertex(j, 2)
    hi = Vertex(roots.star(n, j), 2 * n)
    verts = tuple(v for v in hf.gamma_vertices() if hf.preceq(lo, v) and hf.preceq(v, hi))
    pos = {v: a for a, v in enumerate(verts)}
    covers = []
    for a, v in enumerate(verts):
        for w in hf.arrow_targets(v):
            if w in pos:
                covers.append((a, pos[w]))
    return OmegaPoset(n, j, delta, verts, tuple(covers), _grid_columns(verts, covers))


def _grid_columns(verts: Sequence[Vertex], covers: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The indices of ``verts`` per column k+i, each ordered by row k-i.

    The epsilon programme is exact only on a full rectangle whose arrows are
    exactly its unit steps; anything else is a bug in Omega.
    """
    col_of = {c: x for x, c in enumerate(sorted({v.k2 + 2 * v.i for v in verts}))}
    row_of = {r: y for y, r in enumerate(sorted({v.k2 - 2 * v.i for v in verts}))}
    grid = [[-1] * len(row_of) for _ in col_of]
    for a, v in enumerate(verts):
        grid[col_of[v.k2 + 2 * v.i]][row_of[v.k2 - 2 * v.i]] = a
    steps = {(col[y], col[y + 1]) for col in grid for y in range(len(col) - 1)}
    steps |= {(left[y], right[y]) for left, right in zip(grid, grid[1:]) for y in range(len(left))}
    if set(covers) != steps:  # a missing cell leaves a -1 that no arrow meets
        raise InternalError(f"{len(verts)} vertices and {len(covers)} arrows do not form a grid")
    return tuple(map(tuple, grid))


def _weights(om: OmegaPoset, d: VertexDatum) -> list[int]:
    out = []
    for v in om.vertices:
        w = d.get(v)
        if v.k2 - 4 >= 0:
            w -= d.get(Vertex(v.i, v.k2 - 4))
        out.append(w)
    return out


def _ideal_masks(om: OmegaPoset):
    """All lower closed subsets of Omega as bitmasks."""
    m = len(om.vertices)
    pred_mask = [0] * m
    for a, b in om.covers:
        pred_mask[b] |= 1 << a
    # saturate: predecessors of predecessors
    changed = True
    while changed:
        changed = False
        for b in range(m):
            acc = pred_mask[b]
            for a in range(m):
                if acc >> a & 1:
                    acc |= pred_mask[a]
            if acc != pred_mask[b]:
                pred_mask[b] = acc
                changed = True
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


def epsilon_bruteforce(om: OmegaPoset, d: VertexDatum) -> int:
    """Reference oracle: maximize over explicitly enumerated order ideals."""
    wts = _weights(om, d)
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


def epsilon(j: int, d: VertexDatum) -> int:
    """Reineke's epsilon_j, a staircase programme over the columns of Omega_j.

    The datum must live on the matching-parity window.
    """
    delta = delta_of_carrier(d.carrier)
    if bar(j) != delta:
        raise ParityMismatch(f"epsilon_{j} needs the parity-{bar(j)} window, got {delta}")
    om = omega(d.carrier.n, j)
    wts = _weights(om, d)
    # best[h]: optimum of the columns right of the current one, given that the
    # current column has height h (a lower set never rises to the right)
    best = [0] * (len(om.columns[0]) + 1)
    for col in reversed(om.columns):
        total = run = 0
        for h, a in enumerate(col, 1):
            total += wts[a]
            run = max(run, total + best[h])
            best[h] = run
    return best[-1]


def epsilon_other_parity(j: int, d: VertexDatum) -> int:
    """First-letter shortcut: on the opposite-parity window epsilon_j = c_{j,0}."""
    delta = delta_of_carrier(d.carrier)
    if bar(j) == delta:
        raise ParityMismatch(f"node {j} has the carrier parity; use epsilon")
    return d.get(Vertex(j, 0))


def epsilon_any(j: int, d: VertexDatum) -> int:
    if bar(j) == delta_of_carrier(d.carrier):
        return epsilon(j, d)
    return epsilon_other_parity(j, d)


def dual_vertex_datum(d: VertexDatum) -> VertexDatum:
    """c-dual on the complementary window: cv_{(i,k)} = c_{(i*, n-k)}.

    The carrier flips delta -> 1 - delta (the vertex map (i,k) -> (i*, n-k)
    exchanges exactly the two canonical windows).
    """
    n = d.carrier.n
    delta = delta_of_carrier(d.carrier)
    dual = Carrier(f"gamma-delta:{1 - delta}", n)
    counts = {}
    for v in dual.vertices():
        c = d.get(Vertex(roots.star(n, v.i), 2 * n - v.k2))
        if c:
            counts[v] = c
    return VertexDatum(dual, counts)


def epsilon_star(j: int, d: VertexDatum) -> int:
    """epsilon*_j computed as epsilon_j of the dual datum."""
    return epsilon_any(j, dual_vertex_datum(d))
