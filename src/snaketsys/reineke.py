"""Crystal string functions epsilon_j / epsilon*_j on canonical-quiver data.

On the two canonical 0/1 height functions the value epsilon_j of a datum c
is the maximum of sum(c_{i,k} - c_{i,k-2}) over lower closed subsets of the
diamond Omega_j.  That is literally a maximum-weight-closure problem, so it
is implemented twice: exhaustive enumeration of order ideals (the reference
oracle for small diamonds) and a min-cut reduction solved by Dinic's
algorithm.  The production entry point cross-dispatches on size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import roots
from .errors import ParityMismatch, WrongCarrier
from .lusztig import Carrier, VertexDatum
from .quivers import HeightFunction, Vertex

BRUTE_FORCE_LIMIT = 20  # exhaustive ideal enumeration up to this |Omega|


def bar(i: int) -> int:
    return i % 2


def delta_of_carrier(carrier: Carrier) -> int:
    kind, _, arg = carrier.name.partition(":")
    if kind != "gamma-delta":
        raise WrongCarrier("epsilon expects a datum on a canonical Gamma window")
    return int(arg)


@dataclass(frozen=True)
class OmegaPoset:
    """The diamond {v : (j,1) <= v <= (j*, n)} inside the canonical window."""

    n: int
    j: int
    delta: int
    vertices: tuple[Vertex, ...]
    covers: tuple[tuple[int, int], ...]  # (a, b): vertices[a] -> vertices[b] arrow

    def index(self, v: Vertex) -> int:
        return self.vertices.index(v)


@lru_cache(maxsize=256)
def omega(n: int, j: int) -> OmegaPoset:
    """Omega_j as the interval (j,1) <= v <= (j*, n) of the canonical window.

    The test suite checks it against the root-set description
    {v : phi(v) contains j}.
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
    return OmegaPoset(n, j, delta, verts, tuple(covers))


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


class _Dinic:
    def __init__(self, size: int):
        self.size = size
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def epsilon_mincut(om: OmegaPoset, d: VertexDatum) -> int:
    """Max-weight downward-closed subset via the closure/min-cut reduction.

    Source feeds positive weights, negative weights feed the sink, and each
    vertex points at its covers' sources (take v => take every u below v)
    with infinite capacity.  Answer = sum of positives - min cut.
    """
    wts = _weights(om, d)
    m = len(wts)
    src, snk = m, m + 1
    g = _Dinic(m + 2)
    inf = sum(w for w in wts if w > 0) + 1
    for x, w in enumerate(wts):
        if w > 0:
            g.add_edge(src, x, w)
        elif w < 0:
            g.add_edge(x, snk, -w)
    for a, b in om.covers:
        g.add_edge(b, a, inf)  # membership of b forces membership of a
    return (inf - 1) - g.max_flow(src, snk)


def epsilon(j: int, d: VertexDatum) -> int:
    """Reineke's epsilon_j; the datum must live on the matching-parity window."""
    delta = delta_of_carrier(d.carrier)
    if bar(j) != delta:
        raise ParityMismatch(f"epsilon_{j} needs the parity-{bar(j)} window, got {delta}")
    om = omega(d.carrier.n, j)
    if len(om.vertices) <= BRUTE_FORCE_LIMIT:
        return epsilon_bruteforce(om, d)
    return epsilon_mincut(om, d)


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
