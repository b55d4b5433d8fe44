"""Crystal string functions epsilon_j / epsilon*_j on canonical-quiver data.

On the two canonical 0/1 height functions the value epsilon_j of a datum c
is the maximum of sum(c_{i,k} - c_{i,k-2}) over lower closed subsets of the
diamond Omega_j.  In the coordinates (k+i, k-i) Omega_j is a full rectangle
whose arrows are the unit steps, so ``omega`` writes it down in closed form,
a lower set is a staircase of column heights that never rise to the right,
and epsilon is a dynamic programme over the columns, linear in |Omega_j|.
Its cells are plain additions and comparisons: at a few hundred cells per
call, a builtin call per cell (``max``) was the programme's main cost.
epsilon*_j is epsilon_j of the dual datum cv_{(i,k)} = c_{(i*, n-k)} on
the other window, which is never built: the weights are read off c through
the duality map (i, k2) -> (n+1-i, 2n-k2), so epsilon* costs what epsilon
does.  The weights of dense data are read with no call per cell: ``omega``
keeps, for each of its read lists, one ``operator.itemgetter`` of the
canonical windows' slots, built once per rank and node, so a datum's counts
are gathered by two C-level calls and no key is hashed.  Unit data, the
tfd bridge's at most p nonzero counts, build no slot vector at all:
``_unit_weights`` places each count on its vertex's cell of the rectangle,
column (k+i-j-1)/2 and row (k-i+j-1)/2, with +1 there and -1 on the cell of
(i, k+2), in O(1) per point, and the staircase runs on the full rectangle.
The reference oracles live in ``verify``: Omega_j as the preceq interval of
the window, epsilon by enumerating that interval's order ideals, and the
dual datum itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter, sub

from . import roots
from .errors import ParityMismatch, WrongCarrier
from .lusztig import Carrier, VertexDatum
from .quivers import HeightFunction, Vertex, exact_ints


def bar(i: int) -> int:
    return i % 2


def delta_of_carrier(carrier: Carrier) -> int:
    if carrier.kind != "gamma-delta":
        raise WrongCarrier("epsilon expects a datum on a canonical Gamma window")
    return carrier.arg


@dataclass(frozen=True)
class OmegaPoset:
    """The diamond {v : (j,1) <= v <= (j*, n)} inside the canonical window, column by column."""

    n: int
    j: int
    vertices: tuple[Vertex, ...]
    columns: tuple[tuple[Vertex, ...], ...]  # per column k+i, ascending, each by row k-i
    # getters of the slots read by epsilon_j, epsilon*_j: c_{i,k}, c_{i,k-2} per vertex on the parity-bar(j)
    # window (its length: off it, 0); the dual's, c at (i*, n-k), (i*, n-k+2), on the other; and the slots of
    # the first letters, c_{j,0} there and c_{j*,n} here; a getter compares by identity, and the getters are
    # a function of n and j, so they take no part in equality and hashing
    reads: tuple[itemgetter, itemgetter] = field(compare=False)
    dual_reads: tuple[itemgetter, itemgetter] = field(compare=False)
    firsts: tuple[int, int]


@lru_cache(maxsize=256, typed=True)
def omega(n: int, j: int) -> OmegaPoset:
    """Omega_j in closed form: columns c = k+i in {j+1, j+3, ..., 2n+1-j}, rows r = k-i in {1-j, ..., j-1}.

    The vertex at (c, r) is ((c-r)/2, k2 = c+r).  ``verify`` holds the
    second description, the interval of the canonical window by preceq.
    The cache is typed and its body checks both arguments on a miss, so a
    float or a bool never hits an int's entry.
    """
    exact_ints("ranks and nodes", (n, j))
    roots.check_node(n, j)
    columns = tuple(tuple(Vertex((c - r) // 2, c + r) for r in range(1 - j, j, 2)) for c in range(j + 1, 2 * n + 2 - j, 2))
    verts = tuple(v for col in columns for v in col)
    own, other = (HeightFunction.canonical(n, delta).window.slot for delta in (bar(j), 1 - bar(j)))
    reads = tuple(_getter([own.get((i, k2 - dk), len(own)) for i, k2 in verts]) for dk in (0, 4))
    dual = tuple(_getter([other.get((n + 1 - i, 2 * n - k2 + dk), len(other)) for i, k2 in verts]) for dk in (0, 4))
    return OmegaPoset(n, j, verts, columns, reads, dual, (other[(j, 0)], own[(roots.star(n, j), 2 * n)]))


def _getter(slots: list[int]) -> itemgetter:
    """A C-level getter of the counts at the slots, as a tuple.  One slot is read as a slice (rank 1's one-cell
    diamond), since itemgetter of one index gives the count itself, not a tuple."""
    return itemgetter(*slots) if len(slots) > 1 else itemgetter(slice(slots[0], slots[0] + 1))


def _weights(plus: itemgetter, minus: itemgetter, vals: tuple[int, ...]) -> list[int]:
    """The weight c_{i,k} - c_{i,k-2} of each Omega vertex, read off a datum's counts vals by the getters of
    ``reads``, or of ``dual_reads`` for those of its dual datum, whose count at (i, k2) is at (n+1-i, 2n-k2)."""
    vals += (0,)  # the slot past the window's last reads 0
    return list(map(sub, plus(vals), minus(vals)))


def _unit_weights(n: int, j: int, points: list[tuple[int, int]]) -> list[int]:
    """The weights of Omega_j under a count 1 at each of the points (i, k2) of the parity-bar(j) window of
    rank n, with no slot vector and no check: what ``_weights`` reads off that datum's counts.

    Each count is placed straight onto its cells: +1 on the weight of its own
    vertex, -1 on that of (i, k2 + 4), where each lies in Omega_j.  The cell
    of (i, k2) is column (k2/2 + i - j - 1)/2 and row (k2/2 - i + j - 1)/2,
    at col*j + row; both are whole on this window, where k = i + 1 + j mod 2.
    """
    cols, wts = n + 1 - j, [0] * (j * (n + 1 - j) + 1)  # the last cell takes what falls off Omega_j
    for i, k2 in points:
        col, row = (k2 + 2 * (i - j) - 2) >> 2, (k2 - 2 * (i - j) - 2) >> 2
        wts[col * j + row if 0 <= col < cols and 0 <= row < j else -1] += 1
        wts[col * j + row + j + 1 if -1 <= col < cols - 1 and -1 <= row < j - 1 else -1] -= 1
    return wts[:-1]


def _staircase(j: int, wts: list[int]) -> int:
    """The best lower set of Omega_j under the weights, which run column by column, j rows each.

    Each cell is one addition and one comparison: the running maximum is a
    conditional expression, not a call to ``max``, whose call per cell cost
    about as much as the rest of the programme.
    """
    # best[h]: optimum of the columns right of the current one, given that
    # the current column has height h (a lower set never rises to the right)
    best = [0] * (j + 1)
    for x in reversed(range(0, len(wts), j)):
        total = run = 0
        for h, w in enumerate(wts[x:x + j], 1):
            total += w
            run = best[h] = t if (t := total + best[h]) > run else run
    return best[-1]


def epsilon(j: int, d: VertexDatum) -> int:
    """Reineke's epsilon_j, a staircase programme over the columns of Omega_j.

    The datum must live on the matching-parity window.
    """
    delta = delta_of_carrier(d.carrier)
    if bar(j) != delta:
        raise ParityMismatch(f"epsilon_{j} needs the parity-{bar(j)} window, got {delta}")
    return _staircase(j, _weights(*omega(d.carrier.n, j).reads, d.counts.vals))


def epsilon_other_parity(j: int, d: VertexDatum) -> int:
    """First-letter shortcut: on the opposite-parity window epsilon_j = c_{j,0}."""
    roots.check_node(d.carrier.n, j)
    if bar(j) == delta_of_carrier(d.carrier):
        raise ParityMismatch(f"node {j} has the carrier parity; use epsilon")
    return d.counts.vals[omega(d.carrier.n, j).firsts[0]]


def epsilon_any(j: int, d: VertexDatum) -> int:
    roots.check_node(d.carrier.n, j)
    if bar(j) == delta_of_carrier(d.carrier):
        return epsilon(j, d)
    return epsilon_other_parity(j, d)


def epsilon_star(j: int, d: VertexDatum) -> int:
    """epsilon*_j: epsilon_j of the dual datum on the other window, read off d through the duality map.

    When j has the other window's parity this is the staircase on the dual
    weights; otherwise it is the dual's first letter, cv_{(j,0)} = c_{(j*, n)}.
    """
    delta, n = delta_of_carrier(d.carrier), d.carrier.n
    roots.check_node(n, j)
    if bar(j) == delta:
        return d.counts.vals[omega(n, j).firsts[1]]
    return _staircase(j, _weights(*omega(n, j).dual_reads, d.counts.vals))
