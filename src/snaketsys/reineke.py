"""Crystal string functions epsilon_j / epsilon*_j on canonical-quiver data.

On the two canonical 0/1 height functions the value epsilon_j of a datum c
is the maximum of sum(c_{i,k} - c_{i,k-2}) over lower closed subsets of the
diamond Omega_j.  In the coordinates (k+i, k-i) Omega_j is a full rectangle
whose arrows are the unit steps, so ``omega`` writes it down in closed form,
a lower set is a staircase of column heights that never rise to the right,
and epsilon is a dynamic programme over the columns, linear in |Omega_j|.
epsilon*_j is epsilon_j of the dual datum cv_{(i,k)} = c_{(i*, n-k)} on
the other window, which is never built: the weights are read off c through
the duality map (i, k2) -> (n+1-i, 2n-k2), so epsilon* costs what epsilon
does.  ``omega`` also lists the canonical windows' slots that every weight
reads, so no key is hashed; the tfd bridge passes such counts straight to
``_epsilon_on_slots``.  The reference oracles live in ``verify``: Omega_j
as the preceq interval of the window, epsilon by enumerating that
interval's order ideals, and the dual datum itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import sub

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
    # slots read by epsilon_j, epsilon*_j: c_{i,k}, c_{i,k-2} per vertex on the parity-bar(j) window (its length:
    # off it, 0); the dual's, c at (i*, n-k), (i*, n-k+2), on the other; first letters c_{j,0} there, c_{j*,n} here
    reads: tuple[tuple[int, ...], ...]
    dual_reads: tuple[tuple[int, ...], ...]
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
    columns = tuple(
        tuple(Vertex((c - r) // 2, c + r) for r in range(1 - j, j, 2)) for c in range(j + 1, 2 * n + 2 - j, 2)
    )
    verts = tuple(v for col in columns for v in col)
    own, other = (HeightFunction.canonical(n, delta).window.slot for delta in (bar(j), 1 - bar(j)))
    reads = tuple(tuple(map(own.get, [(i, k2 - dk) for i, k2 in verts], repeat(len(own)))) for dk in (0, 4))
    dual = tuple(tuple(map(other.get, [(n + 1 - i, 2 * n - k2 + dk) for i, k2 in verts], repeat(len(other))))
                 for dk in (0, 4))
    return OmegaPoset(n, j, verts, columns, reads, dual, (other[(j, 0)], own[(roots.star(n, j), 2 * n)]))


def _weights(reads: tuple[tuple[int, ...], ...], vals: tuple[int, ...]) -> list[int]:
    """The weight c_{i,k} - c_{i,k-2} of each Omega vertex, read by slot off a datum's counts vals: ``reads``
    gives its own weights and ``dual_reads`` those of its dual datum, whose count at (i, k2) is at (n+1-i, 2n-k2)."""
    vals += (0,)  # the slot past the window's last reads 0
    plus, minus = reads
    return list(map(sub, map(vals.__getitem__, plus), map(vals.__getitem__, minus)))


def _staircase(j: int, wts: list[int]) -> int:
    """The best lower set of Omega_j under the weights, which run column by column, j rows each."""
    # best[h]: optimum of the columns right of the current one, given that
    # the current column has height h (a lower set never rises to the right)
    best = [0] * (j + 1)
    for x in reversed(range(0, len(wts), j)):
        total = run = 0
        for h, w in enumerate(wts[x:x + j], 1):
            total += w
            run = max(run, total + best[h])
            best[h] = run
    return best[-1]


def epsilon(j: int, d: VertexDatum) -> int:
    """Reineke's epsilon_j, a staircase programme over the columns of Omega_j.

    The datum must live on the matching-parity window.
    """
    delta = delta_of_carrier(d.carrier)
    if bar(j) != delta:
        raise ParityMismatch(f"epsilon_{j} needs the parity-{bar(j)} window, got {delta}")
    return _epsilon_on_slots(d.carrier.n, j, d.counts.vals)


def _epsilon_on_slots(n: int, j: int, vals: tuple[int, ...]) -> int:
    """epsilon_j of the counts vals, one per slot of the parity-bar(j) canonical window of rank n: no check."""
    return _staircase(j, _weights(omega(n, j).reads, vals))


def epsilon_other_parity(j: int, d: VertexDatum) -> int:
    """First-letter shortcut: on the opposite-parity window epsilon_j = c_{j,0}."""
    roots.check_node(d.carrier.n, j)
    delta = delta_of_carrier(d.carrier)
    if bar(j) == delta:
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
    delta = delta_of_carrier(d.carrier)
    n = d.carrier.n
    roots.check_node(n, j)
    if bar(j) == delta:
        return d.counts.vals[omega(n, j).firsts[1]]
    return _staircase(j, _weights(omega(n, j).dual_reads, d.counts.vals))
