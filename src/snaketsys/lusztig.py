"""Lusztig data, 2/3-moves, the word chain V<j> and the transport map rho.

A LusztigDatum binds a reduced word to its tuple of nonnegative counts so the
two cannot fall out of sync.  A VertexDatum keys the counts by quiver
vertices instead and stores one int per slot of its carrier, whose slot
order (a quivers.Window: row by row, each row by k2) is taken once: a
window carrier shares its height function's Gamma window, and V<j> joins
rows already in slot order, kept in one bounded cache for rho_step, whose
every result sits on the next V<j>.  Its ``counts`` is a read-only Mapping
view of the tuple that yields the carrier's own Vertex objects and leaves
the zeros out.  On vertex-keyed data 2-moves act trivially, so rho is a
pure composition of 3-moves located by vertex coordinates.

The chain of carriers V<n0>, ..., V<n+1> interpolates between the window of
the twisted staircase big_theta (V<n0>) and that of its untwisted companion
theta (V<n+1>).  One step rho_<j> applies the piecewise-linear 3-move
transform to the triples

    (c_{j,j+2r-1/2}, c_{j+1,j+2r}, c_{j,j+2r+1/2}),   r in [0, n-j-1],

writing the results to (j+1, j+2r-1/2), (j, j+2r), (j+1, j+2r+1/2), shifts
the two leftover boundary keys of row j by -+1/2, and carries everything
else by identity.

Row i of V<j>, n0 < j <= n+1, is theta's window row if i < j, the
half-integer chain if i = j (_vj_chain), and big_theta's window row if i > j.

The steps do not depend on the datum, so each rank has one cached plan: it
numbers each vertex of the rows >= n0 of V<n0>, ..., V<n+1> once in a work
list and lists the work slots every step reads and writes.  It is checked
once on the rows of the two windows, each layer on its two rows only: O(n)
per layer, O(n^2) per rank, and no intermediate carrier is built.  rho and
rho_step share one kernel: the rows they move (rows >= n0, or rows j, j+1)
are one run of the datum's slots, which it copies into the work list, runs
through the layers and slices back between the rows it does not move, so
no key is hashed.  The plan check
proves the rows written and 3-moves keep counts nonnegative, so only the
input's carrier is checked.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, count
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from . import roots
from .errors import InternalError, NotAnInteger, NotBraidPattern, NotCommuting, NotLongestWord, WrongCarrier
from .quivers import HeightFunction, Vertex, Window, exact_ints, json_int

GAMMA_THETA = "gamma-theta"    # window of the untwisted staircase theta
GAMMA_BIG_THETA = "gamma-THETA"  # window of the twisted staircase big_theta


# -- word-keyed data -----------------------------------------------------


@dataclass(frozen=True)
class LusztigDatum:
    n: int
    word: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        exact_ints("rank, letters and counts", (self.n, *self.word, *self.counts))
        if len(self.word) != len(self.counts):
            raise ValueError("word and counts must have equal length")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        for i in self.word:
            roots.check_node(self.n, i)

    @classmethod
    def _trusted(cls, n: int, word: tuple[int, ...], counts: tuple[int, ...]) -> "LusztigDatum":
        """A datum without the checks, for the moves: they permute checked letters and keep counts >= 0."""
        d = object.__new__(cls)
        d.__dict__.update(n=n, word=word, counts=counts)
        return d


def three_move(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Piecewise-linear transform (a,b,c) -> (b+c-m, m, a+b-m), m = min(a,c)."""
    m = min(a, c)
    return (b + c - m, m, a + b - m)


def two_move(d: LusztigDatum, r: int) -> LusztigDatum:
    """Swap commuting letters (and their counts) at positions r, r+1."""
    w, c = d.word, d.counts
    if not 0 <= r < len(w) - 1:
        raise IndexError("2-move position out of range")
    if abs(w[r] - w[r + 1]) < 2:
        raise NotCommuting(f"letters {w[r]}, {w[r+1]} do not commute")
    w2 = w[:r] + (w[r + 1], w[r]) + w[r + 2:]
    c2 = c[:r] + (c[r + 1], c[r]) + c[r + 2:]
    return LusztigDatum._trusted(d.n, w2, c2)


def apply_three_move(d: LusztigDatum, r: int) -> LusztigDatum:
    """Braid move at the (i,j,i) pattern centered at position r."""
    w, c = d.word, d.counts
    if not 1 <= r < len(w) - 1:
        raise IndexError("3-move position out of range")
    i, j = w[r - 1], w[r]
    if w[r + 1] != i or abs(i - j) != 1:
        raise NotBraidPattern(f"letters {w[r-1:r+2]} are not an (i,j,i) braid pattern")
    a, b, cc = three_move(c[r - 1], c[r], c[r + 1])
    w2 = w[:r - 1] + (j, i, j) + w[r + 2:]
    c2 = c[:r - 1] + (a, b, cc) + c[r + 2:]
    return LusztigDatum._trusted(d.n, w2, c2)


def star_datum(d: LusztigDatum) -> LusztigDatum:
    """Word reversed and starred, counts reversed (dual datum of a w0-word)."""
    if not roots.is_longest_word(d.n, d.word):
        raise NotLongestWord("star duality is defined for reduced words of w0")
    w2 = tuple(roots.star(d.n, i) for i in reversed(d.word))
    return LusztigDatum(d.n, w2, tuple(reversed(d.counts)))


def weight(d: LusztigDatum) -> tuple[int, ...]:
    """Sum of counts[r] * beta_r as a simple-root coefficient vector."""
    betas = roots.inversion_sequence(d.n, d.word)
    v = [0] * (d.n + 1)
    for c, b in zip(d.counts, betas):
        for j in range(b.lo, b.hi + 1):
            v[j] += c * b.sign
    return tuple(v[1:])


# -- vertex-keyed data ---------------------------------------------------


@dataclass(frozen=True)
class Carrier:
    """Named key set for vertex-keyed data: a Gamma window or a V<j>."""

    name: str
    n: int
    kind: str = field(init=False, repr=False, compare=False)  # name before ":"
    arg: int | None = field(init=False, repr=False, compare=False)  # j of vj, delta of gamma-delta

    def __post_init__(self):
        if type(self.n) is not int:  # one comparison: rho_step builds two carriers
            raise NotAnInteger(f"ranks must be integers, got {self.n!r}")
        kind, _, arg = self.name.partition(":")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", int(arg) if kind in ("vj", "gamma-delta") else None)
        if kind in (GAMMA_THETA, GAMMA_BIG_THETA):
            if arg or self.n % 2 == 0 or self.n < 3:
                raise WrongCarrier(f"{self.name!r} needs odd n >= 3")
        elif kind == "vj":
            if self.n % 2 == 0 or self.n < 3:
                raise WrongCarrier(f"{self.name!r} needs odd n >= 3")
            if not (self.n + 1) // 2 <= self.arg <= self.n + 1:
                raise WrongCarrier(f"vj carrier needs j in [n0, n+1], got {self.arg}")
        elif kind == "gamma-delta":
            if self.arg not in (0, 1):
                raise WrongCarrier("gamma-delta carrier needs delta in {0, 1}")
        else:
            raise WrongCarrier(f"unknown carrier {self.name!r}")

    @property
    def n0(self) -> int:
        return (self.n + 1) // 2

    @cached_property
    def slots(self) -> Window:
        """The slot order of data on this carrier: a Gamma window, or V<j> by the row rule."""
        return _vj_window(self.n, self.arg) if self.kind == "vj" else self.height_function().window

    def vertices(self) -> frozenset[Vertex]:
        """The carrier's vertices; a window's iterate as a set built from its (k2, i) reading."""
        return frozenset(self.slots.reading or self.slots.vertices)

    def height_function(self) -> HeightFunction:
        """The window-defining height function, for Gamma carriers."""
        if self.kind == GAMMA_THETA:
            return HeightFunction.theta(self.n0)
        if self.kind == GAMMA_BIG_THETA:
            return HeightFunction.big_theta(self.n0)
        if self.kind == "gamma-delta":
            return HeightFunction.canonical(self.n, self.arg)
        raise WrongCarrier(f"{self.name!r} is not a Gamma carrier")


def _vj_chain(n: int, j: int) -> tuple[Vertex, ...]:
    """Row j of V<j> of rank n, n0 < j <= n+1, by k2: the half-integer chain (j, j - 3/2 + m), m in [0, 2n-2j+1].

    It is empty at j = n+1, where V<n+1> is theta's window."""
    return tuple(Vertex(j, k2) for k2 in range(2 * j - 3, 4 * n - 2 * j, 2))


@lru_cache(maxsize=128)
def _vj_window(n: int, j: int) -> Window:
    """V<j> in slot order (a window at j = n0, n+1): theta's rows below j, the chain, big_theta's rows above j."""
    n0 = (n + 1) // 2
    if j in (n0, n + 1):
        return vj_carrier(n0, j).slots
    theta, big = Carrier(GAMMA_THETA, n).slots, Carrier(GAMMA_BIG_THETA, n).slots
    win = Window.of_rows([*map(theta.vertices.__getitem__, theta.rows[:j]), _vj_chain(n, j),
                          *map(big.vertices.__getitem__, big.rows[j + 1:])])
    if len(win.vertices) != roots.num_positive_roots(n):
        raise InternalError(f"V<{j}> of rank {n} has {len(win.vertices)} vertices, not one per positive root")
    return win


def vj_carrier(n0: int, j: int) -> Carrier:
    n = 2 * n0 - 1
    if j == n0:
        return Carrier(GAMMA_BIG_THETA, n)
    if j == n + 1:
        return Carrier(GAMMA_THETA, n)
    return Carrier(f"vj:{j}", n)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class SlotCounts(Mapping):
    """A datum's counts, read-only: ``vals`` holds the count of each slot of ``slots``, and the zeros are absent."""

    slots: Window
    vals: tuple[int, ...]

    def __getitem__(self, key) -> int:
        c = self.vals[self.slots.slot[key]]
        if not c:
            raise KeyError(key)
        return c

    def __iter__(self):
        return compress(self.slots.vertices, self.vals)

    def __len__(self) -> int:
        return len(self.vals) - self.vals.count(0)

    def items(self) -> ItemsView:
        return _SlotItems(self)


class _SlotItems(ItemsView):
    def __iter__(self):
        return compress(zip(self._mapping.slots.vertices, self._mapping.vals), self._mapping.vals)


@dataclass(frozen=True)
class VertexDatum:
    carrier: Carrier
    counts: Mapping[Vertex, int] = field(default_factory=dict)  # stored as the SlotCounts of the carrier's slots

    def __post_init__(self):
        carrier, counts, at = self.carrier, dict(self.counts), self.carrier.slots.slot
        if not counts.keys() <= at.keys():
            bad = [v for v in counts if v not in at]
            raise WrongCarrier(f"keys {bad[:3]} outside carrier {carrier.name}")
        exact_ints("counts", counts.values())
        if counts and min(counts.values()) < 0:
            raise ValueError("counts must be nonnegative")
        vals = [0] * len(at)
        for s, c in zip(map(at.__getitem__, counts), counts.values()):
            vals[s] = c
        object.__setattr__(self, "counts", SlotCounts(carrier.slots, tuple(vals)))

    @classmethod
    def _trusted(cls, carrier: Carrier, vals: tuple[int, ...]) -> "VertexDatum":
        """A datum on one count >= 0 per slot of the carrier: no check."""
        d = object.__new__(cls)
        d.__dict__.update(carrier=carrier, counts=SlotCounts(carrier.slots, vals))
        return d

    def get(self, v: Vertex) -> int:
        return self.counts.get(v, 0)

    def nonzero(self) -> dict[Vertex, int]:
        return dict(sorted(self.counts.items()))


def unit_datum(carrier: Carrier, points: Sequence[Vertex]) -> VertexDatum:
    """e(P): indicator datum of a vertex sequence (multiplicities add)."""
    return VertexDatum(carrier, Counter(points))


class _Layer(NamedTuple):
    """One step rho_<j> on work slots: it reads V<j>'s rows j, j+1 and writes V<j+1>'s."""

    triples: tuple[tuple[int, int, int, int, int, int], ...]  # 3-moves (a, b, c) -> (x, y, z)
    moves: tuple[tuple[int, int], ...]  # (source, target) boundary shifts of row j
    entry: tuple[slice, ...]  # the work slots of rows j, j+1 of V<j>, in its slot order
    exit: tuple[slice, ...]  # the work slots of rows j, j+1 of V<j+1>, in its slot order
    rows: slice  # the slots of rows j, j+1 in V<j> and in V<j+1>


class _Plan(NamedTuple):
    keys: tuple[Vertex, ...]  # the vertex of each work slot
    layers: tuple[_Layer, ...]  # rho_<n0>, ..., rho_<n>
    entry: tuple[slice, ...]  # the work slots of big_theta's rows >= n0, read by the composite
    exit: tuple[slice, ...]  # the work slots of theta's rows >= n0, written by the composite
    rows: slice  # the slots of rows >= n0 in both windows
    big_theta: Carrier  # V<n0>
    theta: Carrier  # V<n+1>


@lru_cache(maxsize=16)
def _layer_plan(n: int) -> _Plan:
    """The steps rho_<n0>, ..., rho_<n> of rank n on work slots, each checked once on its two rows.

    Each row >= n0 of each carrier is a run of work slots, by k2: big_theta's
    rows, theta's rows, then each chain as its layer is met.  The carrier's
    rows start as big_theta's, and each layer replaces rows j, j+1 with
    those of V<j+1>, which start at the same slot of V<j> and of V<j+1>.
    """
    n0 = (n + 1) // 2
    big, theta = Carrier(GAMMA_BIG_THETA, n), Carrier(GAMMA_THETA, n)
    below = lo = theta.slots.rows[n0].start  # the first slot of row n0 in both windows, and then of row j
    if big.slots.vertices[:big.slots.rows[n0].start] != theta.slots.vertices[:below]:  # no layer touches these rows
        raise InternalError(f"the windows of rank {n} differ below row {n0}")
    slots: dict[Vertex, int] = {}

    def number(verts: Sequence[Vertex]) -> range:
        lo = len(slots)
        slots.update(zip(verts, count(lo)))
        if len(slots) != lo + len(verts):
            raise InternalError(f"rho of rank {n} numbers a vertex twice")
        return range(lo, len(slots))

    span = [range(0)] * n0 + [number(big.slots.vertices[r]) for r in big.slots.rows[n0:]]  # V<n0>
    theta_span = [number(theta.slots.vertices[r]) for r in theta.slots.rows[n0:]]
    at = slots.get  # work slot of the vertex (i, k2) by plain tuple; None off the numbered rows fails the check
    entry, layers = _runs(span[n0:]), []
    for j in range(n0, n + 1):
        src, src_runs = {*span[j], *span[j + 1]}, _runs(span[j:j + 2])
        rows = slice(lo, lo + len(src))
        span[j], span[j + 1] = theta_span[j - n0], number(_vj_chain(n, j + 1))
        lo += len(span[j])
        triples = tuple(
            (
                at((j, 2 * j + 4 * r - 1)), at((j + 1, 2 * j + 4 * r)), at((j, 2 * j + 4 * r + 1)),
                at((j + 1, 2 * j + 4 * r - 1)), at((j, 2 * j + 4 * r)), at((j + 1, 2 * j + 4 * r + 1)),
            )
            for r in range(0, n - j)
        )
        # leftover boundary keys of row j reshift by -+1/2
        moves = ((at((j, 2 * j - 3)), at((j, 2 * j - 4))),) if j > n0 else ()
        moves += ((at((j, 4 * n - 2 * j - 1)), at((j, 2 * (2 * n - j)))),)
        layer = _Layer(triples, moves, src_runs, _runs(span[j:j + 2]), rows)
        _check_layer(n0, j, layer, src, {*span[j], *span[j + 1]})
        layers.append(layer)
    return _Plan(tuple(slots), tuple(layers), entry, _runs(span[n0:]), slice(below, lo), big, theta)


def _runs(spans: Iterable[range]) -> tuple[slice, ...]:
    """The nonempty ranges as slices, adjacent ones merged."""
    runs: list[slice] = []
    for r in filter(None, spans):
        if runs and runs[-1].stop == r.start:
            runs[-1] = slice(runs[-1].start, r.stop)
        else:
            runs.append(slice(r.start, r.stop))
    return tuple(runs)


def _check_layer(n0: int, j: int, layer: _Layer, src_rows: AbstractSet[int], dst_rows: AbstractSet[int]) -> None:
    """Raise InternalError unless the layer, run in place, maps src_rows onto dst_rows.

    src_rows and dst_rows are the slots of rows j, j+1 of V<j> and of V<j+1>.
    The layer must read each slot of src_rows once, write each slot of
    dst_rows once and read no slot it writes; it carries every other row.
    """
    reads = [s for t in layer.triples for s in t[:3]] + [s for s, _ in layer.moves]
    writes = [s for t in layer.triples for s in t[3:]] + [t for _, t in layer.moves]
    if (
        len(reads) != len(src_rows) or set(reads) != src_rows
        or len(writes) != len(dst_rows) or set(writes) != dst_rows
        or not src_rows.isdisjoint(dst_rows)
    ):
        raise InternalError(f"rho layer {j} of rank {2 * n0 - 1} does not map V<{j}> onto V<{j + 1}>")


def _transport(size: int, layers: Sequence[_Layer], step: _Layer | _Plan, vals: tuple[int, ...]) -> tuple[int, ...]:
    """vals with the slots of step.rows run through the layers, from step.entry's work slots to step.exit's.

    A triple whose reads are all 0 writes nothing: each work slot is written once and starts at 0."""
    work, at = [0] * size, step.rows.start
    for run in step.entry:
        work[run] = vals[at:at + run.stop - run.start]
        at += run.stop - run.start
    for layer in layers:
        for a, b, c, x, y, z in layer.triples:
            ca, cb, cc = work[a], work[b], work[c]
            if ca or cb or cc:
                m = ca if ca < cc else cc  # three_move, inlined
                work[x], work[y], work[z] = cb + cc - m, m, ca + cb - m
        for s, t in layer.moves:
            work[t] = work[s]
    moved = sum(map(work.__getitem__, step.exit), [])  # one or two runs
    return vals[:step.rows.start] + tuple(moved) + vals[step.rows.stop:]


def rho_step(j: int, d: VertexDatum) -> VertexDatum:
    """One 3-move layer rho_<j>: data on V<j> -> data on V<j+1>."""
    n = d.carrier.n
    n0 = (n + 1) // 2
    if not n0 <= j <= n:
        raise WrongCarrier(f"rho step index {j} outside [n0, n]")
    carrier = vj_carrier(n0, j)
    if d.carrier != carrier and d.carrier.slots.vertices != carrier.slots.vertices:
        raise WrongCarrier(f"datum carrier {d.carrier.name} is not V<{j}>")
    plan = _layer_plan(n)
    layer = plan.layers[j - n0]
    return VertexDatum._trusted(vj_carrier(n0, j + 1), _transport(len(plan.keys), (layer,), layer, d.counts.vals))


def rho(d: VertexDatum) -> VertexDatum:
    """Transport twisted-adapted data to untwisted-adapted data.

    Composite rho_<n> o ... o rho_<n0> from the big_theta window to the
    theta window; satisfies B^Theta(c) = B^theta(rho(c)).
    """
    have, plan = d.carrier.slots.vertices, _layer_plan(d.carrier.n)
    want = plan.big_theta.slots.vertices
    if have is not want and have != want:  # the shared window is not compared with itself
        raise WrongCarrier("rho expects a datum on the big_theta window")
    return VertexDatum._trusted(plan.theta, _transport(len(plan.keys), plan.layers, plan, d.counts.vals))


# -- JSON round-trip -----------------------------------------------------


def datum_to_json(d: VertexDatum) -> dict:
    entries = [{"i": v.i, "k2": v.k2, "c": c} for v, c in sorted(d.counts.items(), key=lambda t: (t[0].k2, t[0].i))]
    return {"carrier": d.carrier.name, "entries": entries}


def datum_from_json(obj: Mapping, n: int) -> VertexDatum:
    carrier = Carrier(str(obj["carrier"]), n)
    counts: Counter[Vertex] = Counter()
    for e in obj["entries"]:
        counts[Vertex(json_int(e["i"]), json_int(e["k2"]))] += json_int(e["c"])
    return VertexDatum(carrier, counts)
