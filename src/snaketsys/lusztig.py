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

The steps do not depend on the datum, so each rank has one cached plan.
Rows j and j+1 of V<j> and of V<j+1> fill the same slots of a datum, from
the first slot of theta's row j on, since the rows below are theta's and
those above are big_theta's in both carriers.  Each layer is checked once
on its two rows: O(n) per layer, O(n^2) per rank, and no intermediate
carrier is built.  The checked layers are then compiled into a program
that works in place on one copy of the datum's slots, its cells.  The
triples of a layer read disjoint cells, so each 3-move writes its three
results back into the three cells it read; a boundary shift only changes
which vertex a cell holds, and costs nothing at run time.  One gather at
the end puts the moved cells, from the first slot of theta's row n0 on,
into the target's slot order.  rho runs the program of the whole rank and
rho_step(j) that of layer j, through one kernel that allocates nothing
per layer and hashes no key.  The plan check proves the rows written and
3-moves keep counts nonnegative, so only the input's carrier is checked.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, count
from operator import itemgetter
from typing import NamedTuple, Sequence

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
    """One step rho_<j>: it reads rows j, j+1 of V<j> at their datum slots and writes V<j+1>'s at offsets.

    The two rows of either carrier fill the slots lo, ..., lo+size-1 of its
    data, so the offsets 0, ..., size-1 land on those slots."""

    lo: int  # the first slot of row j, in V<j> and in V<j+1>
    size: int  # the slots of rows j, j+1, as many in both
    triples: tuple[tuple[int, int, int, int, int, int], ...]  # 3-moves: slots (a, b, c) -> offsets (x, y, z)
    moves: tuple[tuple[int, int], ...]  # (slot, offset) boundary shifts of row j


class _Program(NamedTuple):
    """What the kernel runs: 3-moves in place on cells, then a gather of the run lo, ..., lo+len(gather)-1."""

    cells: tuple[tuple[int, int, int], ...]  # each 3-move reads and then writes the cells (a, b, c)
    lo: int  # the first slot the gather writes; no cell below it is read or written
    gather: tuple[int, ...]  # the cell that holds the target's slot lo+o, after the 3-moves


class _Plan(NamedTuple):
    layers: tuple[_Layer, ...]  # rho_<n0>, ..., rho_<n>
    big_theta: Carrier  # V<n0>
    theta: Carrier  # V<n+1>
    program: _Program  # rho: every layer, composed
    steps: tuple[_Program, ...]  # rho_<j>: layer j alone, in the slots of V<j>


@lru_cache(maxsize=16)
def _layer_plan(n: int) -> _Plan:
    """The steps rho_<n0>, ..., rho_<n> of rank n, each checked once on its two rows, and their programs.

    Rows j and j+1 of V<j> and of V<j+1> start at lo, the first slot of
    theta's row j: the rows below are theta's and the rows above are
    big_theta's in both carriers.  Row j of V<j> is big_theta's row n0 at
    j = n0 and the chain above it; V<j+1>'s rows are theta's row j and the
    next chain.
    """
    n0 = (n + 1) // 2
    big, theta = Carrier(GAMMA_BIG_THETA, n), Carrier(GAMMA_THETA, n)
    bw, tw = big.slots, theta.slots
    if bw.vertices[:bw.rows[n0].start] != tw.vertices[:tw.rows[n0].start]:  # no layer touches these rows
        raise InternalError(f"the windows of rank {n} differ below row {n0}")
    row, layers = bw.vertices[bw.rows[n0]], []  # row j of V<j>
    for j in range(n0, n + 1):
        lo, src, nxt = tw.rows[j].start, row + bw.vertices[bw.rows[j + 1]], _vj_chain(n, j + 1)
        dst = tw.vertices[tw.rows[j]] + nxt
        if len(src) != len(dst):
            raise InternalError(f"rows {j}, {j + 1} of V<{j}> and V<{j + 1}> of rank {n} differ in size")
        # datum slot of V<j>'s vertex (i, k2), and offset of V<j+1>'s, by plain tuple; None off the rows fails the check
        at, to = dict(zip(src, count(lo))).get, dict(zip(dst, count())).get
        triples = tuple(
            (
                at((j, 2 * j + 4 * r - 1)), at((j + 1, 2 * j + 4 * r)), at((j, 2 * j + 4 * r + 1)),
                to((j + 1, 2 * j + 4 * r - 1)), to((j, 2 * j + 4 * r)), to((j + 1, 2 * j + 4 * r + 1)),
            )
            for r in range(0, n - j)
        )
        # leftover boundary keys of row j reshift by -+1/2
        moves = ((at((j, 2 * j - 3)), to((j, 2 * j - 4))),) if j > n0 else ()
        moves += ((at((j, 4 * n - 2 * j - 1)), to((j, 2 * (2 * n - j)))),)
        layer = _Layer(lo, len(dst), triples, moves)
        _check_layer(n0, j, layer)
        layers.append(layer)
        row = nxt
    plan = _Plan(tuple(layers), big, theta, *_compile(layers, len(tw.vertices)))
    for program in (plan.program, *plan.steps):
        _check_program(n, program)
    return plan


def _check_layer(n0: int, j: int, layer: _Layer) -> None:
    """Raise InternalError unless the layer reads each slot of its rows once and writes each offset once.

    A vertex off the two rows has no slot or offset (None), so a layer
    that moves one fails too; the layer carries every other row."""
    lo, size, triples, moves = layer
    reads = [s for t in triples for s in t[:3]] + [s for s, _ in moves]
    writes = [s for t in triples for s in t[3:]] + [t for _, t in moves]
    for got, want in ((reads, range(lo, lo + size)), (writes, range(size))):
        if len(got) != size or set(got) != set(want):  # size entries that fill size places: each place once
            raise InternalError(f"rho layer {j} of rank {2 * n0 - 1} does not map V<{j}> onto V<{j + 1}>")


def _compile(layers: Sequence[_Layer], slots: int) -> tuple[_Program, tuple[_Program, ...]]:
    """The programs of the checked layers: all of them composed, and each alone.

    Alone, a layer's 3-moves work on the slots they read, and its gather
    takes offset x from the cell a that the 3-move writing x read, and a
    boundary shift's offset from the slot it read.  Composed, held[s] is
    the cell that holds slot s of the current V<j>: a layer's 3-moves work
    on the cells of its slots, and its gather only relabels them.  The
    layers move the slots from theta's row n0 on, so rho's gather is that
    tail of held."""
    held, cells, steps = list(range(slots)), [], []
    for lo, size, triples, moves in layers:
        gather, own = [0] * size, []
        for a, b, c, x, y, z in triples:
            gather[x], gather[y], gather[z] = a, b, c
            own.append((a, b, c))
            cells.append((held[a], held[b], held[c]))
        for s, t in moves:
            gather[t] = s
        steps.append(_Program(tuple(own), lo, tuple(gather)))
        held[lo:lo + size] = [held[s] for s in gather]
    lo = layers[0].lo
    return _Program(tuple(cells), lo, tuple(held[lo:])), tuple(steps)


def _check_program(n: int, program: _Program) -> None:
    """Raise InternalError unless the program keeps to its run of slots lo, ..., lo+len(gather)-1.

    Each 3-move reads three distinct cells of the run, and the gather is a
    permutation of the run with at least 2 entries (itemgetter of one index
    returns the item, not a tuple), so the slots below lo keep their counts."""
    cells, lo, gather = program
    run = range(lo, lo + len(gather))
    if len(run) < 2 or sorted(gather) != list(run) or not all(
        a != b != c != a and a in run and b in run and c in run for a, b, c in cells
    ):
        raise InternalError(f"a rho program of rank {n} does not keep to its run of slots from {lo}")


def _transport(
    cells: Sequence[tuple[int, int, int]], lo: int, gather: Sequence[int], vals: tuple[int, ...]
) -> tuple[int, ...]:
    """vals run through a program: each 3-move writes back into the cells it read, then one gather of the run from lo.

    A 3-move whose reads are all 0 writes 0s back, so it is skipped."""
    work = list(vals)
    for a, b, c in cells:
        ca, cb, cc = work[a], work[b], work[c]
        if ca or cb or cc:
            m = ca if ca < cc else cc  # three_move, inlined
            work[a], work[b], work[c] = cb + cc - m, m, ca + cb - m
    work[lo:lo + len(gather)] = itemgetter(*gather)(work)
    return tuple(work)


def rho_step(j: int, d: VertexDatum) -> VertexDatum:
    """One 3-move layer rho_<j>: data on V<j> -> data on V<j+1>."""
    n = d.carrier.n
    n0 = (n + 1) // 2
    if not n0 <= j <= n:
        raise WrongCarrier(f"rho step index {j} outside [n0, n]")
    carrier = vj_carrier(n0, j)
    if d.carrier != carrier and d.carrier.slots.vertices != carrier.slots.vertices:
        raise WrongCarrier(f"datum carrier {d.carrier.name} is not V<{j}>")
    return VertexDatum._trusted(vj_carrier(n0, j + 1), _transport(*_layer_plan(n).steps[j - n0], d.counts.vals))


def rho(d: VertexDatum) -> VertexDatum:
    """Transport twisted-adapted data to untwisted-adapted data.

    Composite rho_<n> o ... o rho_<n0> from the big_theta window to the
    theta window; satisfies B^Theta(c) = B^theta(rho(c)).
    """
    have, plan = d.carrier.slots.vertices, _layer_plan(d.carrier.n)
    want = plan.big_theta.slots.vertices
    if have is not want and have != want:  # the shared window is not compared with itself
        raise WrongCarrier("rho expects a datum on the big_theta window")
    return VertexDatum._trusted(plan.theta, _transport(*plan.program, d.counts.vals))


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
