import hashlib
import importlib
import json
import pkgutil
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snaketsys
from snaketsys import lusztig, reineke
from snaketsys.realize import Monomial, Realization
from snaketsys.errors import (
    DomainError,
    InternalError,
    NotAnInteger,
    NotBraidPattern,
    NotCommuting,
    NotLongestWord,
    WrongCarrier,
)
from snaketsys.lusztig import (
    GAMMA_BIG_THETA,
    GAMMA_THETA,
    Carrier,
    LusztigDatum,
    VertexDatum,
    apply_three_move,
    datum_from_json,
    datum_to_json,
    rho,
    rho_step,
    star_datum,
    three_move,
    two_move,
    unit_datum,
    vj_carrier,
    weight,
)
from snaketsys.quivers import HeightFunction, Vertex


def test_three_move_table():
    assert three_move(1, 0, 0) == (0, 0, 1)
    assert three_move(0, 0, 1) == (1, 0, 0)
    assert three_move(0, 1, 0) == (1, 0, 1)
    assert three_move(1, 0, 1) == (0, 1, 0)
    assert three_move(0, 0, 0) == (0, 0, 0)


def test_three_move_involution():
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (rng.randint(0, 9) for _ in range(3))
        assert three_move(*three_move(a, b, c)) == (a, b, c)


def test_two_move():
    d = LusztigDatum(4, (1, 3, 2), (5, 7, 1))
    d2 = two_move(d, 0)
    assert d2.word == (3, 1, 2) and d2.counts == (7, 5, 1)
    assert two_move(d2, 0) == d
    with pytest.raises(NotCommuting):
        two_move(d, 1)


def test_apply_three_move():
    d = LusztigDatum(2, (1, 2, 1), (1, 0, 0))
    d2 = apply_three_move(d, 1)
    assert d2.word == (2, 1, 2) and d2.counts == (0, 0, 1)
    assert apply_three_move(d2, 1) == d
    assert apply_three_move(LusztigDatum(2, (1, 2, 1), (0, 0, 0)), 1).counts == (0, 0, 0)
    with pytest.raises(NotBraidPattern):
        apply_three_move(LusztigDatum(3, (1, 2, 3), (0, 0, 0)), 1)


def _random_move(d, rng):
    """A random 2- or 3-move of d."""
    twos = [r for r in range(len(d.word) - 1) if abs(d.word[r] - d.word[r + 1]) >= 2]
    threes = [r for r in range(1, len(d.word) - 1)
              if d.word[r - 1] == d.word[r + 1] and abs(d.word[r] - d.word[r - 1]) == 1]
    kind, r = rng.choice([("2", r) for r in twos] + [("3", r) for r in threes])
    return two_move(d, r) if kind == "2" else apply_three_move(d, r)


def test_weight_conserved_on_walk():
    rng = random.Random(3)
    _, word = HeightFunction.canonical(4, 0).compatible_reading()
    d = LusztigDatum(4, word, tuple(rng.randint(0, 5) for _ in word))
    w0 = weight(d)
    for _ in range(100):
        d = _random_move(d, rng)
    assert weight(d) == w0


def test_move_results_pass_the_public_datum_check():
    # the moves build their results unchecked (a move permutes checked
    # letters, a 3-move keeps counts nonnegative): rebuild each through the
    # checking constructor, on sparse and dense counts
    rng = random.Random(9)
    for n in (2, 3, 4, 5, 6):
        _, word = HeightFunction.canonical(n, n % 2).compatible_reading()
        for hi in (1, 9):
            d = LusztigDatum(n, word, tuple(rng.randint(0, hi) for _ in word))
            for _ in range(150):
                d = _random_move(d, rng)
                assert LusztigDatum(d.n, d.word, d.counts) == d
                assert type(d.word) is tuple and type(d.counts) is tuple


def test_star_datum():
    d = LusztigDatum(2, (1, 2, 1), (3, 5, 7))
    s = star_datum(d)
    assert s.word == (2, 1, 2) and s.counts == (7, 5, 3)
    assert star_datum(s) == d
    with pytest.raises(NotLongestWord):
        star_datum(LusztigDatum(2, (1, 2), (0, 0)))


def test_vj_sizes():
    for n0 in (2, 3, 4, 5):
        n = 2 * n0 - 1
        for j in range(n0, n + 2):
            assert len(vj_carrier(n0, j).vertices()) == n * (n + 1) // 2


def test_vj_carriers_match_window_reference():
    # V<j> takes theta's window below row j and big_theta's above it; its
    # row j is the 2n - 2j + 2 half-integer points strictly inside theta's
    # row j.  V<n0> and V<n+1> are the two windows themselves.
    for n0 in range(2, 13):
        n = 2 * n0 - 1
        theta = HeightFunction.theta(n0).gamma_vertices()
        big = HeightFunction.big_theta(n0).gamma_vertices()
        assert vj_carrier(n0, n0).vertices() == set(big)
        assert vj_carrier(n0, n + 1).vertices() == set(theta)
        for j in range(n0 + 1, n + 1):
            row = [v.k2 for v in theta if v.i == j]
            middle = {Vertex(j, k2) for k2 in range(min(row) + 1, max(row), 2)}
            assert len(middle) == 2 * n - 2 * j + 2
            want = {v for v in theta if v.i < j} | middle | {v for v in big if v.i > j}
            assert vj_carrier(n0, j).vertices() == want


def test_carrier_cache_holds_gamma_windows_only():
    # rho reads the two Gamma windows of each rank, kept on theta and
    # big_theta, and builds no intermediate V<j> window
    from snaketsys.lusztig import _layer_plan, _vj_window

    shared = (HeightFunction.theta, HeightFunction.big_theta)
    for cache in (_vj_window, _layer_plan, *shared):
        cache.cache_clear()
    ranks = (7, 15, 31)
    for n in ranks:
        rho(VertexDatum(Carrier(GAMMA_BIG_THETA, n), {}))
    assert _vj_window.cache_info().currsize == 0
    info = [cache.cache_info() for cache in shared]
    assert [i.currsize for i in info] == [len(ranks)] * 2
    # the windows rho read are exactly the two height functions' windows of each rank
    for n in ranks:
        plan, n0 = _layer_plan(n), (n + 1) // 2
        assert plan.theta.slots is HeightFunction.theta(n0).window
        assert plan.big_theta.slots is HeightFunction.big_theta(n0).window
    assert [cache.cache_info().misses for cache in shared] == [i.misses for i in info]
    with pytest.raises(WrongCarrier):
        Carrier("vj:5", 7).height_function()


def _lru_caches() -> dict:
    """Every lru_cache of the snaketsys modules, module-level or on a class, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(snaketsys.__path__):
        mod = importlib.import_module(f"snaketsys.{info.name}")
        for name, val in vars(mod).items():
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            members = [(f"{name}.{attr}", getattr(val, attr)) for attr in vars(val)] if isinstance(val, type) else []
            for qual, fn in [(name, val), *members]:
                if hasattr(fn, "cache_info"):
                    found[f"{info.name}.{qual}"] = fn
    return found


# distinct valid keys of each cache, as many as asked for
_CACHE_KEYS = {
    "quivers.HeightFunction.canonical": lambda k: [(n, d) for n in range(1, k + 1) for d in (0, 1)][:k],
    "quivers.HeightFunction.theta": lambda k: [(n0,) for n0 in range(1, k + 1)],
    "quivers.HeightFunction.big_theta": lambda k: [(n0,) for n0 in range(2, k + 2)],
    "quivers._row_heights": lambda k: [(n, None) for n in range(1, k + 1)],
    "reineke.omega": lambda k: [(n, j) for n in range(1, k + 1) for j in range(1, n + 1)][:k],
    "lusztig._layer_plan": lambda k: [(n,) for n in range(3, 2 * k + 3, 2)],
    "lusztig._vj_window": lambda k: [(n, j) for n in range(3, 2 * k + 3, 2) for j in range((n + 1) // 2, n + 2)][:k],
}


def test_cache_census():
    # the library's lru_caches are exactly these; each is bounded and fills
    # to its bound on distinct keys, so no cache grows with its callers.
    # The Gamma windows live on their height functions, and a V<j> is
    # built once per (n, j) and shared by its carriers.
    caches = _lru_caches()
    assert sorted(caches) == sorted(_CACHE_KEYS)
    for name, cache in caches.items():
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None, name
        cache.cache_clear()
        keys = _CACHE_KEYS[name](maxsize + 1)
        assert len(set(keys)) == maxsize + 1
        for key in keys:
            cache(*key)
        assert cache.cache_info().currsize == maxsize, name
    assert Carrier("vj:5", 7).slots is Carrier("vj:5", 7).slots


def test_each_height_function_builds_its_window_once():
    # the window, its slot map and its roots are built once per height
    # function and shared by every reader: its carriers, phi_map and phi;
    # it holds only tuples (of vertices and of row slices) and read-only maps
    from types import MappingProxyType

    from snaketsys.quivers import Window, phi_map

    fresh = [HeightFunction.untwisted([2, 1, 2, 3, 4]), HeightFunction.twisted((-2, 0, -1, 2, 4), 3)]
    carriers = [(HeightFunction.theta(4), Carrier(GAMMA_THETA, 7)), (HeightFunction.big_theta(4), Carrier(GAMMA_BIG_THETA, 7))]
    carriers += [(HeightFunction.canonical(5, delta), Carrier(f"gamma-delta:{delta}", 5)) for delta in (0, 1)]
    for hf in fresh + [hf for hf, _ in carriers]:
        win = hf.window
        assert type(win) is Window and hf.window is win and phi_map(hf) is phi_map(hf) is win.phi
        assert hf.gamma_vertices() is win.reading and hf.compatible_reading()[0] is win.reading
        assert win.slot is win.slot
        assert type(win.vertices) is type(win.reading) is type(win.rows) is tuple
        assert {type(v) for v in win.vertices + win.reading} == {Vertex} and {type(r) for r in win.rows} == {slice}
        assert type(win.slot) is type(win.phi) is MappingProxyType
        assert set(vars(win)) == {"vertices", "rows", "reading", "slot", "phi"}
        with pytest.raises(TypeError):
            win.slot[win.vertices[0]] = 0
    for hf, carrier in carriers:
        assert carrier.slots is hf.window and Carrier(carrier.name, carrier.n).slots is hf.window
    assert vj_carrier(4, 4).slots is HeightFunction.big_theta(4).window
    assert vj_carrier(4, 8).slots is HeightFunction.theta(4).window


def test_carrier_validation():
    with pytest.raises(WrongCarrier):
        Carrier("vj:1", 3)  # below n0
    with pytest.raises(WrongCarrier):
        Carrier(GAMMA_THETA, 4)  # needs odd n
    with pytest.raises(WrongCarrier):
        VertexDatum(Carrier(GAMMA_THETA, 3), {Vertex(1, 1): 1})  # off-carrier key


@pytest.mark.parametrize("name,n", [("vj:1", 1), ("vj:2", 1), ("vj:3", 1), ("vj:2", 2), ("vj:3", 4), ("vj:0", 1)])
def test_vj_carrier_needs_odd_rank_at_least_3(name, n):
    # as the window kinds do, V<j> asks for odd n >= 3 when it is built, so a
    # rank-1 V<j> is refused up front and no later use names another carrier
    with pytest.raises(WrongCarrier) as exc:
        Carrier(name, n)
    assert str(exc.value) == f"{name!r} needs odd n >= 3"


def test_vertex_datum_checks_keys_before_signs():
    # off-carrier keys are named, the first three in insertion order, before
    # any count is looked at; a negative count is a ValueError, a zero is dropped
    carrier = Carrier(GAMMA_THETA, 7)
    inside = sorted(carrier.vertices())[:2]
    off = [Vertex(2, 99), Vertex(1, 1), Vertex(7, -8), Vertex(3, 0)]
    counts = {inside[0]: 1, off[0]: 1, off[1]: 2, inside[1]: 0, off[2]: 3, off[3]: 4}
    with pytest.raises(WrongCarrier) as exc:
        VertexDatum(carrier, counts)
    assert str(exc.value) == f"keys {off[:3]} outside carrier {GAMMA_THETA}"
    with pytest.raises(WrongCarrier):
        VertexDatum(carrier, {inside[0]: -1, off[0]: -1})
    with pytest.raises(ValueError, match="counts must be nonnegative") as exc:
        VertexDatum(carrier, {inside[0]: 0, inside[1]: -1})
    assert not isinstance(exc.value, WrongCarrier)
    zeros = VertexDatum(carrier, {v: 0 for v in carrier.vertices()})
    assert zeros.counts == {} and zeros == VertexDatum(carrier, {})


def test_vertex_datum_counts_are_a_read_only_copy():
    # the constructor checks a copy of the caller's counts and stores it
    # read-only, so no one can change a checked datum; rho and rho_step
    # return read-only counts too
    carrier = Carrier(GAMMA_BIG_THETA, 7)
    v, w = sorted(carrier.vertices())[:2]
    counts = {v: 2}
    d = VertexDatum(carrier, counts)
    counts[v], counts[Vertex(1, 1)] = -3, 1
    assert dict(d.counts) == {v: 2} and d.get(v) == 2
    for datum in (d, rho(d), rho_step(4, d)):
        with pytest.raises(TypeError):
            datum.counts[w] = 1
        with pytest.raises(TypeError):
            del datum.counts[next(iter(datum.counts))]
    assert rho(d) == rho(VertexDatum(carrier, {v: 2}))


def test_vertex_datum_keys_are_the_carriers_own_vertices():
    # the stored keys are the carrier's Vertex objects, whatever the caller
    # passed: two data on one window share them, and a plain (i, k2) key is
    # stored as a Vertex, so JSON output and epsilon* read it
    for carrier in (Carrier("gamma-delta:0", 3), Carrier(GAMMA_BIG_THETA, 7), Carrier(GAMMA_THETA, 7)):
        own = {v: v for v in carrier.vertices()}
        a = VertexDatum(carrier, {Vertex(*v): 1 for v in own})
        b = VertexDatum(carrier, {tuple(v): 2 for v in own})
        assert len(a.counts) == len(b.counts) == len(own)
        for ka, kb in zip(sorted(a.counts), sorted(b.counts)):
            assert ka is kb is own[ka] and type(kb) is Vertex
        assert unit_datum(carrier, [Vertex(*v) for v in own]) == a
    d = VertexDatum(Carrier("gamma-delta:0", 3), {(1, 4): 3, (2, 2): 1})
    assert d.counts == {Vertex(1, 4): 3, Vertex(2, 2): 1} and {type(v) for v in d.counts} == {Vertex}
    entries = [{"i": 2, "k2": 2, "c": 1}, {"i": 1, "k2": 4, "c": 3}]
    assert datum_to_json(d) == {"carrier": "gamma-delta:0", "entries": entries}
    assert [reineke.epsilon_star(j, d) for j in (1, 2, 3)] == [1, 0, 4]  # epsilon_j of the built dual datum
    assert datum_from_json(datum_to_json(d), 3) == d


def test_vj_datum_keys_are_vertices_of_its_carrier():
    # a V<j> carrier builds its vertices, and its key index, per call
    carrier = Carrier("vj:5", 7)
    verts = carrier.vertices()
    d = VertexDatum(carrier, {tuple(v): 1 for v in verts})
    assert d.counts.keys() == verts and {type(v) for v in d.counts} == {Vertex}
    assert rho_step(5, d) == rho_step(5, VertexDatum(carrier, {v: 1 for v in verts}))


def test_counts_view_keeps_the_mapping_contract():
    # a datum's counts is a read-only Mapping that equals the dict of its
    # support: == both ways, dict() round-trips, a zero or off-carrier key
    # is a KeyError, an unhashable key and every write a TypeError, len is
    # the support's size, and iteration (in the carrier's slot order)
    # yields the carrier's own Vertex objects, for rho's and rho_step's
    # results too.  The windows start cold, so a carrier's vertex set is
    # checked to be built from its slot order's objects.
    for cache in (HeightFunction.canonical, HeightFunction.theta, HeightFunction.big_theta):
        cache.cache_clear()
    rng = random.Random(24)

    def own_keys(d):
        keys = d.carrier.slots.vertices
        assert all(v is w for v, w in zip(d.counts, (k for k in keys if k in d.counts)))
        own = {v: v for v in d.carrier.vertices()}
        assert all(v is own[v] and type(v) is Vertex for v in d.counts)
        return True

    for name, n in ((GAMMA_BIG_THETA, 7), (GAMMA_THETA, 7), ("gamma-delta:0", 5), ("gamma-delta:1", 5), ("vj:5", 7)):
        carrier = Carrier(name, n)
        verts = sorted(carrier.vertices())
        support = {v: rng.randint(1, 9) for v in verts if rng.random() < 0.4}
        zero = next(v for v in verts if v not in support)
        d = VertexDatum(carrier, {zero: 0} | {tuple(v): c for v, c in support.items()})
        assert d.counts == support and support == d.counts and d.counts != support | {zero: 1}
        assert dict(d.counts) == support and type(dict(d.counts)) is dict and VertexDatum(carrier, dict(d.counts)) == d
        assert len(d.counts) == len(support) == len(list(d.counts)) == len(d.counts.items())
        assert list(d.counts) == [v for v in verts if v in support] and own_keys(d)
        for key in (zero, tuple(zero), Vertex(n + 1, 0), (0, 0), "key"):
            with pytest.raises(KeyError):
                d.counts[key]
            assert key not in d.counts and d.counts.get(key) is None and d.get(key) == 0
        for v, c in support.items():
            assert d.counts[v] == d.counts[tuple(v)] == d.get(v) == c and tuple(v) in d.counts
        with pytest.raises(TypeError):
            d.counts[[1, 2]]
        for key in (zero, verts[0], [1, 2]):
            with pytest.raises(TypeError):
                d.counts[key] = 1
            with pytest.raises(TypeError):
                del d.counts[key]
        if carrier.kind == "vj":
            assert own_keys(rho_step(carrier.arg, d))
        elif name == GAMMA_BIG_THETA:
            assert own_keys(rho(d))
            for j in range(4, 8):
                d = rho_step(j, d)
                assert own_keys(d)


@pytest.mark.parametrize(
    "bad", [1.5, 2.0, True, False, Fraction(1), Fraction(3, 2), "1", None],
    ids=["float", "integral-float", "true", "false", "integral-fraction", "fraction", "string", "none"],
)
def test_vertex_datum_counts_must_be_ints(bad):
    # floats, bools and Fractions are no counts, even when integral; the
    # error is a DomainError (so a ValueError) naming the value
    carrier = Carrier(GAMMA_BIG_THETA, 7)
    v, w = sorted(carrier.vertices())[:2]
    with pytest.raises(NotAnInteger, match=f"counts must be integers, got {re.escape(repr(bad))}") as exc:
        VertexDatum(carrier, {v: 1, w: bad})
    assert isinstance(exc.value, DomainError) and isinstance(exc.value, ValueError)
    with pytest.raises(WrongCarrier):  # keys are checked first
        VertexDatum(carrier, {Vertex(1, 1): bad})
    assert VertexDatum(carrier, {v: 10**30, w: 0}).counts == {v: 10**30}


_V, _W = sorted(Carrier(GAMMA_BIG_THETA, 7).vertices())[:2]

# One int slot of each public constructor: (its valid int for a base b, the
# call with x in that slot).  Every other slot holds a valid int.
_INT_SLOTS = {
    "VertexDatum count": (lambda b: b, lambda x, b: VertexDatum(Carrier(GAMMA_BIG_THETA, 7), {_V: x, _W: 1})),
    "LusztigDatum count": (lambda b: b, lambda x, b: LusztigDatum(2, (1, 2, 1), (1, x, 0))),
    "LusztigDatum rank": (lambda b: b + 2, lambda x, b: LusztigDatum(x, (1, 2, 1), (1, 0, 0))),
    "LusztigDatum letter": (lambda b: 1, lambda x, b: LusztigDatum(2, (x, 2, 1), (0, 0, 0))),
    "HeightFunction rank": (lambda b: 3, lambda x, b: HeightFunction(x, "untwisted", (2 * b, 2 * b + 2, 2 * b))),
    "untwisted height": (lambda b: b, lambda x, b: HeightFunction.untwisted([x, b + 1, b])),
    "twisted height": (lambda b: 2 * b, lambda x, b: HeightFunction.twisted([x, 2 * b + 1, 2 * b + 2], 2)),
    "twisted n0": (lambda b: 2, lambda x, b: HeightFunction.twisted([2 * b, 2 * b + 1, 2 * b + 2], x)),
    "Carrier rank": (lambda b: 7, lambda x, b: Carrier(GAMMA_THETA, x).vertices()),
    "gamma-delta rank": (lambda b: 3, lambda x, b: Carrier("gamma-delta:0", x).vertices()),
    "theta n0": (lambda b: 2, lambda x, b: HeightFunction.theta(x)),
    "big_theta n0": (lambda b: 2, lambda x, b: HeightFunction.big_theta(x)),
    "canonical rank": (lambda b: 3, lambda x, b: HeightFunction.canonical(x, 0)),
    "omega rank": (lambda b: 3, lambda x, b: reineke.omega(x, 1)),
    "omega node": (lambda b: 1, lambda x, b: reineke.omega(3, x)),
    "Monomial exponent": (lambda b: b, lambda x, b: Monomial({(1, 2): x, (2, b): 1})),
    "Monomial spectral": (lambda b: b, lambda x, b: Monomial({(1, x): 1})),
    "Monomial.y node": (lambda b: 1, lambda x, b: Monomial.y(x, b)),
    "Monomial.y exponent": (lambda b: b, lambda x, b: Monomial.y(1, 2, x)),
    "qdatum_a rank": (lambda b: b + 1, lambda x, b: Realization.qdatum_a(x)),
    "qdatum_b n0": (lambda b: b + 2, lambda x, b: Realization.qdatum_b(x)),
    "custom h_dual": (lambda b: b + 4, lambda x, b: Realization.custom(x, {})),
    "custom g0_rank": (lambda b: b + 3, lambda x, b: Realization.custom(b + 4, {}, x)),
}
_AS = st.sampled_from([int, float, bool, Fraction, str, lambda c: c + 0.5, lambda c: Fraction(2 * c + 1, 2)])
# every cache, since any could answer a non-int with the instance of its int
_CACHES = tuple(_lru_caches().values())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(slot=st.sampled_from(sorted(_INT_SLOTS)), b=st.sampled_from([0, 1, 10**30]), convert=_AS, cached=st.booleans())
def test_public_constructors_take_exact_ints_only(slot, b, convert, cached):
    # the slot's valid int c, passed as convert(c): ints (0 and 10**30 too)
    # are taken as they are, and only VertexDatum drops a zero; a float, a
    # bool, a Fraction or a string, integral or not, is NotAnInteger naming
    # it, whether or not c's own result is cached
    for key in ((1, 2, 3), 1, (1,), "12"):  # a Monomial key is a (node, spectral) pair
        with pytest.raises(DomainError, match=f"pairs, got {re.escape(repr(key))}$"):
            Monomial({key: 2})
    valid, build = _INT_SLOTS[slot]
    for cache in _CACHES:
        cache.cache_clear()
    if cached:
        build(valid(b), b)
    x = convert(valid(b))
    if type(x) is not int:
        with pytest.raises(NotAnInteger, match=f"must be integers, got {re.escape(repr(x))}$"):
            build(x, b)
        return
    got = build(x, b)
    if slot == "VertexDatum count":
        assert got.counts == ({_V: x} if x else {}) | {_W: 1}
    elif slot == "LusztigDatum count":
        assert got.counts == (1, x, 0)
    elif slot == "untwisted height":
        assert got.values2 == (2 * x, 2 * b + 2, 2 * b)
    elif slot == "Monomial exponent":
        assert got.factors == ({(1, 2): x} if x else {}) | {(2, b): 1}
    elif slot == "qdatum_a rank":
        assert (got.h_dual, got.g0_rank) == (x + 1, x)
    elif slot == "custom h_dual":
        assert (got.h_dual, got.g0_rank) == (x, x - 1)


def test_rho_zero_datum():
    src = Carrier(GAMMA_BIG_THETA, 3)
    out = rho(VertexDatum(src, {}))
    assert out.carrier.name == GAMMA_THETA
    assert out.nonzero() == {}


def test_rho_step_splits_middle_count():
    # a unit count at a triple's middle splits into two unit counts
    src = Carrier(GAMMA_BIG_THETA, 3)
    out = rho_step(2, VertexDatum(src, {Vertex(3, 4): 1}))
    assert out.nonzero() == {Vertex(3, 3): 1, Vertex(3, 5): 1}


def test_rho_golden_n7():
    pts = (Vertex(5, 8), Vertex(5, 12), Vertex(4, 17), Vertex(4, 19))
    out = rho(unit_datum(Carrier(GAMMA_BIG_THETA, 7), pts))
    want = unit_datum(Carrier(GAMMA_THETA, 7), (Vertex(5, 6), Vertex(5, 10), Vertex(5, 14), Vertex(4, 20)))
    assert out.nonzero() == want.nonzero()


def test_rho_golden_n15():
    pts = (Vertex(9, 16), Vertex(9, 20), Vertex(8, 25), Vertex(7, 30), Vertex(8, 35), Vertex(9, 40))
    out = rho(unit_datum(Carrier(GAMMA_BIG_THETA, 15), pts))
    want = unit_datum(
        Carrier(GAMMA_THETA, 15),
        (Vertex(9, 14), Vertex(9, 18), Vertex(9, 22), Vertex(7, 30), Vertex(9, 38), Vertex(9, 42)),
    )
    assert out.nonzero() == want.nonzero()


def reference_layer(j, d, rng=None):
    """rho_<j> rebuilt in full: the reference the in-place layer plan must match.

    Every key of V<j+1> is written, rows other than j and j+1 carried by
    identity; the 3-move triples run in shuffled order when rng is given.
    """
    n = d.carrier.n
    n0 = (n + 1) // 2
    triples = list(range(0, n - j))
    if rng is not None:
        rng.shuffle(triples)
    read, out = set(), {}
    for r in triples:
        src = (Vertex(j, 2 * j + 4 * r - 1), Vertex(j + 1, 2 * j + 4 * r), Vertex(j, 2 * j + 4 * r + 1))
        read.update(src)
        a, b, c = three_move(*(d.get(v) for v in src))
        out[Vertex(j + 1, 2 * j + 4 * r - 1)] = a
        out[Vertex(j, 2 * j + 4 * r)] = b
        out[Vertex(j + 1, 2 * j + 4 * r + 1)] = c
    if j > n0:
        read.add(Vertex(j, 2 * j - 3))
        out[Vertex(j, 2 * j - 4)] = d.get(Vertex(j, 2 * j - 3))
    read.add(Vertex(j, 4 * n - 2 * j - 1))
    out[Vertex(j, 2 * (2 * n - j))] = d.get(Vertex(j, 4 * n - 2 * j - 1))
    target = vj_carrier(n0, j + 1)
    for v in target.vertices():
        if v.i not in (j, j + 1):
            read.add(v)
            out[v] = d.get(v)
    assert set(out) == set(target.vertices())
    assert set(d.nonzero()) <= read, "a nonzero count was dropped"
    return VertexDatum(target, {v: c for v, c in out.items() if c})


def reference_rho(d):
    """The stages on V<n0+1>, ..., V<n+1> of the chained reference layers."""
    n = d.carrier.n
    stages = []
    for j in range((n + 1) // 2, n + 1):
        d = reference_layer(j, d)
        stages.append(d)
    return stages


def test_rho_step_triple_order_independent():
    # the 3-move layers touch pairwise disjoint key triples, so applying
    # them in any order agrees with rho_step
    rng = random.Random(5)
    for n0 in (2, 3, 4):
        n = 2 * n0 - 1
        for j in range(n0, n + 1):
            src_carrier = vj_carrier(n0, j)
            counts = {v: rng.randint(0, 3) for v in src_carrier.vertices()}
            d = VertexDatum(src_carrier, counts)
            assert reference_layer(j, d, rng).nonzero() == rho_step(j, d).nonzero()


def test_rho_matches_reference_layers():
    # rho and every rho_step stage against the full-rebuild reference, on
    # sparse, dense and unit (window snake) data up to rank 31, and on one
    # dense datum at ranks 63 and 95; neither may touch the caller's counts
    from snaketsys import verify

    rng = random.Random(31)
    for n0 in (*range(2, 17), 32, 48):
        n = 2 * n0 - 1
        carrier = Carrier(GAMMA_BIG_THETA, n)
        verts = sorted(carrier.vertices())
        big = HeightFunction.big_theta(n0)
        data = [
            VertexDatum(carrier, {v: rng.randint(1, 5) for v in verts if rng.random() < 0.1}),
            VertexDatum(carrier, {v: rng.randint(0, 9) for v in verts}),
            unit_datum(carrier, verify.random_snake(big, rng, rng.randint(1, 6), prime=False, in_gamma=True)),
            # every key given, zeros in every row (the datum keeps the support)
            VertexDatum(carrier, {v: rng.randint(1, 5) if rng.random() < 0.3 else 0 for v in verts}
                        | {v: 0 for v in {v.i: v for v in verts}.values()}),
        ]
        for d in data if n0 <= 16 else data[1:2]:
            before = dict(d.counts)
            want = reference_rho(d)
            out = rho(d)
            assert out == want[-1]  # same carrier and counts, no zero stored
            assert d.counts == before
            stage = d
            for j, ref in zip(range(n0, n + 1), want):
                stage_counts = dict(stage.counts)
                nxt = rho_step(j, stage)
                assert stage.counts == stage_counts
                assert nxt == ref
                stage = nxt


def _seeded_data(rng):
    """(n0, data) for n0 = 2..16: empty, unit, dense, and zeros given in every row (below n0 and moved)."""
    from snaketsys import verify

    for n0 in range(2, 17):
        carrier = Carrier(GAMMA_BIG_THETA, 2 * n0 - 1)
        verts = sorted(carrier.vertices())
        snake = verify.random_snake(HeightFunction.big_theta(n0), rng, rng.randint(1, 6), prime=False, in_gamma=True)
        yield n0, [
            VertexDatum(carrier, {}),
            unit_datum(carrier, snake),
            VertexDatum(carrier, {v: rng.randint(0, 9) for v in verts}),
            VertexDatum(carrier, {v: rng.randint(1, 5) if rng.random() < 0.3 else 0 for v in verts}
                        | {v: 0 for v in {v.i: v for v in verts}.values()}),
        ]


def test_rho_results_pass_the_public_datum_check():
    # rho and rho_step build their results unchecked; the plan check and the
    # 3-move's sign rule are what make them valid, so check every result
    # here.  Both copy the rows they do not move: rows other than j, j+1 of
    # rho_step(j, d), and the rows below n0 of rho(d), are d's nonzero counts
    def rows(d, keep):
        return {v: c for v, c in d.nonzero().items() if keep(v.i)}

    for n0, data in _seeded_data(random.Random(17)):
        n = 2 * n0 - 1
        for d in data:
            results = [rho(d)]
            assert rows(results[0], lambda i: i < n0) == rows(d, lambda i: i < n0)
            for j in range(n0, n + 1):
                out = rho_step(j, d)
                assert out.carrier == vj_carrier(n0, j + 1)
                assert rows(out, lambda i: i not in (j, j + 1)) == rows(d, lambda i: i not in (j, j + 1))
                results.append(out)
                d = out
            assert results[0].carrier == Carrier(GAMMA_THETA, n) and results[0] == d
            for out in results:  # the public constructor checks keys and signs
                assert VertexDatum(out.carrier, dict(out.counts)) == out and 0 not in out.counts.values()


def test_rho_moves_a_lone_count_like_the_reference():
    # a datum whose only nonzero count sits at one read of a layer (one
    # read of a triple, or a boundary key), built next to zeros: rho_step
    # and rho, stage by stage, agree with the reference layers
    for n0 in range(2, 6):
        n = 2 * n0 - 1
        for j in range(n0, n + 1):
            carrier = vj_carrier(n0, j)
            for v in sorted(_two_rows(carrier.vertices(), j)):
                d = VertexDatum(carrier, {w: 0 for w in carrier.vertices()} | {v: 2})
                assert rho_step(j, d) == reference_layer(j, d)
        for v in sorted(vj_carrier(n0, n0).vertices()):
            d = VertexDatum(Carrier(GAMMA_BIG_THETA, n), {v: 3})
            want = reference_rho(d)
            assert rho(d) == want[-1]
            for j, ref in zip(range(n0, n + 1), want):
                d = rho_step(j, d)
                assert d == ref


def test_rho_of_zero_counts_is_rho_of_the_support():
    # a datum built with zero counts is the datum of its support: rho and
    # every rho_step stage of the two agree (carrier, counts and JSON), and
    # no result stores a zero
    rng = random.Random(21)
    for n0 in range(2, 17):
        n = 2 * n0 - 1
        verts = sorted(Carrier(GAMMA_BIG_THETA, n).vertices())
        counts = {v: rng.randint(1, 9) if rng.random() < 0.5 else 0 for v in verts}
        data = [VertexDatum(Carrier(GAMMA_BIG_THETA, n), c) for c in (counts, {v: c for v, c in counts.items() if c})]
        assert data[0] == data[1] and 0 not in data[0].counts.values()
        outs = [[rho(d)] for d in data]
        for j in range(n0, n + 1):
            data = [rho_step(j, d) for d in data]
            for out, d in zip(outs, data):
                out.append(d)
        for zeros, support in zip(*outs):
            assert zeros == support  # carrier and counts
            assert json.dumps(datum_to_json(zeros)) == json.dumps(datum_to_json(support))
            assert 0 not in zeros.counts.values()


def test_rho_and_rho_step_outputs_are_pinned():
    # the sha256 of datum_to_json for rho and for every rho_step stage, on
    # seeded data; the digest was written down before rho copied the rows
    # it does not move
    lines = []
    for n0, data in _seeded_data(random.Random(15)):
        for d in data:
            lines.append(json.dumps(datum_to_json(rho(d))))
            for j in range(n0, 2 * n0):
                d = rho_step(j, d)
                lines.append(json.dumps(datum_to_json(d)))
    assert len(lines) == 4 * sum(n0 + 1 for n0 in range(2, 17))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "4b4b6745f3244078085b7af331cf35ba6f50ce9d8ceabb608c295bd258c7eb86"


def reference_check_plan(n):
    """The whole-carrier check of rank n's layer plan: raise InternalError unless it maps V<n0> onto V<n+1>.

    Every V<j> is built in full.  A layer's reads are taken through V<j>'s
    slot order and its writes through V<j+1>'s slots lo, ..., lo+size-1,
    where the kernel puts them.  Each must hold each vertex of rows j, j+1
    of its carrier once, those rows must fill the slots lo, ..., lo+size-1
    of both carriers, and the carriers must agree in slot order on every
    other row.  The plan's carriers must be the two windows, which must
    agree below n0.
    """
    from snaketsys.lusztig import _layer_plan

    def once(got, want):
        return len(got) == len(want) and set(got) == want

    n0 = (n + 1) // 2
    plan = _layer_plan(n)
    if len(plan.layers) != n + 1 - n0:
        raise InternalError(f"rho of rank {n} has {len(plan.layers)} layers")
    for j, layer in zip(range(n0, n + 1), plan.layers):
        src, dst = vj_carrier(n0, j).slots.vertices, vj_carrier(n0, j + 1).slots.vertices
        lo, hi = layer.lo, layer.lo + layer.size
        out = dst[lo:hi]  # where the kernel puts the layer's buffer
        reads = [src[s] for t in layer.triples for s in t[:3]] + [src[s] for s, _ in layer.moves]
        writes = [out[o] for t in layer.triples for o in t[3:]] + [out[o] for _, o in layer.moves]
        src_rows, dst_rows = _two_rows(src, j), _two_rows(dst, j)
        if (
            not once(reads, src_rows) or not once(writes, dst_rows)
            or not once(src[lo:hi], src_rows) or not once(dst[lo:hi], dst_rows)
            or src[:lo] + src[hi:] != dst[:lo] + dst[hi:]
        ):
            raise InternalError(f"rho layer {j} of rank {n} does not map V<{j}> onto V<{j + 1}>")
    big, theta = plan.big_theta.vertices(), plan.theta.vertices()
    if (
        (plan.big_theta, plan.theta) != (Carrier(GAMMA_BIG_THETA, n), Carrier(GAMMA_THETA, n))
        or {v for v in big if v.i < n0} != {v for v in theta if v.i < n0}
    ):
        raise InternalError(f"rho of rank {n} does not map the big_theta window onto the theta window")


def test_layer_plan_passes_whole_carrier_reference_check():
    for n in range(3, 32, 2):
        reference_check_plan(n)


def _two_rows(verts, j):
    return {v for v in verts if v.i in (j, j + 1)}


def test_layer_plan_is_checked_once():
    # the cached plan is immutable and bounded; a layer that misses a slot,
    # writes an offset twice or moves one slot twice is rejected explicitly
    from snaketsys.lusztig import _check_layer, _layer_plan

    assert _layer_plan.cache_info().maxsize is not None
    plan = _layer_plan(7)
    assert isinstance(plan.layers, tuple) and all(isinstance(layer.triples, tuple) for layer in plan.layers)
    assert _layer_plan(7) is plan
    n0, j = 4, 5
    layer = plan.layers[j - n0]
    (a, b, c, x, y, z), rest = layer.triples[0], layer.triples[1:]
    broken = [
        layer._replace(triples=rest),
        layer._replace(moves=layer.moves[:1]),
        layer._replace(moves=layer.moves + layer.moves[:1]),  # every slot and offset still there, one twice
        layer._replace(triples=((a, b, c, x, x, z),) + rest),
    ]
    _check_layer(n0, j, layer)
    for bad in broken:
        with pytest.raises(InternalError):
            _check_layer(n0, j, bad)


def test_layer_check_rejects_a_move_outside_its_two_rows():
    # a layer that reads a slot of row j+2 in place of one of its own rows is
    # rejected, and so is one that writes past the end of its buffer
    from snaketsys.lusztig import _check_layer, _layer_plan

    n0, j = 4, 5
    layer = _layer_plan(7).layers[j - n0]
    far = vj_carrier(n0, j).slots.rows[j + 2].start
    (s, t), *rest = layer.moves
    for bad in ((far, t), (s, layer.size)):
        with pytest.raises(InternalError):
            _check_layer(n0, j, layer._replace(moves=(bad, *rest)))


def test_slot_plan_cache_is_bounded_and_holds_only_tuples():
    # the cached plans are tuples of ints and of tuples of ints, and two
    # frozen carriers, so no caller can change a plan another reads
    from dataclasses import FrozenInstanceError

    from snaketsys.lusztig import _layer_plan

    _layer_plan.cache_clear()
    for n in (3, 7, 15, 31):
        _layer_plan(n)
    info = _layer_plan.cache_info()
    assert info.maxsize is not None and info.currsize == 4
    plan = _layer_plan(7)
    assert plan._fields == ("layers", "big_theta", "theta", "program", "steps")
    assert type(plan.big_theta) is type(plan.theta) is Carrier
    with pytest.raises(FrozenInstanceError):
        plan.theta.name = GAMMA_BIG_THETA
    assert type(plan.layers) is tuple
    for layer in plan.layers:
        assert layer._fields == ("lo", "size", "triples", "moves")
        assert type(layer.lo) is type(layer.size) is int
        for part in (layer.triples, layer.moves):
            assert type(part) is tuple
            assert all(type(t) is tuple and all(type(s) is int for s in t) for t in part)
    # the compiled programs: rho's, and one per layer for rho_step
    assert type(plan.steps) is tuple and len(plan.steps) == len(plan.layers)
    for program in (plan.program, *plan.steps):
        assert program._fields == ("cells", "lo", "gather")
        assert type(program.lo) is int
        assert type(program.cells) is type(program.gather) is tuple
        assert all(type(t) is tuple and len(t) == 3 and all(type(s) is int for s in t) for t in program.cells)
        assert all(type(s) is int for s in program.gather)


def test_program_check_rejects_a_program_off_its_run():
    # every compiled program passes; a gather that repeats a cell or has one
    # entry, and a composite 3-move that reads one cell twice or a cell below
    # the run, are rejected explicitly
    from snaketsys.lusztig import _check_program, _layer_plan, _Program

    n = 7
    plan = _layer_plan(n)
    for program in (plan.program, *plan.steps):
        _check_program(n, program)
    cells, lo, gather = plan.program
    (a, b, c), rest = cells[0], cells[1:]
    broken = [
        plan.program._replace(gather=(gather[0], *gather[:-1])),
        _Program((), lo, (lo,)),  # a permutation of its run, but itemgetter of one index gives an int
        plan.program._replace(cells=((a, a, c), *rest)),
        plan.program._replace(cells=((a, b, a), *rest)),
        plan.program._replace(cells=((lo - 1, b, c), *rest)),
        plan.steps[1]._replace(cells=plan.program.cells),  # layer n0's cells lie below layer n0+1's run
    ]
    for bad in broken:
        with pytest.raises(InternalError):
            _check_program(n, bad)


def test_rho_is_rho_step_folded_over_j():
    # the composed program of the whole rank against the per-layer programs,
    # for every odd rank from 3 to 63 on seeded dense and unit data
    from functools import reduce

    from snaketsys import verify

    rng = random.Random(63)
    for n in range(3, 64, 2):
        n0 = (n + 1) // 2
        carrier = Carrier(GAMMA_BIG_THETA, n)
        snake = verify.random_snake(HeightFunction.big_theta(n0), rng, rng.randint(1, 4), prime=False, in_gamma=True)
        for d in (VertexDatum(carrier, {v: rng.randint(0, 9) for v in carrier.vertices()}), unit_datum(carrier, snake)):
            assert rho(d) == reduce(lambda e, j: rho_step(j, e), range(n0, n + 1), d), n


def _shifted_window(name, n, row):
    """The Gamma window `name` of rank n with the last key of `row` moved two steps right."""
    from snaketsys.quivers import Window

    win = Carrier(name, n).slots
    rows = [win.vertices[r] for r in win.rows]
    rows[row] = rows[row][:-1] + (Vertex(row, rows[row][-1].k2 + 8),)
    return Window.of_rows(rows, reading=True)


@pytest.mark.parametrize("row", [1, 7])
def test_layer_plan_rejects_a_window_off_the_row_rule(monkeypatch, row):
    # no layer reads row 1 (below n0), so only the composite check sees it;
    # row 7 is off both the grid of the row rule and the reads of layer 6
    from snaketsys import lusztig

    n = 7
    bad = _shifted_window(GAMMA_BIG_THETA, n, row)
    real = Carrier.slots.func

    def patched(carrier):
        return bad if (carrier.name, carrier.n) == (GAMMA_BIG_THETA, n) else real(carrier)

    monkeypatch.setattr(Carrier, "slots", property(patched))
    lusztig._layer_plan.cache_clear()
    try:
        with pytest.raises(InternalError):
            lusztig._layer_plan(n)
    finally:
        lusztig._layer_plan.cache_clear()


def _vj_by_hand(n, j):
    """V<j> of rank n, n0 < j <= n, by the hand-written row rule: theta's window
    below row j, the chain (j, j - 3/2 + m), m in [0, 2n-2j+1], at row j, and
    the big_theta grid (i, i - 1 + 2m), m in [0, n-i], above it."""
    theta = HeightFunction.theta((n + 1) // 2).gamma_vertices()
    chain = {Vertex(j, 2 * j - 3 + 2 * m) for m in range(2 * n - 2 * j + 2)}
    grid = {Vertex(i, 2 * i - 2 + 4 * m) for i in range(j + 1, n + 1) for m in range(n - i + 1)}
    return {v for v in theta if v.i < j} | chain | grid


def test_vj_rows_match_the_hand_written_grid():
    # rows above j are read from big_theta's window; the grid is the oracle,
    # and the slot order is row by row, each row by k2
    from snaketsys.lusztig import _vj_window

    for n in range(3, 64, 2):
        for j in range((n + 1) // 2 + 1, n + 1):
            assert _vj_window(n, j).vertices == tuple(sorted(_vj_by_hand(n, j))), (n, j)


def test_layer_plan_builds_no_intermediate_carrier(monkeypatch):
    from snaketsys import lusztig

    calls = []
    real = lusztig._vj_window
    monkeypatch.setattr(lusztig, "_vj_window", lambda n, j: calls.append((n, j)) or real(n, j))
    lusztig._layer_plan.cache_clear()
    lusztig._layer_plan(31)
    assert calls == []


def test_rho_step_accepts_the_same_carriers():
    # rho_step compares vertex sets only when the carrier is not V<j> by name
    n0, n = 4, 7
    pts = (Vertex(5, 8), Vertex(4, 17))
    want = rho_step(n0, unit_datum(Carrier(GAMMA_BIG_THETA, n), pts))
    assert rho_step(n0, unit_datum(Carrier(f"vj:{n0}", n), pts)) == want
    for j in range(n0, n + 1):
        with pytest.raises(WrongCarrier):
            rho_step(j, VertexDatum(Carrier(f"vj:{j + 1}", n), {}))


def test_rho_wrong_carrier():
    with pytest.raises(WrongCarrier):
        rho(VertexDatum(Carrier(GAMMA_THETA, 3), {}))
    with pytest.raises(WrongCarrier):
        rho_step(4, VertexDatum(Carrier(GAMMA_BIG_THETA, 5), {}))


def test_rho_entry_check_accepts_the_same_carriers():
    # the check skips comparing the shared window with itself; the accepted
    # carriers are still exactly those with the big_theta window's vertices
    from snaketsys.lusztig import _layer_plan

    pts = (Vertex(5, 8), Vertex(4, 17))
    want = rho(unit_datum(Carrier(GAMMA_BIG_THETA, 7), pts)).nonzero()
    alias = unit_datum(Carrier("vj:4", 7), pts)  # V<n0> is the big_theta window
    assert rho(alias).nonzero() == want
    HeightFunction.big_theta.cache_clear()  # an equal window that is not the plan's object
    lusztig._vj_window.cache_clear()
    alias = unit_datum(Carrier("vj:4", 7), pts)
    assert alias.carrier.slots is not _layer_plan(7).big_theta.slots
    assert rho(alias).nonzero() == want
    with pytest.raises(WrongCarrier):
        rho(VertexDatum(Carrier(GAMMA_THETA, 7), {}))


def test_datum_json_roundtrip():
    pts = (Vertex(5, 8), Vertex(5, 12), Vertex(5, 8))
    d = unit_datum(Carrier(GAMMA_BIG_THETA, 7), pts)
    obj = datum_to_json(d)
    assert obj["carrier"] == GAMMA_BIG_THETA
    back = datum_from_json(obj, 7)
    assert back.nonzero() == d.nonzero()


def test_vj_chain_words_are_reduced():
    # any k-ascending reading of an intermediate carrier is a reduced word
    from snaketsys import roots

    for n0 in (2, 3, 4):
        n = 2 * n0 - 1
        for j in range(n0, n + 2):
            verts = sorted(vj_carrier(n0, j).vertices(), key=lambda v: (v.k2, v.i))
            word = tuple(v.i for v in verts)
            assert roots.is_longest_word(n, word)


def _word_graph_transport(n, src_word, src_counts, dst_word):
    """Breadth-first braid-move path in the word graph, counts carried along."""
    from collections import deque

    start = LusztigDatum(n, tuple(src_word), tuple(src_counts))
    seen = {start.word}
    queue = deque([start])
    while queue:
        d = queue.popleft()
        if d.word == tuple(dst_word):
            return d.counts
        for r in range(len(d.word) - 1):
            if abs(d.word[r] - d.word[r + 1]) >= 2:
                nxt = two_move(d, r)
                if nxt.word not in seen:
                    seen.add(nxt.word)
                    queue.append(nxt)
        for r in range(1, len(d.word) - 1):
            if d.word[r - 1] == d.word[r + 1] and abs(d.word[r] - d.word[r - 1]) == 1:
                nxt = apply_three_move(d, r)
                if nxt.word not in seen:
                    seen.add(nxt.word)
                    queue.append(nxt)
    raise AssertionError("word graph is connected; this cannot happen")


def test_rho_against_word_graph_transport():
    # independent oracle on arbitrary data: walk the braid-move graph from
    # the twisted reading word to the untwisted one and compare the carried
    # counts with rho.  The word graph of rank 3 is small enough to search.
    #
    # Caveat: a braid path can visit several count tuples for the same
    # target word only if the words were not commutation-rigid; transported
    # counts keyed by window vertices are still well defined because the
    # reading order is fixed.
    import random as _random

    rng = _random.Random(21)
    n0, n = 2, 3
    big = HeightFunction.big_theta(n0)
    theta = HeightFunction.theta(n0)
    src_order, src_word = big.compatible_reading()
    dst_order, dst_word = theta.compatible_reading()
    src_carrier = Carrier(GAMMA_BIG_THETA, n)
    for _ in range(25):
        counts = {v: rng.randint(0, 4) for v in src_carrier.vertices() if rng.random() < 0.7}
        d = VertexDatum(src_carrier, counts)
        transported = _word_graph_transport(
            n, src_word, tuple(d.get(v) for v in src_order), dst_word
        )
        via_words = {v: c for v, c in zip(dst_order, transported) if c}
        assert via_words == rho(d).nonzero()


def test_rho_conserves_root_weight():
    # the weighted sum of window root labels is a move invariant, so it must
    # survive the whole transport chain
    import random as _random

    rng = _random.Random(22)
    for n0 in (2, 3, 4):
        big = HeightFunction.big_theta(n0)
        theta = HeightFunction.theta(n0)
        carrier = Carrier(GAMMA_BIG_THETA, big.n)

        def total(hf, datum):
            acc = [0] * (hf.n + 1)
            for v, c in datum.nonzero().items():
                root = hf.phi(v)
                for j in range(root.lo, root.hi + 1):
                    acc[j] += c
            return tuple(acc[1:])

        for _ in range(15):
            counts = {v: rng.randint(0, 3) for v in carrier.vertices() if rng.random() < 0.6}
            d = VertexDatum(carrier, counts)
            assert total(big, d) == total(theta, rho(d))


def test_rho_step_intermediate_stage_n7():
    # first transport layer of the rank-7 golden: the two middle-row counts
    # split, the upper-row count slides lower-right, the boundary count
    # shifts onto the integer slot
    pts = (Vertex(5, 8), Vertex(5, 12), Vertex(4, 17), Vertex(4, 19))
    d = unit_datum(Carrier(GAMMA_BIG_THETA, 7), pts)
    stage = rho_step(4, d)
    assert stage.nonzero() == {
        Vertex(5, 7): 1, Vertex(5, 9): 1,   # split of the count at (5,4)
        Vertex(5, 11): 1, Vertex(5, 13): 1,  # split of the count at (5,6)
        Vertex(5, 15): 1,                    # (4,17/2) slides lower-right
        Vertex(4, 20): 1,                    # boundary shift of (4,19/2)
    }
