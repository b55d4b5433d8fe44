import gc
import itertools
import random
import weakref

import pytest

from snaketsys import quivers, reineke
from snaketsys.errors import DomainError, InternalError, NotAnInteger, NotHeightFunction, OutsideWindow
from snaketsys.quivers import (
    TWISTED,
    UNTWISTED,
    HeightFunction,
    Region,
    Vertex,
    phi_closed_form,
    phi_map,
    quiver_ascii,
    quiver_dot,
)

XI_DISPLAY = HeightFunction.untwisted([2, 1, 2, 3, 4])
XI_TWISTED = HeightFunction.twisted((-2, 0, -1, 2, 4), 3)  # (-1, 0, -1/2, 1, 2)


def test_height_function_validation():
    with pytest.raises(ValueError):
        HeightFunction.untwisted([1, 3])  # step 2
    with pytest.raises(ValueError):
        HeightFunction.twisted((2, 3, 5), 2)  # |xi_1 - xi_3| != 1
    with pytest.raises(ValueError):
        HeightFunction.twisted((2, 4, 4), 2)  # middle not a half-integer
    HeightFunction.twisted((2, 3, 4), 2)


def test_named_constructors():
    assert HeightFunction.canonical(5, 0).values2 == (0, 2, 0, 2, 0)
    assert HeightFunction.canonical(5, 1).values2 == (2, 0, 2, 0, 2)
    assert HeightFunction.theta(2).values2 == (2, 4, 2)
    assert HeightFunction.big_theta(2).values2 == (2, 3, 4)
    assert HeightFunction.theta(4).values2 == (2, 4, 6, 8, 6, 8, 10)
    assert HeightFunction.big_theta(4).values2 == (2, 4, 6, 7, 8, 10, 12)


def test_canonical_is_shared_and_takes_int_delta_only():
    # a float or bool delta is rejected before the cache, which would hand
    # canonical(3, 0) the float heights built for canonical(3, 0.0)
    for delta in (0.0, 1.0, True, False, 2, -1):
        with pytest.raises(ValueError, match="delta must be 0 or 1"):
            HeightFunction.canonical(3, delta)
    hf = HeightFunction.canonical(3, 0)
    assert hf.values2 == (0, 2, 0) and all(type(x) is int for x in hf.values2)
    assert HeightFunction.canonical(3, 0) is hf and HeightFunction.canonical(3, 1) is not hf


@pytest.mark.parametrize(
    "build, rank, rule",
    [
        (lambda r: HeightFunction.canonical(r, 0), "n", r"the rank n must be at least 1, got {}$"),
        (HeightFunction.theta, "n0", r"the rank 2\*n0 - 1 must be at least 1, got n0 = {}$"),
        (HeightFunction.big_theta, "n0", r"the rank 2\*n0 - 1 must be at least 1, got n0 = {}$"),
    ],
    ids=["canonical", "theta", "big_theta"],
)
def test_shared_constructors_name_the_rank_rule(build, rank, rule):
    # a rank below 1 is named as such, not as values the caller never passed,
    # and the raise is not cached; rank 1 builds (big_theta needs n0 >= 2)
    for bad in (0, -1, -5, 0):
        with pytest.raises(NotHeightFunction, match=rule.format(bad)):
            build(bad)
    if rank == "n":
        assert build(1).n == 1
    assert build(2).n == (2 if rank == "n" else 3)


def test_is_vertex():
    assert XI_DISPLAY.is_vertex(Vertex(2, 2))       # (2,1)
    assert not XI_DISPLAY.is_vertex(Vertex(2, 4))   # (2,2) wrong parity
    assert XI_TWISTED.is_vertex(Vertex(3, 1))       # (3,1/2)
    assert not XI_TWISTED.is_vertex(Vertex(1, 0))   # (1,0) wrong parity


def test_is_vertex_rejects_coordinates_that_are_not_ints():
    # a float, bool or string coordinate is NotAnInteger at the one check in
    # is_vertex, on every public path that asks it, not read as the int it
    # equals and not a bare TypeError from indexing with it
    from snaketsys.snakes import is_snake
    from snaketsys.tsystem import extended_tsystem, predicted_tfd_left

    xi = HeightFunction.canonical(5, 0)
    cases = [
        lambda: is_snake(xi, [Vertex(1, 0.0)]),
        lambda: predicted_tfd_left(xi, Vertex(1, -4.0), [Vertex(1, 0)]),
        lambda: extended_tsystem(xi, [Vertex(True, 0), Vertex(1, 4)]),
        lambda: is_snake(xi, [Vertex(1.0, 0)]),
        lambda: xi.is_vertex(Vertex("1", 0)),
    ]
    for case in cases:
        with pytest.raises(NotAnInteger, match="vertex coordinates must be integers"):
            case()
    assert is_snake(xi, [Vertex(1, 0)]) and xi.is_vertex(Vertex(1, 0))


def test_sinks_sources():
    assert XI_DISPLAY.sinks() == {2}
    assert XI_DISPLAY.sources() == {1, 5}
    assert HeightFunction.untwisted([1, 2, 3]).sinks() == {1}
    assert 1 in XI_TWISTED.sinks()
    assert 3 in XI_TWISTED.sinks()  # -1/2 < 0 and -1/2 < 1


class NotSinkOrSource(DomainError):
    """A node that reflect_height cannot reflect."""


def reflect_height(hf, i):
    """s_i xi: raise a sink / lower a source by its step d_i."""
    vals = list(hf.values2)
    if i in hf.sinks():
        vals[i - 1] = hf.values2[i - 1] + hf.d2(i)
    elif i in hf.sources():
        vals[i - 1] = hf.values2[i - 1] - hf.d2(i)
    else:
        raise NotSinkOrSource(f"node {i} is neither a sink nor a source")
    return HeightFunction(hf.n, hf.flavor, tuple(vals), hf.n0)


def test_reflect_height():
    assert reflect_height(XI_DISPLAY, 2).values2 == (4, 6, 4, 6, 8)  # (2,3,2,3,4)
    assert reflect_height(HeightFunction.untwisted([1, 2, 3]), 1).values2 == (6, 4, 6)
    # the middle node moves by d = 1 in the twisted case
    tw = HeightFunction.twisted((2, 3, 4), 2)
    assert 2 in tw.sources()
    assert reflect_height(tw, 2).values2 == (2, 1, 4)
    assert reflect_height(reflect_height(tw, 2), 2).values2 == tw.values2
    with pytest.raises(NotSinkOrSource):
        reflect_height(XI_DISPLAY, 3)


def test_has_arrow():
    assert XI_DISPLAY.has_arrow(Vertex(2, 2), Vertex(1, 4))     # (2,1) -> (1,2)
    assert XI_TWISTED.has_arrow(Vertex(3, -1), Vertex(2, 0))    # (3,-1/2) -> (2,0)
    assert not XI_DISPLAY.has_arrow(Vertex(1, 4), Vertex(3, 6))


def test_preceq():
    hf = HeightFunction.canonical(5, 1)
    assert hf.preceq(Vertex(2, 0), Vertex(4, 8))   # (2,0) <= (4,4)
    v = Vertex(2, 2)
    assert XI_DISPLAY.preceq(v, v)
    assert not XI_DISPLAY.preceq(Vertex(1, 4), Vertex(1, 6))  # parity of row 1 steps by 2


def bfs_reachable(hf, v, k2_hi):
    """Reference oracle: every vertex v reaches by arrows, up to height k2_hi."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for t in hf.arrow_targets(u):
                if t.k2 <= k2_hi and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _all_height_functions(n, flavor):
    """Every height function of the flavor with xi_1 = 0 (so all up to shift)."""
    n0 = (n + 1) // 2 if flavor == TWISTED else None
    out = []
    for steps in itertools.product((-3, -2, -1, 1, 2, 3), repeat=n - 1):
        vals2 = list(itertools.accumulate(steps, initial=0))
        try:
            out.append(HeightFunction(n, flavor, tuple(vals2), n0))
        except ValueError:
            continue
    return out


def _assert_preceq_matches_bfs(hf):
    """Closed form against BFS on every vertex pair of a window two periods tall.

    Non-vertices of the window (wrong parity, rows 0 and n+1) must be
    unordered, even against themselves and the window's extreme vertices.
    """
    k2_lo, k2_hi = min(hf.values2) - 4, max(hf.values2) + 2 * hf.ntilde2()
    points = [Vertex(i, k2) for i in range(0, hf.n + 2) for k2 in range(k2_lo, k2_hi + 1)]
    verts = [v for v in points if hf.is_vertex(v)]
    for v in verts:
        reach = bfs_reachable(hf, v, k2_hi)
        for w in verts:
            assert hf.preceq(v, w) == (w in reach), (hf, v, w)
            assert hf.prec(v, w) == (w in reach and v != w), (hf, v, w)
    lowest, highest = min(verts, key=lambda v: v.k2), max(verts, key=lambda v: v.k2)
    for x in points:
        if not hf.is_vertex(x):
            assert not hf.preceq(x, x) and not hf.preceq(x, highest) and not hf.preceq(lowest, x)


def test_preceq_closed_form_exhaustive():
    hfs = [hf for n in range(1, 6) for hf in _all_height_functions(n, UNTWISTED)]
    hfs += [hf for n0 in (2, 3) for hf in _all_height_functions(2 * n0 - 1, TWISTED)]
    assert len(hfs) == 1 + 2 + 4 + 8 + 16 + 4 + 16
    for hf in hfs:
        _assert_preceq_matches_bfs(hf)


def test_preceq_closed_form_random():
    from snaketsys.verify import random_height_function

    rng = random.Random(5)
    for n in range(6, 10):
        hf = random_height_function(n, rng)
        _assert_preceq_matches_bfs(hf)
    for n0 in (4, 5):
        hf = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
        _assert_preceq_matches_bfs(hf)


def test_preceq_rank_one_has_no_arrows():
    hf = HeightFunction.untwisted([0])
    assert hf.preceq(Vertex(1, 0), Vertex(1, 0))
    assert not hf.prec(Vertex(1, 0), Vertex(1, 0))
    assert not hf.preceq(Vertex(1, 0), Vertex(1, 4))
    assert not hf.preceq(Vertex(1, 0), Vertex(1, 2))  # not a vertex


def test_gamma_window():
    g = XI_DISPLAY.gamma_vertices()
    assert len(g) == 15
    assert Vertex(2, 2) in g and Vertex(1, 16) in g  # (2,1) and (1,8)
    assert len(HeightFunction.untwisted([7]).gamma_vertices()) == 1
    assert len(XI_TWISTED.gamma_vertices()) == 15
    for n0 in (2, 3, 4, 5):
        n = 2 * n0 - 1
        assert len(HeightFunction.big_theta(n0).gamma_vertices()) == n * (n + 1) // 2


def test_compatible_reading():
    order, word = HeightFunction.untwisted([1, 2]).compatible_reading()
    assert word == (1, 2, 1)
    assert HeightFunction.untwisted([0]).compatible_reading()[1] == (1,)
    order, word = XI_DISPLAY.compatible_reading()
    assert len(word) == 15 and word[0] == 2  # (2,1) is the unique source

    # the word is sink-adapted: each letter is a sink of the reflected function
    hf = XI_DISPLAY
    for letter in word:
        assert letter in hf.sinks()
        hf = reflect_height(hf, letter)


PHI_DISPLAY = {
    (2, 1): "a2", (1, 2): "a1,2", (3, 2): "a2,3", (2, 3): "a1,3", (4, 3): "a2,4",
    (1, 4): "a3", (3, 4): "a1,4", (5, 4): "a2,5", (2, 5): "a3,4", (4, 5): "a1,5",
    (1, 6): "a4", (3, 6): "a3,5", (5, 6): "a1", (2, 7): "a4,5", (1, 8): "a5",
}

PHI_CANONICAL_0 = {
    (1, 0): "a1", (1, 2): "a2,3", (1, 4): "a4,5",
    (2, 1): "a1,3", (2, 3): "a2,5", (2, 5): "a4",
    (3, 0): "a3", (3, 2): "a1,5", (3, 4): "a2,4",
    (4, 1): "a3,5", (4, 3): "a1,4", (4, 5): "a2",
    (5, 0): "a5", (5, 2): "a3,4", (5, 4): "a1,2",
}

PHI_CANONICAL_1 = {
    (1, 1): "a1,2", (1, 3): "a3,4", (1, 5): "a5",
    (2, 0): "a2", (2, 2): "a1,4", (2, 4): "a3,5",
    (3, 1): "a2,4", (3, 3): "a1,5", (3, 5): "a3",
    (4, 0): "a4", (4, 2): "a2,5", (4, 4): "a1,3",
    (5, 1): "a4,5", (5, 3): "a2,3", (5, 5): "a1",
}


def test_phi_display_figure():
    for (i, k), label in PHI_DISPLAY.items():
        assert str(XI_DISPLAY.phi(Vertex(i, 2 * k))) == label


def test_phi_canonical_figures():
    hf0 = HeightFunction.canonical(5, 0)
    for (i, k), label in PHI_CANONICAL_0.items():
        assert str(hf0.phi(Vertex(i, 2 * k))) == label
    hf1 = HeightFunction.canonical(5, 1)
    for (i, k), label in PHI_CANONICAL_1.items():
        assert str(hf1.phi(Vertex(i, 2 * k))) == label


def test_phi_closed_form_matches():
    for n in (*range(2, 9), 40, 63):
        for delta in (0, 1):
            hf = HeightFunction.canonical(n, delta)
            for v in hf.gamma_vertices():
                assert hf.phi(v) == phi_closed_form(n, v)


def test_random_twisted_height_function_needs_matching_n0():
    from snaketsys.verify import random_height_function

    for n, n0 in ((5, None), (5, 2), (4, 2)):
        with pytest.raises(DomainError):
            random_height_function(n, random.Random(0), TWISTED, n0)


def test_phi_reading_independent():
    rng = random.Random(1)
    from snaketsys.verify import random_height_function

    for n in range(2, 7):
        xi = random_height_function(n, rng)
        order_a, word_a = xi.compatible_reading()
        order_b, word_b = xi.compatible_reading(reverse_rows=True)
        from snaketsys import roots

        phi_a = dict(zip(order_a, roots.inversion_sequence(n, word_a)))
        phi_b = dict(zip(order_b, roots.inversion_sequence(n, word_b)))
        assert phi_a == phi_b


def test_phi_map_is_read_only():
    m = phi_map(XI_DISPLAY)
    v = next(iter(m))
    root = m[v]
    with pytest.raises(TypeError):
        m[v] = None
    with pytest.raises(TypeError):
        del m[v]
    assert phi_map(XI_DISPLAY) is m and m[v] == root and len(m) == 15


def test_gamma_window_size_check_raises(monkeypatch):
    # an explicit raise, not an assert, so that python -O keeps the check;
    # every reader of a fresh height function's window meets it
    monkeypatch.setattr(quivers.roots, "num_positive_roots", lambda n: -1)
    readers = (
        lambda hf: hf.window, HeightFunction.gamma_vertices, phi_map, lambda hf: hf.in_gamma(Vertex(1, 4)),
        HeightFunction.compatible_reading, lambda hf: hf.phi(Vertex(1, 4)),
    )
    for read in readers:
        with pytest.raises(InternalError, match=r"^\|Gamma\| = 15 != -1$"):
            read(HeightFunction.untwisted([2, 1, 2, 3, 4]))


def _shifted_height_functions(count):
    return [(HeightFunction.untwisted([b, b + 1, b + 2]),) for b in range(count)]


def _omega_keys(count):
    return list(itertools.islice(((n, j) for n in itertools.count(1) for j in range(1, n + 1)), count))


@pytest.mark.parametrize(
    "cached, keys",
    [
        (phi_map, _shifted_height_functions),
        (HeightFunction.gamma_vertices, _shifted_height_functions),
        (reineke.omega, _omega_keys),
    ],
    ids=["phi_map", "gamma_vertices", "omega"],
)
def test_caches_are_bounded(cached, keys):
    if hasattr(cached, "cache_info"):  # an lru_cache fills to its bound on distinct keys and no further
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for args in keys(maxsize + 20):
            cached(*args)
        assert cached.cache_info().currsize == maxsize
        return
    # a window is kept on its height function: built once, and freed with it,
    # so no module-level store grows with the height functions it has seen
    hfs = [hf for hf, in keys(300)]
    assert all(cached(hf) is cached(hf) for hf in hfs)
    refs = [weakref.ref(hf) for hf in hfs]
    del hfs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_phi_outside_window():
    with pytest.raises(OutsideWindow):
        XI_DISPLAY.phi(Vertex(1, -10))


def test_dualize_examples():
    hf5 = HeightFunction.canonical(5, 0)
    assert hf5.dualize(Vertex(1, 4)) == Vertex(5, -8)            # D(1,2) = (5,-4)
    hf3 = HeightFunction.untwisted([1, 2, 3])
    assert hf3.dualize(Vertex(2, 0), -1) == Vertex(2, 8)         # D^-1(2,0) = (2,4)
    tw = HeightFunction.big_theta(2)
    assert tw.dualize(Vertex(3, 4), -1) == Vertex(1, 10)         # D^-1(3,2) = (1,5)


def test_duality_preserves_order():
    rng = random.Random(2)
    for hf in (XI_DISPLAY, XI_TWISTED, HeightFunction.big_theta(3)):
        verts = [v for v in hf.gamma_vertices()]
        for _ in range(60):
            v, w = rng.choice(verts), rng.choice(verts)
            assert hf.preceq(v, w) == hf.preceq(hf.dualize(v), hf.dualize(w))


def test_regions():
    assert XI_TWISTED.region(Vertex(3, 1)) == Region.D   # (3,1/2) -> (4,1)
    assert XI_TWISTED.region(Vertex(3, -1)) == Region.U
    assert XI_TWISTED.region(Vertex(2, 0)) == Region.LT
    assert XI_TWISTED.region(Vertex(4, 2)) == Region.GT
    big = HeightFunction.big_theta(2)
    assert big.region(Vertex(2, 9)) == Region.U          # (2,9/2): (1,5) is the target

    # D exchanges LT<->GT and U<->D
    for hf in (XI_TWISTED, big):
        swap = {Region.LT: Region.GT, Region.GT: Region.LT, Region.U: Region.D, Region.D: Region.U}
        for v in hf.gamma_vertices():
            assert hf.region(hf.dualize(v)) == swap[hf.region(v)]


def test_renderers_smoke():
    dot = quiver_dot(XI_DISPLAY, 2, 6, phi_labels=True)
    assert '"2:6"' in dot and "a1,3" in dot
    txt = quiver_ascii(XI_TWISTED, -4, 4)
    assert "i\\k" in txt


def _random_quivers(seed):
    from snaketsys.verify import random_height_function

    rng = random.Random(seed)
    out = [random_height_function(n, rng) for n in range(1, 7) for _ in range(3)]
    return out + [random_height_function(2 * n0 - 1, rng, TWISTED, n0) for n0 in (2, 3, 4) for _ in range(4)]


def test_vertices_between_is_every_vertex_in_range():
    for xi in _random_quivers(23):
        for lo, hi in ((-7, 9), (0, 0), (3, 2), (-1, 12)):
            grid = [Vertex(i, k2) for i in range(1, xi.n + 1) for k2 in range(lo, hi + 1)]
            assert xi.vertices_between(lo, hi) == [v for v in grid if xi.is_vertex(v)], (xi, lo, hi)


def test_reversal_is_an_involution_that_reverses_arrows():
    for xi in _random_quivers(22):
        rev = xi.reversed()
        assert rev.flavor == xi.flavor and rev.reversed() == xi
        verts = xi.vertices_between(-6, 10)
        for v in verts:
            assert xi.reverse_vertex(v) in rev.vertices_between(-10, 6)
            for w in verts:
                rv, rw = xi.reverse_vertex(v), xi.reverse_vertex(w)
                assert rev.has_arrow(rw, rv) == xi.has_arrow(v, w)
                assert rev.preceq(rw, rv) == xi.preceq(v, w)


def _in_gamma_by_bounds(xi, v):
    """The window test written out: a vertex of the quiver with xi_i <= k <= n-1+xi_{i*}."""
    if not xi.is_vertex(v):
        return False
    return xi.xi2(v.i) <= v.k2 <= 2 * (xi.n - 1) + xi.xi2(xi.n + 1 - v.i)


def test_gamma_rows_match_the_window_bounds():
    # both flavors, reversed and shifted: every row, every height near it
    rng = random.Random(41)
    for xi in _random_quivers(29):
        shift2 = 2 * rng.randint(-5, 5)
        for hf in (xi, xi.reversed(), xi.shifted(shift2), xi.reversed().shifted(-shift2)):
            span = range(min(hf.values2) - 9, max(hf.values2) + 4 * hf.n + 9)
            for i in range(0, hf.n + 2):
                for k2 in span:
                    assert hf.in_gamma(Vertex(i, k2)) == _in_gamma_by_bounds(hf, Vertex(i, k2)), (hf, i, k2)
            for i in range(1, hf.n + 1):
                assert list(hf.gamma_row(i)) == [k2 for k2 in span if _in_gamma_by_bounds(hf, Vertex(i, k2))]
            window = [v for v in hf.vertices_between(span[0], span[-1]) if _in_gamma_by_bounds(hf, v)]
            assert sorted(hf.gamma_vertices()) == sorted(window)
