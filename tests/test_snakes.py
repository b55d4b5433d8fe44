import random

import pytest

from snaketsys.errors import InternalError, NotPrimeSnake, NotPrimeSnakePair, NotSnake, OutsideWindow
from snaketsys.lusztig import GAMMA_BIG_THETA, GAMMA_THETA, Carrier, rho, unit_datum
from snaketsys.quivers import TWISTED, UNTWISTED, HeightFunction, Region, Vertex
from snaketsys.snakes import (
    QRPair,
    _in_prime_window,
    _qr_run,
    _snake_position,
    in_prime_snake_position,
    in_snake_position,
    is_prime_snake,
    is_snake,
    qr_sequences,
    qr_twisted,
    qr_untwisted,
    snake_from_json,
    snake_to_json,
    split_prime,
    translate_twisted,
)
from snaketsys.verify import random_snake
from tests.test_quivers import _all_height_functions

XI3 = HeightFunction.untwisted([1, 2, 3])
BIG2 = HeightFunction.big_theta(2)


def V(i, k):
    # vertex from an undoubled (possibly half-integer) coordinate
    return Vertex(i, int(2 * k))


def test_untwisted_positions_figure():
    # n=5 figure: positions relative to the marked vertex (2,0)
    hf = HeightFunction.canonical(5, 1)
    star = V(2, 0)
    prime, snake_only = set(), set()
    for i in range(1, 6):
        for k in range(0, 8):
            v = V(i, k)
            if not hf.is_vertex(v):
                continue
            if in_prime_snake_position(hf, star, v):
                prime.add((i, k))
            elif in_snake_position(hf, star, v):
                snake_only.add((i, k))
    assert prime == {(1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 6), (5, 5)}
    assert snake_only == {(1, 5), (1, 7), (2, 6), (3, 7), (5, 7)}


def test_twisted_positions_figure():
    # n=5 twisted figure: relative to (2,-3); only the left half and the
    # middle row can be in snake position from a row < n0 vertex
    xi = HeightFunction.twisted((0, 2, 3, 4, 6), 3)
    star = V(2, -3)
    prime, snake_only = set(), set()
    for i in range(1, 6):
        for k2 in range(-8, 12):
            v = Vertex(i, k2)
            if not xi.is_vertex(v):
                continue
            if in_prime_snake_position(xi, star, v):
                prime.add((i, k2))
            elif in_snake_position(xi, star, v):
                snake_only.add((i, k2))
    assert prime == {(1, 0), (2, -2), (2, 2), (3, -1), (3, 3)}
    assert snake_only == {(1, 4), (1, 8), (2, 6), (2, 10), (3, 7), (3, 11)}
    assert not any(i > 3 for i, _ in prime | snake_only)


def test_small_position_examples():
    assert in_prime_snake_position(XI3, V(2, 0), V(2, 2))
    assert in_prime_snake_position(XI3, V(2, 2), V(1, 5))
    assert not in_snake_position(XI3, V(2, 0), V(3, 1))


def test_is_snake():
    p = (V(2, 0), V(2, 2), V(1, 5))
    assert is_snake(XI3, p) and is_prime_snake(XI3, p)
    assert is_snake(XI3, (V(2, 0),)) and is_prime_snake(XI3, (V(2, 0),))
    assert not is_snake(XI3, (V(2, 0), V(3, 1)))


def test_split_prime():
    p = (V(2, 0), V(2, 2), V(1, 5))
    assert split_prime(XI3, p) == [p]
    # (2,6) is beyond the prime window of (2,0): D^-1(2,0) = (2,4)
    assert split_prime(XI3, (V(2, 0), V(2, 6))) == [(V(2, 0),), (V(2, 6),)]
    mixed = (V(2, 0), V(2, 2), V(2, 8))
    assert split_prime(XI3, mixed) == [(V(2, 0), V(2, 2)), (V(2, 8),)]
    with pytest.raises(NotSnake):
        split_prime(XI3, (V(2, 0), V(3, 1)))


def test_qr_untwisted_examples():
    hf5 = HeightFunction.canonical(5, 1)
    assert qr_untwisted(hf5, V(2, 0), V(4, 4)) == QRPair((V(1, 1),), (V(5, 3),))
    assert qr_untwisted(XI3, V(2, 0), V(2, 2)) == QRPair((V(1, 1),), (V(3, 1),))
    assert qr_untwisted(XI3, V(2, 2), V(1, 5)) == QRPair((), (V(3, 3),))
    with pytest.raises(NotPrimeSnakePair):
        qr_untwisted(XI3, V(2, 0), V(2, 6))


def test_qr_untwisted_r_empty_boundary():
    # R is empty exactly at k'-k = 2n+2-i-i'
    hf5 = HeightFunction.canonical(5, 1)
    v, w = V(4, 0), V(4, 4)
    assert qr_untwisted(hf5, v, w).r == ()
    assert qr_untwisted(hf5, v, w).q == (V(2, 2),)


def test_qr_twisted_examples():
    assert qr_twisted(BIG2, V(3, 2), V(2, 4.5)) == QRPair((V(2, 2.5),), ())
    assert qr_twisted(BIG2, V(2, 4.5), V(2, 5.5)) == QRPair((V(1, 5),), ())
    with pytest.raises(NotPrimeSnakePair):
        qr_twisted(BIG2, V(3, 2), V(3, 6))  # beyond the prime window


def test_qr_twisted_two_member_r():
    # rows below the middle with a wide gap produce a two-point R
    big3 = HeightFunction.big_theta(3)
    pair = qr_twisted(big3, V(1, 1), V(2, 4))
    assert pair.q == ()
    assert pair.r == (V(3, 2.5), V(3, 3.5))


def test_qr_sequences_goldens():
    assert qr_sequences(XI3, (V(2, 0), V(2, 2), V(1, 5))) == QRPair(
        (V(1, 1),), (V(3, 1), V(3, 3))
    )
    assert qr_sequences(BIG2, (V(3, 2), V(2, 4.5), V(2, 5.5))) == QRPair(
        (V(2, 2.5), V(1, 5)), ()
    )
    pair = qr_sequences(XI3, (V(2, 0), V(2, 2)))
    assert pair == qr_untwisted(XI3, V(2, 0), V(2, 2))
    with pytest.raises(NotPrimeSnake):
        qr_sequences(XI3, (V(2, 0),))
    with pytest.raises(NotPrimeSnake):
        qr_sequences(XI3, (V(2, 0), V(2, 6)))


def _reference_snake_position(xi, v, w):
    """Snake position by its definition: v shifted by d2(v.i) reaches w, and
    a twisted pair runs from region LT or U to LT or D, or from GT or D to
    GT or U, on the enum HeightFunction.region."""
    if not xi.preceq(Vertex(v.i, v.k2 + xi.d2(v.i)), w):
        return False
    if not xi.twisted_flavor:
        return True
    rv, rw = xi.region(v), xi.region(w)
    return rw in ((Region.LT, Region.D) if rv in (Region.LT, Region.U) else (Region.GT, Region.U))


def test_pair_predicates_and_kernel_match_their_definitions():
    # every height function up to shift (untwisted n <= 5, twisted n0 in {2, 3}), every vertex pair of a
    # window two periods tall: the arithmetic predicates against preceq and the enum regions, the run
    # kernel's verdict against the two predicates and its Q/R against the public pair functions; then
    # every 3-point run that starts with a prime pair, so the kernel chains pairs on hoisted constants
    hfs = [hf for n in range(1, 6) for hf in _all_height_functions(n, UNTWISTED)]
    hfs += [hf for n0 in (2, 3) for hf in _all_height_functions(2 * n0 - 1, TWISTED)]
    seen = set()
    runs = 0
    for xi in hfs:
        qr_pair = qr_twisted if xi.twisted_flavor else qr_untwisted
        k2_lo, k2_hi = min(xi.values2) - 4, max(xi.values2) + 2 * xi.ntilde2()
        verts = xi.vertices_between(k2_lo, k2_hi)
        pairs = {}
        for v in verts:
            dual = xi.dualize(v, -1)
            for w in verts:
                snake = _snake_position(xi, v, w)
                assert snake == _reference_snake_position(xi, v, w), (xi, v, w)
                assert _in_prime_window(xi, v, w) == xi.preceq(w, dual), (xi, v, w)
                qr = pairs[v, w] = _qr_run(xi, (v, w))
                prime = in_prime_snake_position(xi, v, w)
                assert (qr is None) == (not (snake and _in_prime_window(xi, v, w))) == (not prime), (xi, v, w)
                if prime:
                    assert qr_sequences(xi, (v, w)) == qr_pair(xi, v, w) == qr, (xi, v, w)
                seen.add((xi.flavor, snake, prime))
        for (u, v), first in pairs.items():
            if first is not None:
                for w in verts:
                    second = pairs[v, w]
                    want = None if second is None else (first[0] + second[0], first[1] + second[1])
                    assert _qr_run(xi, (u, v, w)) == want, (xi, u, v, w)
                    runs += second is not None
    assert seen == {(f, s, p) for f in (UNTWISTED, TWISTED) for s, p in ((False, False), (True, False), (True, True))}
    assert runs > 1000


def _translate_checked(n0, pts):
    """translate_twisted, asserting rho(e(P)) = e(P-dagger) on the result."""
    out = translate_twisted(n0, pts)
    n = 2 * n0 - 1
    got = rho(unit_datum(Carrier(GAMMA_BIG_THETA, n), pts))
    assert got.nonzero() == unit_datum(Carrier(GAMMA_THETA, n), out).nonzero()
    return out


def test_translate_goldens():
    out = _translate_checked(4, (V(5, 4), V(5, 6), V(4, 8.5), V(4, 9.5)))
    assert out == (V(5, 3), V(5, 5), V(5, 7), V(4, 10))
    out15 = _translate_checked(8, (V(9, 8), V(9, 10), V(8, 12.5), V(7, 15), V(8, 17.5), V(9, 20)))
    assert out15 == (V(9, 7), V(9, 9), V(9, 11), V(7, 15), V(9, 19), V(9, 21))


def test_translate_left_half_is_identity():
    pts = (V(1, 1), V(1, 3))
    assert _translate_checked(2, pts) == pts


def test_translate_errors():
    with pytest.raises(OutsideWindow):
        translate_twisted(2, (V(1, -5),))
    with pytest.raises(NotSnake):
        translate_twisted(2, (V(1, 1), V(3, 2)))


def test_translate_matches_rho_randomly():
    rng = random.Random(9)
    for n0 in (2, 3):
        big = HeightFunction.big_theta(n0)
        n = big.n
        for _ in range(40):
            pts = random_snake(big, rng, rng.randint(1, 5), in_gamma=True)
            dagger = translate_twisted(n0, pts)
            got = rho(unit_datum(Carrier(GAMMA_BIG_THETA, n), pts))
            want = unit_datum(Carrier(GAMMA_THETA, n), dagger)
            assert got.nonzero() == want.nonzero()


def test_duality_preserves_snakes():
    rng = random.Random(10)
    from snaketsys.verify import random_height_function

    for flavor, n, n0 in (("untwisted", 4, None), ("twisted", 5, 3)):
        for _ in range(30):
            xi = random_height_function(n, rng, flavor, n0)
            pts = random_snake(xi, rng, rng.randint(2, 5), prime=bool(rng.getrandbits(1)))
            if len(pts) < 2:
                continue
            for sign in (1, -1):
                dual = tuple(xi.dualize(v, sign) for v in pts)
                assert is_snake(xi, dual) == is_snake(xi, pts)
                assert is_prime_snake(xi, dual) == is_prime_snake(xi, pts)


def test_random_generators_produce_snakes():
    rng = random.Random(12)
    for _ in range(25):
        pts = random_snake(XI3, rng, 4)
        assert is_snake(XI3, pts)
        pts = random_snake(BIG2, rng, 4, prime=True)
        assert is_prime_snake(BIG2, pts)


def test_snake_json_roundtrip():
    pts = (V(3, 2), V(2, 4.5), V(2, 5.5))
    obj = snake_to_json(BIG2, pts)
    assert obj["flavor"] == "twisted" and obj["n0"] == 2
    snake = snake_from_json(obj)
    assert snake.xi == BIG2 and snake.points == pts
    obj2 = snake_to_json(XI3, (V(2, 0),))
    assert "n0" not in obj2
    assert snake_from_json(obj2).xi == XI3


def _qr_by_root_splitting(xi, v, w):
    """Independent Q/R oracle from the socle-weight bookkeeping.

    Normalize the pair so the probe sits at (j, -1); the far vertex then
    carries an interval root a_{x,y} with x <= j <= y, and the socle factors
    are the unique window vertices labelled a_{x,j-1} and a_{j+1,y} (absent
    when the interval degenerates).  Works for any untwisted prime pair.
    """
    from snaketsys import roots as R
    from snaketsys.quivers import HeightFunction, phi_closed_form

    n = xi.n
    j = v.i
    shift2 = -2 - v.k2
    delta = j % 2
    window = HeightFunction.canonical(n, delta)
    moved_w = Vertex(w.i, w.k2 + shift2)
    assert window.in_gamma(moved_w)
    root = phi_closed_form(n, moved_w)
    assert root.lo <= j <= root.hi
    labels = {phi_closed_form(n, u): u for u in window.gamma_vertices()}

    def locate(lo, hi):
        if lo > hi:
            return ()
        u = labels[R.Root(lo, hi, 1)]
        return (Vertex(u.i, u.k2 - shift2),)

    return QRPair(locate(root.lo, j - 1), locate(j + 1, root.hi))


def test_qr_untwisted_against_root_splitting_oracle():
    from snaketsys.quivers import HeightFunction
    from snaketsys.verify import snake_candidates

    for n in range(1, 7):
        for delta in (0, 1):
            xi = HeightFunction.canonical(n, delta).shifted(-4)
            span2 = 2 * xi.ntilde2()
            verts = []
            for i in range(1, n + 1):
                lo2 = xi.xi2(i)
                start = -span2 + (lo2 + span2) % xi.d2(i)
                verts.extend(Vertex(i, k2) for k2 in range(start, span2, xi.d2(i)))
            for v in verts:
                for w in snake_candidates(xi, v, prime=True):
                    assert qr_untwisted(xi, v, w) == _qr_by_root_splitting(xi, v, w), (v, w)


def test_qr_twisted_consistent_with_translation():
    # for an in-window probe whose translate is a single untwisted cuspidal,
    # the twisted socle factors must translate to the untwisted ones of the
    # translated pair
    from snaketsys.quivers import Region
    from snaketsys.verify import snake_candidates

    for n0 in (2, 3, 4):
        big = HeightFunction.big_theta(n0)
        theta = HeightFunction.theta(n0)
        checked = 0
        for v in big.gamma_vertices():
            vt = translate_twisted(n0, (v,))
            if len(vt) != 1:
                continue  # probes in the right half translate to two factors
            for w in snake_candidates(big, v, prime=True):
                if not big.in_gamma(w):
                    continue
                wt = translate_twisted(n0, (w,))
                if len(wt) != 1:
                    continue
                if not in_prime_snake_position(theta, vt[0], wt[0]):
                    # region-crossing pairs merge or reorder under
                    # translation; no ordered untwisted pair to compare
                    continue
                qtw, rtw = qr_twisted(big, v, w)
                want = qr_untwisted(theta, vt[0], wt[0])
                got_q = translate_twisted(n0, qtw) if qtw else ()
                got_r = translate_twisted(n0, rtw) if rtw else ()
                assert got_q == want.q and got_r == want.r, (v, w)
                checked += 1
        assert checked >= 3


def test_qr_twisted_commutes_with_integer_shifts():
    # the twisted Q/R formulas run on any twisted quiver as is: on a quiver
    # that is big_theta's moved by s2, Q/R of a prime pair is Q/R of the
    # pair moved back onto big_theta, moved by s2 again
    from snaketsys.snakes import twisted_parity_shift2
    from snaketsys.verify import random_height_function

    def moved(pts, s2):
        return tuple(Vertex(u.i, u.k2 + s2) for u in pts)

    rng = random.Random(25)
    pairs = 0
    for n0 in (2, 3, 4):
        big = HeightFunction.big_theta(n0)
        quivers = [big.shifted(s2) for s2 in (2, -4, 6)]
        quivers += [random_height_function(2 * n0 - 1, rng, "twisted", n0) for _ in range(4)]
        for xi in quivers:
            s2 = twisted_parity_shift2(xi)
            verts = xi.vertices_between(min(xi.values2) - 4, max(xi.values2) + 2 * xi.ntilde2())
            for v in verts:
                for w in verts:
                    if not in_prime_snake_position(xi, v, w):
                        continue
                    (v0, w0) = moved((v, w), -s2)
                    assert in_prime_snake_position(big, v0, w0)
                    want = qr_twisted(big, v0, w0)
                    assert qr_twisted(xi, v, w) == QRPair(moved(want.q, s2), moved(want.r, s2)), (xi, v, w)
                    pairs += 1
    assert pairs > 1000


def _unvalidated_twisted(values2, n0):
    """A twisted height function built without validation, as HeightFunction.reversed builds one."""
    hf = object.__new__(HeightFunction)
    hf.__dict__.update(n=len(values2), flavor="twisted", values2=tuple(values2), n0=n0)
    return hf


def test_parity_shift_guard_raises_on_a_parity_mismatched_function():
    # the guard reads the heights directly; a function whose rows do not share
    # one shift to big_theta's parity class is a bug, not a domain error
    from snaketsys.snakes import twisted_parity_shift2

    assert HeightFunction.big_theta(3).values2 == (2, 4, 5, 6, 8)
    assert twisted_parity_shift2(_unvalidated_twisted((4, 6, 7, 8, 10), 3)) == 2
    assert twisted_parity_shift2(_unvalidated_twisted((2, 4, 7, 6, 8), 3)) == 0  # the middle row is not read
    for values2 in ((2, 4, 5, 6, 10), (2, 6, 5, 6, 8), (4, 6, 7, 8, 8)):
        with pytest.raises(InternalError, match="^twisted quiver parity mismatch$"):
            twisted_parity_shift2(_unvalidated_twisted(values2, 3))
    with pytest.raises(InternalError, match="^odd doubled shift 1 to big_theta$"):
        twisted_parity_shift2(_unvalidated_twisted((3, 4, 5, 6, 8), 3))


def test_dual_equivariance_sweep_visits_every_prime_pair():
    # the sweep walks every vertex v of canonical(n, 0) with 0 <= k2 <= 4*ntilde;
    # count the prime pairs (v, w) independently, testing every (i, k2) of the
    # range for v and every w up to ntilde past it
    from snaketsys import verify

    ns = (2, 3, 4, 5, 6)
    want = 0
    for n in ns:
        xi = HeightFunction.canonical(n, 0)
        top2 = 4 * xi.ntilde2()
        grid = [Vertex(i, k2) for i in range(1, n + 1) for k2 in range(0, top2 + xi.ntilde2() + 1)]
        ws = [w for w in grid if xi.is_vertex(w)]
        for v in ws:
            if v.k2 <= top2:
                want += sum(in_prime_snake_position(xi, v, w) for w in ws)
    sweep = {s.name: s for s in verify.SWEEPS}["qr-dual-equivariance"]
    res = verify.run(sweep._replace(cases=lambda trials: verify.canonical_prime_pairs(ns)), 1, seed=10)
    assert res.ok and res.skipped == 0
    assert res.passed == want
