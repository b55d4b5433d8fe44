import random
import re

import pytest

from snaketsys.errors import InternalError, NotPrimeSnake, NotSnake, OutsideWindow, TooShort
from snaketsys.quivers import UNTWISTED, HeightFunction, Region, Vertex, _vertex, big_theta2
from snaketsys.realize import Realization, relation_monomials
from snaketsys.snakes import (
    _in_prime_window,
    _prime_position,
    _snake_position,
    in_prime_snake_position,
    in_snake_position,
    is_prime_snake,
    is_snake,
    split_prime,
)
from snaketsys.tsystem import (
    HypothesesReport,
    _on_ray,
    _predict_left,
    check_theorem_hypotheses,
    extended_tsystem,
    predicted_tfd_left,
    predicted_tfd_right,
    relation_json,
    relation_latex,
    relation_text,
    tfd_left_via_epsilon,
    tfd_via_epsilon,
)
from snaketsys.verify import random_height_function, random_snake

XI3 = HeightFunction.untwisted([1, 2, 3])
BIG2 = HeightFunction.big_theta(2)


def V(i, k):
    return Vertex(i, int(2 * k))


def test_untwisted_golden_relation():
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    assert rel.term_b == (V(2, 0), V(2, 2))
    assert rel.term_c == (V(2, 2), V(1, 5))
    assert rel.term_a == (V(2, 0), V(2, 2), V(1, 5))
    assert rel.term_d == (V(2, 2),)
    assert rel.first_q == (V(1, 1),)
    assert rel.first_r == (V(3, 1), V(3, 3))
    assert rel.real is rel.prime is rel.hypotheses_ok is True
    # constants of the class, not stored per record
    assert not {"real", "prime", "hypotheses_ok"} & set(rel._fields)


def test_twisted_golden_relation():
    rel = extended_tsystem(BIG2, (V(3, 2), V(2, 4.5), V(2, 5.5)))
    assert rel.first_q == (V(2, 2.5), V(1, 5))
    assert rel.first_r == ()
    assert rel.term_d == (V(2, 4.5),)
    assert rel.hypotheses_ok


def test_relation_errors():
    with pytest.raises(TooShort):
        extended_tsystem(XI3, (V(2, 0),))
    with pytest.raises(NotPrimeSnake):
        extended_tsystem(XI3, (V(2, 0), V(2, 6)))
    with pytest.raises(NotPrimeSnake):
        extended_tsystem(XI3, (V(2, 0), V(3, 1)))


def test_relation_rejects_exactly_the_non_prime_inputs():
    # primality read off the left predictions agrees with is_prime_snake, and
    # the error names a snake's prime segments or says it is no snake
    rng = random.Random(26)
    kinds = {"prime": 0, "mixed": 0, "no prime pair": 0, "not a snake": 0}
    quivers = [HeightFunction.canonical(4, 0), random_height_function(5, rng)]
    quivers += [BIG2, random_height_function(5, rng, "twisted", 3)]
    for xi in quivers:
        for _ in range(80):
            pts = list(random_snake(xi, rng, rng.randint(2, 8), prime=rng.random() < 0.3))
            if len(pts) < 2:
                continue
            if rng.random() < 0.3:
                rng.shuffle(pts)
            pts = tuple(pts)
            if is_prime_snake(xi, pts):
                assert extended_tsystem(xi, pts).term_a == pts
                kinds["prime"] += 1
                continue
            if is_snake(xi, pts):
                want = f"snake is not prime; prime segments: {split_prime(xi, pts)}"
                primes = any(_prime_position(xi, v, w) for v, w in zip(pts, pts[1:]))
                kinds["mixed" if primes else "no prime pair"] += 1
            else:
                want = "input is not a snake"
                kinds["not a snake"] += 1
            with pytest.raises(NotPrimeSnake, match=f"^{re.escape(want)}$"):
                extended_tsystem(xi, pts)
    assert min(kinds.values()) > 0, kinds


def test_length_two_relation_has_unit_middle():
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2)))
    assert rel.term_d == ()
    assert "1" in relation_text(rel)


def test_slice_multiset_identity():
    rng = random.Random(4)
    for _ in range(40):
        flavor = rng.choice(("untwisted", "twisted"))
        if flavor == "untwisted":
            xi = random_height_function(rng.randint(2, 5), rng)
        else:
            n0 = rng.randint(2, 3)
            xi = random_height_function(2 * n0 - 1, rng, flavor, n0)
        pts = random_snake(xi, rng, rng.randint(2, 5), prime=True)
        if len(pts) < 2:
            continue
        rel = extended_tsystem(xi, pts)
        left = sorted(rel.term_b + rel.term_c)
        right = sorted(rel.term_a + rel.term_d)
        assert left == right


def test_relation_flags():
    # reality always holds for snake heads; primality is combinatorial
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    assert relation_json(rel)["flags"] == {"real": True, "prime": True}
    assert is_snake(XI3, (V(2, 0), V(2, 6))) and not is_prime_snake(XI3, (V(2, 0), V(2, 6)))
    with pytest.raises(NotPrimeSnake):
        extended_tsystem(XI3, (V(2, 0), V(2, 6)))
    assert is_prime_snake(XI3, (V(2, 0),))


def test_predicted_tfd_examples():
    hf5 = HeightFunction.canonical(5, 1)
    assert predicted_tfd_left(hf5, V(2, 0), (V(2, 2), V(2, 4))) == 1
    assert predicted_tfd_left(hf5, V(2, 0), (V(3, 1), V(3, 3))) == 0  # boundary ray
    # twisted vanishing: probe on the middle row pointing up, snake in the
    # right-or-up half
    big3 = HeightFunction.big_theta(3)
    probe = V(3, 1.5)
    assert big3.region(probe).value == "U"
    start = V(4, 5)
    assert predicted_tfd_left(big3, probe, (start,)) == 0
    # far snake: everything strongly commutes
    assert predicted_tfd_left(XI3, V(2, 0), (V(2, 6), V(2, 8))) == 0
    assert predicted_tfd_right(XI3, (V(2, 0), V(2, 2)), V(1, 5)) == 1


def test_hypotheses_prime_all_one():
    rng = random.Random(6)
    for _ in range(25):
        xi = random_height_function(rng.randint(2, 5), rng)
        pts = random_snake(xi, rng, rng.randint(2, 4), prime=True)
        if len(pts) < 2:
            continue
        report = check_theorem_hypotheses(xi, pts)
        assert report.all_one
        assert len(report.left) == len(report.right) == len(pts) - 1


def test_hypotheses_nonprime_contains_zero():
    report = check_theorem_hypotheses(XI3, (V(2, 0), V(2, 6)))
    assert 0 in report.left + report.right
    assert not report.all_one


def test_hypotheses_epsilon_consistent():
    rng = random.Random(8)
    for flavor in ("untwisted", "twisted"):
        done = 0
        while done < 10:
            if flavor == "untwisted":
                xi = random_height_function(rng.randint(2, 5), rng)
            else:
                n0 = rng.randint(2, 3)
                xi = random_height_function(2 * n0 - 1, rng, flavor, n0)
            pts = random_snake(xi, rng, 3, prime=True)
            if len(pts) < 2:
                continue
            done += 1
            assert check_theorem_hypotheses(xi, pts).all_one
            rows = _per_slice_sweep(xi, pts, via_epsilon=True)
            assert all(pred == eps for *_, pred, eps in rows if pred is not None and eps is not None)
            assert any(eps == 1 for *_, eps in rows)


def _per_slice_sweep(xi, pts, via_epsilon=False):
    """Reference oracle: the O(p^3) sweep, one prediction per sub-slice, as
    (side, a, b, predicted, epsilon) rows; with via_epsilon, epsilon is the
    bridge's exact value, None where it finds no normalization."""
    checks = []
    p = len(pts)
    for a in range(1, p):
        for b in range(a + 1, p + 1):
            pred = predicted_tfd_left(xi, pts[a - 1], pts[a:b])
            eps = None
            if via_epsilon:
                try:
                    eps = tfd_via_epsilon(xi, pts[a - 1], pts[a:b], "left")
                except OutsideWindow:
                    eps = None
            checks.append(("left", a, b, pred, eps))
            pred = predicted_tfd_right(xi, pts[a - 1:b - 1], pts[b - 1])
            eps = None
            if via_epsilon:
                try:
                    eps = tfd_via_epsilon(xi, pts[b - 1], pts[a - 1:b - 1], "right")
                except OutsideWindow:
                    eps = None
            checks.append(("right", a, b, pred, eps))
    return tuple(checks)


def _report_checks(report):
    """The report's prediction for each check, in _per_slice_sweep order:
    slice [a, b] reads left[a-1] and right[b-2]."""
    p = len(report.left) + 1
    return tuple(
        (side, a, b, predicted)
        for a in range(1, p)
        for b in range(a + 1, p + 1)
        for side, predicted in (("left", report.left[a - 1]), ("right", report.right[b - 2]))
    )


def _random_snake_case(rng, flavor, prime, max_len):
    if flavor == "untwisted":
        xi = random_height_function(rng.randint(2, 7), rng)
    else:
        n0 = rng.randint(2, 4)
        xi = random_height_function(2 * n0 - 1, rng, flavor, n0)
    return xi, random_snake(xi, rng, rng.randint(2, max_len), prime=prime)


def test_sweep_matches_per_slice_oracle():
    rng = random.Random(12)
    seen = set()
    for flavor in ("untwisted", "twisted"):
        for prime in (True, False):
            for _ in range(30):
                xi, pts = _random_snake_case(rng, flavor, prime, 12)
                checks = _report_checks(check_theorem_hypotheses(xi, pts))
                assert checks == tuple(row[:4] for row in _per_slice_sweep(xi, pts))
                seen.update(row[3] for row in checks)
    assert seen == {0, 1}


def test_sweep_matches_per_slice_oracle_via_epsilon():
    # the report against the oracle, and each prediction against the
    # bridge's exact value wherever both exist
    rng = random.Random(13)
    compared = 0
    for flavor in ("untwisted", "twisted"):
        for prime in (True, False):
            for _ in range(4):
                xi, pts = _random_snake_case(rng, flavor, prime, 4)
                rows = _per_slice_sweep(xi, pts, via_epsilon=True)
                assert _report_checks(check_theorem_hypotheses(xi, pts)) == tuple(row[:4] for row in rows)
                both = [(pred, eps) for *_, pred, eps in rows if pred is not None and eps is not None]
                assert all(pred == eps for pred, eps in both), (xi, pts, rows)
                compared += len(both)
    assert compared


def test_all_one_matches_the_checks():
    # the report's O(p) all_one agrees with the p(p-1) checks it stands for
    rng = random.Random(14)
    seen = set()
    for flavor in ("untwisted", "twisted"):
        for prime in (True, False):
            for t in range(30):
                xi, pts = _random_snake_case(rng, flavor, prime, 8 if t % 5 else 4)
                report = check_theorem_hypotheses(xi, pts)
                assert report.all_one == all(row[3] == 1 for row in _per_slice_sweep(xi, pts))
                seen.add(report.all_one)
    assert seen == {True, False}


def test_relation_validates_once_and_builds_no_checks(monkeypatch):
    # one vertex check per point, primality read off the p-1 left predictions,
    # no right prediction, and no snake predicate, HypothesesReport or
    # validated HeightFunction at all
    from collections import Counter

    from snaketsys import realize, snakes, tsystem

    calls = Counter()
    seen = Counter()  # vertices passed to is_vertex

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("is_prime_snake", "is_snake"):
        wrapper = counted(name, getattr(snakes, name))
        monkeypatch.setattr(snakes, name, wrapper)
        if hasattr(tsystem, name):
            monkeypatch.setattr(tsystem, name, wrapper)
    monkeypatch.setattr(tsystem, "HypothesesReport", counted("HypothesesReport", HypothesesReport))
    monkeypatch.setattr(HeightFunction, "__post_init__", counted("validate", HeightFunction.__post_init__))
    monkeypatch.setattr(realize, "_factor_items", counted("_factor_items", realize._factor_items))
    predict_left, is_vertex = tsystem._predict_left, HeightFunction.is_vertex

    def predict(xi, v, w):
        calls[f"predict:{xi.values2}"] += 1  # left on xi, right on xi.reversed()
        return predict_left(xi, v, w)

    def vertex_check(xi, v):
        seen[v] += 1
        return is_vertex(xi, v)

    monkeypatch.setattr(tsystem, "_predict_left", predict)
    monkeypatch.setattr(HeightFunction, "is_vertex", vertex_check)
    rng = random.Random(15)
    for xi in (HeightFunction.canonical(4, 0), BIG2):
        while True:
            pts = random_snake(xi, rng, 12, prime=True)
            if len(pts) == 12:
                break
        left, right = f"predict:{xi.values2}", f"predict:{xi.reversed().values2}"
        assert left != right
        calls.clear()
        seen.clear()
        rel = extended_tsystem(xi, pts)
        assert rel.hypotheses_ok
        assert calls == {left: 11}
        # the snake's points once each, then each Q/R point once (the kernels' guard)
        assert sum(seen.values()) == 12 + len(rel.first_q) + len(rel.first_r)
        assert all(seen[v] == 1 for v in pts)
        calls.clear()
        seen.clear()
        real = Realization.qdatum_a(4) if xi.flavor == UNTWISTED else Realization.qdatum_b(2)
        relation_monomials(rel, real)
        assert calls == {"_factor_items": 1}
        assert seen == dict.fromkeys(pts + rel.first_q + rel.first_r, 1)
        # the counters see the public paths, which still validate and build
        report = check_theorem_hypotheses(xi, pts)
        assert len(report.left) == len(report.right) == 11 and calls["is_snake"] == 1
        assert calls["HypothesesReport"] == 1 and calls["validate"] == 0
        assert xi.reversed().reversed() == xi and calls["validate"] == 0  # reversal is not validated


def test_bridge_bug_is_not_indeterminate(monkeypatch):
    # verify's prediction sweep reads only OutsideWindow as "no value"; a
    # library bug in the bridge is a failed check
    from snaketsys import tsystem, verify

    sweep = next(s for s in verify.SWEEPS if s.name == "epsilon-predictions-untwisted")
    clean = verify.run(sweep, 20, 0)
    assert clean.ok and (clean.passed, clean.skipped) == (20, 0)
    bridge, calls = tsystem.tfd_via_epsilon, []

    def unreachable_every_other_call(*args):
        calls.append(args)
        if len(calls) % 2:
            raise OutsideWindow("no admissible normalization")
        return bridge(*args)

    monkeypatch.setattr(tsystem, "tfd_via_epsilon", unreachable_every_other_call)
    res = verify.run(sweep, 20, 0)
    assert res.ok and (res.passed, res.skipped, len(calls)) == (20, 20, 40)
    assert res.details["bridge_unreachable"] == 20

    def broken(*args):
        raise InternalError("bridge bug")

    monkeypatch.setattr(tsystem, "tfd_via_epsilon", broken)
    res = verify.run(sweep, 20, 0)
    assert (res.passed, res.failed, res.skipped) == (0, 20, 0)
    assert res.first_failure == "InternalError: bridge bug"


def test_verify_ends_a_sweep_whose_every_draw_is_skipped(monkeypatch):
    # an until sweep stops after 10 * trials draws that decide nothing, and
    # reports that as one failure instead of drawing forever
    from snaketsys import tsystem, verify

    def unreachable(*args):
        raise OutsideWindow("no admissible normalization")

    monkeypatch.setattr(tsystem, "tfd_via_epsilon", unreachable)
    sweep = next(s for s in verify.SWEEPS if s.name == "epsilon-predictions-untwisted")
    res = verify.run(sweep, 5, 0)
    assert (res.passed, res.failed) == (0, 1) and res.skipped <= 50
    assert res.first_failure == "50 draws decided nothing, 0 of 5 checks made"
    assert res.details["elapsed_s"] < 1


def test_bridge_matches_predictions_on_goldens():
    assert tfd_via_epsilon(XI3, V(2, 0), (V(2, 2), V(1, 5)), "left") == 1
    assert tfd_via_epsilon(XI3, V(1, 5), (V(2, 0), V(2, 2)), "right") == 1
    assert tfd_via_epsilon(BIG2, V(3, 2), (V(2, 4.5), V(2, 5.5)), "left") == 1
    assert tfd_via_epsilon(BIG2, V(2, 5.5), (V(3, 2), V(2, 4.5)), "right") == 1
    # vanishing case: the ray probe
    hf5 = HeightFunction.canonical(5, 1)
    assert tfd_via_epsilon(hf5, V(2, 0), (V(3, 1), V(3, 3)), "left") == 0


_CANONICAL4, _BIG3 = HeightFunction.canonical(4, 0), HeightFunction.big_theta(3)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("xi,pts,probe", [
    (_CANONICAL4, (V(1, 2),), V(1, 0.5)),  # half-integer k on an untwisted row
    (_CANONICAL4, (V(1, 2),), V(1, 1)),  # off the row's lattice
    (_CANONICAL4, (V(1, 2),), V(0, 0)),
    (_CANONICAL4, (V(1, 2),), V(5, 2)),  # row n + 1
    (_CANONICAL4, (V(1, 2),), V(9, 4)),
    (_BIG3, (V(1, 1), V(1, 3)), V(1, 0.5)),
    (_BIG3, (V(1, 1), V(1, 3)), V(3, 2)),  # the middle row holds half-integers only
    (_BIG3, (V(1, 1), V(1, 3)), V(0, 2)),
    (_BIG3, (V(1, 1), V(1, 3)), V(6, 6)),  # row n + 1
])
def test_bridge_rejects_a_probe_off_the_quiver(xi, pts, probe, side):
    # the bridge checks its probe as Snake checks its points, and as the
    # predictions do, which return None there; never OutsideWindow, which
    # counts as a documented outcome of a valid configuration
    assert is_snake(xi, pts) and not xi.is_vertex(probe)
    assert predicted_tfd_left(xi, probe, pts) is None and predicted_tfd_right(xi, pts, probe) is None
    with pytest.raises(NotSnake) as exc:
        tfd_via_epsilon(xi, probe, pts, side)
    assert str(exc.value) == f"{probe} is not a vertex of the quiver"
    assert not isinstance(exc.value, OutsideWindow)
    if xi.flavor == UNTWISTED:
        with pytest.raises(NotSnake, match="is not a vertex of the quiver"):
            tfd_left_via_epsilon(xi, probe, pts)


def test_relation_rendering():
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    txt = relation_text(rel)
    assert txt.startswith("0 -> S((1,1))")
    latex = relation_latex(rel)
    assert latex.startswith(r"0 \to \mathbf{S}")
    obj = relation_json(rel)
    assert set(obj) == {"flavor", "P", "B", "C", "A", "D", "Q", "R", "flags", "hypotheses_ok"}
    assert obj["Q"] == [{"i": 1, "k2": 2}]
    assert obj["flags"] == {"real": True, "prime": True}
    assert obj["hypotheses_ok"] is True


def _segments(big, points):
    regions = [big.region(v) for v in points]
    segs = []
    s = 0
    for t in range(1, len(points) + 1):
        left_half = regions[s].value == "lt"
        if t == len(points) or (regions[t].value == "lt") != left_half:
            segs.append((s, t))
            s = t
    return segs


def test_twisted_untwisted_slice_coherence():
    # slices that respect the region-segment boundaries translate verbatim
    import random as _random

    from snaketsys.snakes import translate_twisted

    rng = _random.Random(13)
    checked = 0
    while checked < 15:
        n0 = rng.randint(2, 4)
        big = HeightFunction.big_theta(n0)
        pts = random_snake(big, rng, rng.randint(2, 6), in_gamma=True)
        if len(pts) < 2:
            continue
        segs = _segments(big, pts)
        boundaries = {s for s, _ in segs} | {len(pts)}
        dagger_parts = {s: translate_twisted(n0, pts[s:t]) for s, t in segs}
        for a in sorted(boundaries - {len(pts)}):
            for b in sorted(boundaries):
                if b <= a:
                    continue
                spliced = tuple(
                    v for s, t in segs if a <= s and t <= b for v in dagger_parts[s]
                )
                assert translate_twisted(n0, pts[a:b]) == spliced
                checked += 1


def test_rank_one_degenerates_to_unit_first_term():
    xi = HeightFunction.untwisted([0])
    rel = extended_tsystem(xi, (V(1, 0), V(1, 2)))
    assert rel.first_q == () and rel.first_r == ()
    assert rel.term_d == ()
    assert rel.hypotheses_ok


# -- the right side folded onto the left by the coordinate reversal ---------


def reference_predicted_tfd_right(xi, points, v):
    """Predicted tfd(S(P), S_v), written out for the probe after the snake:
    the reference for predicted_tfd_right, which the library derives from
    predicted_tfd_left by the coordinate reversal."""
    pts = tuple(points)
    if not is_snake(xi, pts):
        return None
    last = pts[-1]
    if in_snake_position(xi, last, v):
        return 1 if xi.preceq(v, xi.dualize(last, -1)) else 0
    if not xi.prec(last, v):
        return None
    if not xi.preceq(v, xi.dualize(last, -1)):
        return 0
    if xi.flavor == UNTWISTED:
        return 0
    if _on_ray(xi, last, v):
        return 0
    rl, rv = xi.region(last), xi.region(v)
    if rl in (Region.LT, Region.U) and rv == Region.U:
        return 0
    if rl in (Region.GT, Region.D) and rv == Region.D:
        return 0
    return None


def _window(xi, k2_lo, k2_hi):
    """The vertices with k2_lo <= k2 <= k2_hi, found by testing every (i, k2)."""
    return [
        Vertex(i, k2) for k2 in range(k2_lo, k2_hi + 1) for i in range(1, xi.n + 1) if xi.is_vertex(Vertex(i, k2))
    ]


def _snakes_in(xi, verts, max_len):
    """Every snake of length <= max_len with its points in verts."""
    level = [(v,) for v in verts]
    out = list(level)
    for _ in range(max_len - 1):
        level = [s + (w,) for s in level for w in verts if in_snake_position(xi, s[-1], w)]
        out += level
    return out


def _small_quivers():
    """Untwisted n <= 4 and twisted n0 <= 3, each unshifted and shifted by one."""
    for s2 in (0, 2):
        for n in range(1, 5):
            for delta in (0, 1):
                yield HeightFunction.canonical(n, delta).shifted(s2)
        for n0 in (2, 3):
            yield HeightFunction.big_theta(n0).shifted(s2)


def test_right_prediction_matches_reference_on_small_windows():
    seen = set()
    for xi in _small_quivers():
        verts = _window(xi, 0, 10)
        for pts in _snakes_in(xi, verts, 3):
            for v in verts:
                want = reference_predicted_tfd_right(xi, pts, v)
                assert predicted_tfd_right(xi, pts, v) == want, (xi, pts, v)
                seen.add((xi.flavor, want))
    assert seen == {(f, x) for f in ("untwisted", "twisted") for x in (0, 1, None)}


def _trusted_quivers():
    """Untwisted n <= 5 and twisted n0 <= 3, the staircases and a random shape
    of each rank: plain, shifted by one and reversed."""
    rng = random.Random(22)
    base = [HeightFunction.canonical(n, delta) for n in range(1, 6) for delta in (0, 1)]
    base += [random_height_function(n, rng) for n in range(2, 6)]
    base += [HeightFunction.big_theta(n0) for n0 in (2, 3)]
    base += [random_height_function(2 * n0 - 1, rng, "twisted", n0) for n0 in (2, 3)]
    for xi in base:
        for s2 in (0, 2):
            yield xi.shifted(s2)
        yield xi.reversed()


def _trusted_window(xi):
    """Two duality periods above the lowest height, so that prime pairs occur."""
    return min(xi.values2) - 2, max(xi.values2) + 2 * xi.ntilde2()


def _reference_reaches(xi, v, w):
    """preceq written out per flavor: 2|i - i'| untwisted, big_theta heights twisted, v == w on untwisted n = 1."""
    gap2 = w.k2 - v.k2
    if xi.twisted_flavor:
        return gap2 >= abs(big_theta2(xi.n0, w.i) - big_theta2(xi.n0, v.i))
    return v == w if xi.n == 1 else gap2 >= 2 * abs(w.i - v.i)


def _every_twisted(n0):
    """Every twisted height function of rank 2*n0 - 1 with xi_1 = 0, one per choice of steps and middle offset."""
    for low in _every_untwisted(n0 - 1):
        for high in _every_untwisted(n0 - 1):
            for step in (-2, 2):
                for offset in (-1, 1):
                    left = list(low.values2)
                    after = left[-1] + step
                    middle = min(left[-1], after) + offset
                    yield HeightFunction.twisted(left + [middle] + [after + x for x in high.values2], n0)


def _assert_valid_reversal(xi):
    """reversed() is not validated: it must equal the function rebuilt through the validating
    constructor, be an involution, and share the row heights, which depend only on the shape."""
    rev = xi.reversed()
    rebuilt = HeightFunction(rev.n, rev.flavor, rev.values2, rev.n0)
    assert type(rev) is HeightFunction and rev == rebuilt and hash(rev) == hash(rebuilt), xi
    assert rev.reversed() == xi and rev._rows is xi._rows == rebuilt._rows, xi


def test_trusted_forms_match_the_public_ones():
    seen = set()
    shapes = [xi for n in range(1, 7) for xi in _every_untwisted(n)]
    shapes += [xi for n0 in (2, 3, 4) for xi in _every_twisted(n0)]
    for xi in shapes:
        for s2 in (0, 2):
            _assert_valid_reversal(xi.shifted(s2))
    for xi in _trusted_quivers():
        _assert_valid_reversal(xi)
        verts = _window(xi, *_trusted_window(xi))
        for v in verts:
            assert xi.is_vertex(xi.dualize(v, -1))  # the trusted prime test relies on D keeping vertices
            made = _vertex((v.i, v.k2))
            assert type(made) is Vertex and made == v and str(made) == str(v) and hash(made) == hash(v)
            assert _vertex((xi.n + 1 - v.i, -v.k2)) == xi.reverse_vertex(v)
            if xi.twisted_flavor:
                assert xi._region(v) == xi.region(v), (xi, v)
            for w in verts:
                assert xi.preceq(v, w) == _reference_reaches(xi, v, w), (xi, v, w)
                assert _in_prime_window(xi, v, w) == xi.preceq(w, xi.dualize(v, -1)), (xi, v, w)
                assert _snake_position(xi, v, w) == in_snake_position(xi, v, w), (xi, v, w)
                assert _prime_position(xi, v, w) == in_prime_snake_position(xi, v, w), (xi, v, w)
                got = _predict_left(xi, v, w)
                assert got == predicted_tfd_left(xi, v, (w,)), (xi, v, w)
                seen.add((xi.flavor, got))
    assert seen == {(f, x) for f in ("untwisted", "twisted") for x in (0, 1, None)}


def test_left_prediction_is_one_exactly_on_prime_pairs():
    # extended_tsystem reads primality off the left predictions: on every
    # vertex pair, _predict_left is 1 iff the pair is in prime snake position
    rng = random.Random(24)
    quivers = [HeightFunction.canonical(n, delta) for n in range(1, 7) for delta in (0, 1)]
    quivers += [HeightFunction.theta(n0) for n0 in (2, 3)]
    quivers += [random_height_function(n, rng) for n in range(2, 7) for _ in range(2)]
    quivers += [HeightFunction.big_theta(n0) for n0 in (2, 3, 4)]
    quivers += [random_height_function(2 * n0 - 1, rng, "twisted", n0) for n0 in (2, 3, 4) for _ in range(2)]
    for xi in quivers:
        verts = _window(xi, *_trusted_window(xi))
        prime = 0
        for v in verts:
            for w in verts:
                is_prime = _prime_position(xi, v, w)
                assert (_predict_left(xi, v, w) == 1) == is_prime, (xi, v, w)
                prime += is_prime
        assert prime, xi


def _every_untwisted(n):
    """Every untwisted height function of rank n with xi_1 = 0, one per choice of steps."""
    for steps in range(2 ** (n - 1)):
        vals = [0]
        for b in range(n - 1):
            vals.append(vals[-1] + (1 if steps >> b & 1 else -1))
        yield HeightFunction.untwisted(vals)


def test_right_predictions_are_one_on_prime_pairs():
    # extended_tsystem sets hypotheses_ok without the right sweep: on every
    # prime pair the right prediction, computed by check_theorem_hypotheses
    # on the reversed configuration, is 1, and on prime snakes the public
    # sweep agrees with the relation's flag
    base = [xi for n in range(1, 7) for xi in _every_untwisted(n)]
    base += [HeightFunction.big_theta(n0) for n0 in (2, 3, 4)]
    pairs = 0
    for xi in (q for b in base for q in (b, b.shifted(2), b.reversed())):
        verts = _window(xi, -12, 12)
        for v in verts:
            for w in verts:
                if _prime_position(xi, v, w):  # _predict_left is 1 exactly here
                    assert check_theorem_hypotheses(xi, (v, w)).right == (1,), (xi, v, w)
                    pairs += 1
    assert pairs > 30_000
    rng = random.Random(18)
    for _ in range(40):
        for xi in (random_height_function(rng.randint(2, 7), rng), random_height_function(5, rng, "twisted", 3)):
            pts = random_snake(xi, rng, rng.randint(2, 10), prime=True)
            if len(pts) >= 2:
                assert extended_tsystem(xi, pts).hypotheses_ok == check_theorem_hypotheses(xi, pts).all_one, (xi, pts)


def test_public_forms_reject_off_quiver_inputs():
    for xi in _trusted_quivers():
        k2_lo, k2_hi = _trusted_window(xi)
        verts = _window(xi, k2_lo, k2_hi)
        ends = (verts[0], verts[len(verts) // 2], verts[-1])
        for x in (Vertex(i, k2) for i in range(0, xi.n + 2) for k2 in range(k2_lo, k2_hi + 1)):
            if xi.is_vertex(x):
                continue
            for v in ends + (x,):
                for a, b in ((x, v), (v, x)):
                    assert xi.preceq(a, b) is False
                    assert in_snake_position(xi, a, b) is False
                    assert in_prime_snake_position(xi, a, b) is False
                    assert predicted_tfd_left(xi, a, (b,)) is None
                    assert predicted_tfd_right(xi, (a,), b) is None  # checked before the reversal, rows 0 and n+1 too
            for image in (xi.reverse_vertex, xi.dualize, lambda v: xi.dualize(v, -1)):
                with pytest.raises(NotSnake, match=re.escape(f"{x} is not a vertex of the quiver")):
                    image(x)
            if xi.twisted_flavor:
                with pytest.raises(ValueError, match=re.escape(f"{x} is not a vertex of this quiver")):
                    xi.region(x)
            else:
                with pytest.raises(ValueError, match="regions exist only for twisted height functions"):
                    xi.region(x)


def test_relation_checks_each_point_once(monkeypatch):
    # extended_tsystem checks each point once; the predictions and Q/R then
    # trust them, and only Q/R's "fell off the quiver" checks (one per Q or
    # R vertex) test a vertex again
    rng = random.Random(16)
    cases = []
    for xi in (HeightFunction.canonical(4, 0), BIG2):
        while True:
            pts = random_snake(xi, rng, 40, prime=True)
            if len(pts) == 40:
                break
        cases.append((xi, pts))
    calls = [0]
    is_vertex = HeightFunction.is_vertex

    def counted(self, v):
        calls[0] += 1
        return is_vertex(self, v)

    monkeypatch.setattr(HeightFunction, "is_vertex", counted)
    for xi, pts in cases:
        calls[0] = 0
        assert extended_tsystem(xi, pts).hypotheses_ok
        assert len(pts) <= calls[0] <= 3 * len(pts), xi.flavor


def test_reversal_keeps_u_and_d_and_swaps_lt_with_gt():
    swap = {Region.LT: Region.GT, Region.GT: Region.LT, Region.U: Region.U, Region.D: Region.D}
    rng = random.Random(21)
    cases = [HeightFunction.big_theta(n0).shifted(s2) for n0 in (2, 3, 4) for s2 in (0, 2)]
    cases += [random_height_function(2 * n0 - 1, rng, "twisted", n0) for n0 in (2, 3, 4) for _ in range(4)]
    for xi in cases:
        rev = xi.reversed()
        regions = set()
        for v in _window(xi, -8, 16):
            regions.add(xi.region(v))
            assert rev.region(xi.reverse_vertex(v)) == swap[xi.region(v)], (xi, v)
        assert regions == set(Region)


# Outcomes of tfd_via_epsilon on the enumerated set of _bridge_census,
# measured before the right side was derived from the left one.
BRIDGE_CENSUS = {
    ("untwisted", "left"): {0: 226, 1: 136, "OutsideWindow": 0},
    ("untwisted", "right"): {0: 226, 1: 136, "OutsideWindow": 0},
    ("twisted", "left"): {0: 410, 1: 224, "OutsideWindow": 12},
    ("twisted", "right"): {0: 418, 1: 224, "OutsideWindow": 4},
}


def _bridge_census():
    """Every snake of length <= 2 in the k2 window [0, 10] of canonical(n, 0)
    (n = 2, 3, 4) and big_theta(n0) (n0 = 2, 3), each unshifted and shifted
    by one, against every window probe strictly before it (left) or after
    it (right)."""
    counts = {key: {0: 0, 1: 0, "OutsideWindow": 0} for key in BRIDGE_CENSUS}
    cases = [HeightFunction.big_theta(n0).shifted(s2) for n0 in (2, 3) for s2 in (0, 2)]
    cases += [HeightFunction.canonical(n, 0).shifted(s2) for n in (2, 3, 4) for s2 in (0, 2)]
    for xi in cases:
        verts = _window(xi, 0, 10)
        for pts in _snakes_in(xi, verts, 2):
            for v in verts:
                for side, probe_first in (("left", xi.prec(v, pts[0])), ("right", xi.prec(pts[-1], v))):
                    if not probe_first:
                        continue
                    try:
                        got = tfd_via_epsilon(xi, v, pts, side)
                    except OutsideWindow:
                        got = "OutsideWindow"
                    counts[xi.flavor, side][got] += 1
    return counts


def test_bridge_census_is_pinned():
    # the twisted OutsideWindow sliver is not symmetric under the reversal,
    # which is why the twisted normalization search keeps both sides
    assert _bridge_census() == BRIDGE_CENSUS


def _pinned_relation_lines():
    """relation_json and relation_monomials_json of seeded prime snakes of
    both flavors, each under its q-datum and a signed custom table, then the
    error messages of seeded non-prime snakes and non-snakes."""
    import json

    from snaketsys.realize import Monomial, relation_monomials_json

    def signed(xi):
        return Realization.custom(xi.n + 1, {
            v: Monomial({(1, 0): 1 if v.i % 2 else -1, (v.i, v.k2): -1}) for v in xi.gamma_vertices()
        })

    rng = random.Random(26)
    lines = []
    for flavor in ("untwisted", "twisted"):
        for t in range(40):
            if flavor == "untwisted":
                xi = random_height_function(1 + t % 7, rng)
                qdatum = Realization.qdatum_a(xi.n)
            else:
                n0 = 2 + t % 3
                xi = random_height_function(2 * n0 - 1, rng, flavor, n0)
                qdatum = Realization.qdatum_b(n0)
            pts = random_snake(xi, rng, rng.randint(2, 12), prime=True)
            if len(pts) < 2:
                continue
            rel = extended_tsystem(xi, pts)
            lines.append(json.dumps(relation_json(rel)))
            for real in (qdatum, signed(xi)):
                lines.append(json.dumps(relation_monomials_json(relation_monomials(rel, real))))
    for flavor in ("untwisted", "twisted"):
        for prime in (False, None):
            for _ in range(20):
                xi, pts = _random_snake_case(rng, flavor, prime is None, 8)
                if prime is None:  # a non-snake: a snake with a point moved off its place
                    s = rng.randrange(len(pts))
                    i = rng.randint(0, xi.n + 1)
                    pts = pts[:s] + (Vertex(i, pts[s].k2 + rng.choice((-4, -2, 2, 4))),) + pts[s + 1:]
                try:
                    rel = extended_tsystem(xi, pts)
                except (NotPrimeSnake, TooShort) as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
                else:
                    lines.append(json.dumps(relation_json(rel)))
    for pts in ((), (Vertex(1, 0),)):
        with pytest.raises(TooShort) as exc:
            extended_tsystem(XI3, pts)
        lines.append(f"TooShort: {exc.value}")
    return lines


def test_relation_outputs_are_pinned():
    # the sha256 of relation_json, both relation_monomials_json and the
    # error messages on seeded inputs; the digest was written down before
    # the trusted path stopped building throwaway vertices and records
    import hashlib

    lines = _pinned_relation_lines()
    assert len(lines) == 322
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "c1d37745c6f66495222e0cc9abfeb7fb72ca4bcf9f12bb44d040acb7a9f82bf1"

