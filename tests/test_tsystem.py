import dataclasses
import random
import re

import pytest

from snaketsys.errors import InternalError, NotAnInteger, NotPrimeSnake, NotSnake, OutsideWindow, TooShort
from snaketsys.quivers import UNTWISTED, HeightFunction, Region, Vertex, _vertex, big_theta2
from snaketsys.realize import Realization, relation_monomials
from snaketsys.snakes import (
    _in_prime_window,
    _prime_position,
    _snake_position,
    _twist,
    in_prime_snake_position,
    in_snake_position,
    is_prime_snake,
    is_snake,
    qr_sequences,
    split_prime,
    translate_twisted,
)
from snaketsys.tsystem import (
    HypothesesReport,
    TSystemRelation,
    _on_ray,
    _predict_left,
    check_theorem_hypotheses,
    extended_tsystem,
    predicted_tfd_left,
    predicted_tfd_right,
    relation_json,
    relation_latex,
    relation_text,
    tfd_via_epsilon,
)
from snaketsys.verify import random_height_function, random_snake, random_vertex

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
    assert not {"real", "prime", "hypotheses_ok"} & {f.name for f in dataclasses.fields(rel)}


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


@pytest.mark.parametrize(
    "points, error, message",
    [
        ((V(2, 0),), TooShort, "extended T-system needs a snake of length >= 2"),
        ((V(2, 0), V(2, 6)), NotPrimeSnake, "snake is not prime; prime segments: [(Vertex(i=2, k2=0),), (Vertex(i=2, k2=12),)]"),
        ((V(2, 0), V(3, 1)), NotPrimeSnake, "input is not a snake"),
        ((Vertex(2, 0.0), V(2, 2)), NotAnInteger, "vertex coordinates must be integers, got Vertex(i=2, k2=0.0)"),
    ],
    ids=["too-short", "not-prime", "not-a-snake", "float-coordinate"],
)
def test_every_way_to_build_a_relation_checks_it(points, error, message):
    # the constructor and dataclasses.replace run the check that
    # extended_tsystem runs: the same error type and message
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    builds = (extended_tsystem, TSystemRelation, lambda xi, pts: dataclasses.replace(rel, xi=xi, p=pts))
    for build in builds:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            build(XI3, points)
        assert type(exc.value) is error
    # a good snake builds the same relation every way, its points stored as a tuple
    pts = [V(2, 0), V(2, 2)]
    assert len({build(XI3, pts) for build in builds}) == 1 and TSystemRelation(XI3, pts).p == tuple(pts)
    # Q and R are derived, never given
    with pytest.raises(TypeError):
        TSystemRelation(XI3, pts, (), ())
    with pytest.raises(ValueError):
        dataclasses.replace(rel, first_q=())
    with pytest.raises(dataclasses.FrozenInstanceError):
        rel.p = tuple(pts)


def test_relation_rejects_exactly_the_non_prime_inputs():
    # extended_tsystem rejects exactly what is_prime_snake rejects, and the
    # error names a snake's prime segments or says it is no snake
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
    # one vertex check per point, one call of the run kernel _qr_run per
    # relation (it tests each pair's primality and gives its Q/R), no
    # is_prime_snake, no prediction, and no other snake predicate,
    # HypothesesReport or validated HeightFunction at all; the monomials
    # take one _products call and check no vertex
    from collections import Counter

    from snaketsys import realize, snakes, tsystem

    calls = Counter()
    seen = Counter()  # vertices passed to is_vertex

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("is_prime_snake", "is_snake", "_qr_run"):
        wrapper = counted(name, getattr(snakes, name))
        monkeypatch.setattr(snakes, name, wrapper)
        if hasattr(tsystem, name):
            monkeypatch.setattr(tsystem, name, wrapper)
    monkeypatch.setattr(tsystem, "HypothesesReport", counted("HypothesesReport", HypothesesReport))
    monkeypatch.setattr(HeightFunction, "__post_init__", counted("validate", HeightFunction.__post_init__))
    monkeypatch.setattr(realize, "_products", counted("_products", realize._products))
    is_vertex = HeightFunction.is_vertex
    monkeypatch.setattr(tsystem, "_predict_left", counted("_predict_left", tsystem._predict_left))

    def vertex_check(xi, v):
        seen[v] += 1
        return is_vertex(xi, v)

    monkeypatch.setattr(HeightFunction, "is_vertex", vertex_check)
    rng = random.Random(15)
    for xi in (HeightFunction.canonical(4, 0), BIG2):
        while True:
            pts = random_snake(xi, rng, 12, prime=True)
            if len(pts) == 12:
                break
        calls.clear()
        seen.clear()
        rel = extended_tsystem(xi, pts)
        assert rel.hypotheses_ok
        assert calls == {"_qr_run": 1}
        # the snake's points once each; the kernel guards its Q/R points inline, with no is_vertex call
        assert sum(seen.values()) == 12
        assert all(seen[v] == 1 for v in pts)
        calls.clear()
        seen.clear()
        real = Realization.qdatum_a(4) if xi.flavor == UNTWISTED else Realization.qdatum_b(2)
        relation_monomials(rel, real)
        assert calls == {"_products": 1}
        assert not seen  # the relation was checked when it was built
        # the counters see the public paths, which still validate and build
        report = check_theorem_hypotheses(xi, pts)
        assert len(report.left) == len(report.right) == 11 and calls["is_snake"] == 1
        assert calls["_predict_left"] == 22
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


def _outcome(call):
    """A call's value, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_plain_pairs_give_the_vertex_results():
    # the entry points check plain (i, k2) pairs as they check Vertex values,
    # then build Vertex values from them, so both give the same result
    assert tfd_via_epsilon(XI3, (2, 0), [(2, 4), (1, 10)], "left") == 1
    assert translate_twisted(2, [(1, 2)]) == (V(1, 1),)
    rng = random.Random(37)
    seen = set()
    for xi in (XI3, HeightFunction.canonical(5, 1).shifted(2), BIG2, HeightFunction.big_theta(3).shifted(2)):
        for _ in range(60):
            pts = random_snake(xi, rng, rng.randint(1, 4))
            v = random_vertex(xi, rng, pts[0].k2 - xi.ntilde2(), pts[-1].k2 + xi.ntilde2())
            plain = [tuple(u) for u in pts]
            for side in ("left", "right"):
                want = _outcome(lambda: tfd_via_epsilon(xi, v, pts, side))
                assert _outcome(lambda: tfd_via_epsilon(xi, tuple(v), plain, side)) == want, (xi, v, pts, side)
                seen.add((xi.flavor, side, want))
            assert predicted_tfd_left(xi, tuple(v), plain) == predicted_tfd_left(xi, v, pts)
            assert predicted_tfd_right(xi, plain, tuple(v)) == predicted_tfd_right(xi, pts, v)
    assert {(f, side, x) for f in ("untwisted", "twisted") for side in ("left", "right") for x in (0, 1)} <= seen
    for n0 in (2, 3):
        for _ in range(20):
            pts = random_snake(HeightFunction.big_theta(n0), rng, rng.randint(1, 4), in_gamma=True)
            out = translate_twisted(n0, [tuple(u) for u in pts])
            assert out == translate_twisted(n0, pts) and {type(u) for u in out} == {Vertex}


def test_plain_pairs_on_the_relation_path_give_the_vertex_results():
    # the relation path checks plain (i, k2) pairs, then reads them as pairs or builds Vertex values from them:
    # a relation's P, Q and R, split_prime's segments and the hypothesis sweep are those of the Vertex input
    assert relation_text(extended_tsystem(XI3, [(2, 0), (2, 4), (1, 10)])) == (
        "0 -> S((1,1)) (x) S((3,1),(3,3)) -> S((2,0),(2,2)) (x) S((2,2),(1,5)) -> S((2,0),(2,2),(1,5)) (x) S((2,2)) -> 0")
    rng = random.Random(38)
    for xi in (XI3, HeightFunction.canonical(5, 1).shifted(2), BIG2, HeightFunction.big_theta(3).shifted(2)):
        for t in range(40):
            pts = random_snake(xi, rng, rng.randint(2, 6), prime=t % 2 == 0)
            plain = [tuple(u) for u in pts]
            assert _outcome(lambda: extended_tsystem(xi, plain)) == _outcome(lambda: extended_tsystem(xi, pts))
            if is_prime_snake(xi, pts):
                rel = extended_tsystem(xi, plain)
                assert rel == extended_tsystem(xi, pts) and relation_text(rel) == relation_text(extended_tsystem(xi, pts))
                assert {type(u) for u in rel.p + rel.first_q + rel.first_r} == {Vertex}
                assert qr_sequences(xi, plain) == qr_sequences(xi, pts)
            segments = split_prime(xi, plain)
            assert segments == split_prime(xi, pts) and {type(u) for seg in segments for u in seg} == {Vertex}
            assert check_theorem_hypotheses(xi, plain) == check_theorem_hypotheses(xi, pts)


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
            tfd_via_epsilon(xi, probe, pts, "left")


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


def test_rank_one_bridge_sees_only_the_dual_of_the_probe():
    # on one row, the prime window of v is the one vertex D^-1(v) = (1, k + 2): tfd(S_v, S(P)) is 1 exactly
    # when the snake's head is there and 0 otherwise, also for a head at or after v, never OutsideWindow;
    # on the right, by the reversal, exactly when the tail is D(v)
    for h in (-1, 0, 1):
        xi = HeightFunction.untwisted([h])
        for k2 in range(2 * h - 16, 2 * h + 17, 4):
            for head in range(2 * h - 16, 2 * h + 17, 4):
                for p in (1, 2, 3):
                    pts = [Vertex(1, head + 4 * s) for s in range(p)]
                    assert tfd_via_epsilon(xi, Vertex(1, k2), pts, "left") == (head == k2 + 4), (h, k2, pts)
                    assert tfd_via_epsilon(xi, Vertex(1, k2), pts, "right") == (pts[-1].k2 == k2 - 4), (h, k2, pts)


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
    # extended_tsystem sets hypotheses_ok without the left sweep: on every
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
                with pytest.raises(NotSnake, match=re.escape(f"{x} is not a vertex of the quiver")):
                    xi.region(x)
            else:
                with pytest.raises(ValueError, match="regions exist only for twisted height functions"):
                    xi.region(x)


def test_relation_checks_each_point_once(monkeypatch):
    # extended_tsystem checks each point once, through qr_sequences; Q/R then
    # trusts them, and only its "fell off the quiver" checks (one per Q or R
    # vertex) test a vertex again
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


def test_bridge_census_tool_sees_every_probe():
    # tools/bridge_census.py: each probe enters _twisted_bridge once, every
    # final OutsideWindow went through the mirrored retry, and a two-factor
    # translate reaches the raise when c1 interacts with the head and the
    # last return when it does not, both seen
    import os
    import runpy

    tool = runpy.run_path(os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bridge_census.py"))
    hits, outcomes = tool["census"](1, 150)
    by_line = {}
    for (name, line, _), count in hits.items():
        by_line[name, line] = by_line.get((name, line), 0) + count
    first, retry = sorted(tool["arm_lines"](tool["tsystem"]._twisted_bridge))
    one, *two = sorted(tool["arm_lines"](tool["tsystem"]._untwisted_probe_tfd))
    probes = sum(outcomes.values())
    assert probes > 500 and by_line["_twisted_bridge", first] == probes
    assert by_line.get(("_twisted_bridge", retry), 0) >= sum(n for (_, got), n in outcomes.items() if got not in (0, 1))
    flagged = {flag: sum(count for (_, _, flags), count in hits.items() if flags == (flag,)) for flag in (True, False)}
    two_factor = [by_line.get(("_untwisted_probe_tfd", line), 0) for line in two]  # the raise, then the last return
    assert [flagged[True], flagged[False]] == two_factor and min(two_factor) > 0
    assert by_line["_untwisted_probe_tfd", one] > 0


# -- certificates of the branches that no input reaches ----------------------


def test_second_probe_factor_never_drops():
    # _untwisted_probe_tfd tested whether the second factor c2 of a two-factor probe translate strongly commutes
    # with the snake: whether the head misses D^-2(c2), the prime window of D^-1(c2).  Move every two-factor entry
    # of the rank's table as _twisted_core does (the duality step on theta, and on the right the reversal onto
    # theta reversed, read backwards); every head the translation can give, a theta-window vertex, reversed on
    # the right, reaches D^-2(c2) with room to spare.  Doubled slack: gap2 - |T_i - T_j|, T_i = 2i on theta.
    minima, entries = {}, 0
    for n0 in range(2, 13):
        tw = _twist(n0)
        theta, rev = tw.theta, tw.theta.reversed()
        window = theta.window.vertices
        assert {len(probes) for probes in tw.one.values()} == {1, 2}, n0
        for side, step, frame, heads in (("left", 1, theta, window),
                                         ("right", -1, rev, [theta.reverse_vertex(u) for u in window])):
            for steps in (0, step):
                for probes in (p for p in tw.one.values() if len(p) == 2):
                    if steps:
                        probes = tuple(theta.dualize(c, steps) for c in probes)
                    if side == "right":
                        probes = tuple(theta.reverse_vertex(c) for c in reversed(probes))
                    target = frame.dualize(frame.dualize(probes[1], -1), -1)
                    slack = min(target.k2 - h.k2 - 2 * abs(target.i - h.i) for h in heads)
                    key = (side, bool(steps))
                    minima[key] = min(minima.get(key, slack), slack)
                    entries += 1
    assert entries == 4 * sum(n0 * (n0 - 1) // 2 for n0 in range(2, 13))
    assert minima == {("left", False): 12, ("left", True): 4, ("right", False): 12, ("right", True): 4}


def _region_rules(xi, v, first):
    """_predict_left as it read before the middle-row rule, its region rules read through the public region."""
    if _snake_position(xi, v, first):
        # within the prime window, snake position is automatically prime
        return 1 if _in_prime_window(xi, v, first) else 0
    if v == first or not xi._climbs(v.i, first.i, first.k2 - v.k2):
        return None
    if not _in_prime_window(xi, v, first):
        return 0  # the whole snake sits outside the prime window of v
    if xi.flavor == UNTWISTED:
        return 0  # off the snake cone but inside the window: boundary rays
    if _on_ray(xi, v, first):
        return 0
    rv, rf = xi.region(v), xi.region(first)
    if rv == Region.U and rf in (Region.GT, Region.U):
        return 0
    if rv == Region.D and rf in (Region.LT, Region.D):
        return 0
    return None


def test_middle_row_rule_certifies_the_region_rules():
    # every twisted shape of n0 <= 4, shifted by 0 and by 1: each probe of one period (k2 mod 4) at the low end of
    # two duality periods against every head in them; _predict_left equals the old rules on every pair.  Only 8
    # of the 16 (region, region) pairs reach the old region rules, and a middle-row probe only where they gave 0
    pairs, reached = 0, set()
    for xi in (shape.shifted(s2) for n0 in (2, 3, 4) for shape in _every_twisted(n0) for s2 in (0, 2)):
        lo, hi = _trusted_window(xi)
        heads = _window(xi, lo, hi)
        for v in _window(xi, lo, lo + 3):
            for w in heads:
                assert _predict_left(xi, v, w) == _region_rules(xi, v, w), (xi, v, w)
                inside = xi.prec(v, w) and _in_prime_window(xi, v, w)
                if inside and not (_snake_position(xi, v, w) or _on_ray(xi, v, w)):
                    reached.add((xi.region(v), xi.region(w)))  # the old rules got as far as their region rules
                pairs += 1
    assert pairs == 84_448
    lt, gt, u, d = Region.LT, Region.GT, Region.U, Region.D
    assert reached == {(u, gt), (u, u), (d, lt), (d, d), (lt, gt), (lt, u), (gt, lt), (gt, d)}, reached


def _pinned_bridge_lines():
    """tfd_via_epsilon on seeded configurations, one line each: random (so
    shifted) height functions, untwisted n = 2-8 and twisted n0 = 2-5,
    snakes of 1 to 5 points, and four probes per side, drawn from the rows
    up to ntilde + 2 below the head (left) or above the tail (right),
    neither side restricted to probes before the snake; each value, or
    each exception's type and message."""
    rng = random.Random(36)
    lines = []
    for n, n0 in [(n, None) for n in range(2, 9)] + [(2 * n0 - 1, n0) for n0 in range(2, 6)]:
        for _ in range(50):
            xi = random_height_function(n, rng) if n0 is None else random_height_function(n, rng, "twisted", n0)
            pts = random_snake(xi, rng, rng.randint(1, 5))
            reach = xi.ntilde2() + 4
            for side, lo, hi in (("left", pts[0].k2 - reach, pts[0].k2), ("right", pts[-1].k2, pts[-1].k2 + reach)):
                for _ in range(4):
                    v = random_vertex(xi, rng, lo, hi)
                    got = _outcome(lambda: tfd_via_epsilon(xi, v, pts, side))
                    lines.append(f"{xi.values2} {v} {' '.join(map(str, pts))} {side}: {got}")
    return lines


def test_bridge_outputs_are_pinned():
    # the sha256 of every value and error message of _pinned_bridge_lines;
    # the digest was written down before the twisted translation read a
    # per-rank table, and re-pinned only where a failed normalization search
    # that tried no candidate came to name its reason instead of "None"
    import hashlib

    lines = _pinned_bridge_lines()
    assert len(lines) == 4400
    assert sum("OutsideWindow" in line for line in lines) == 322
    assert sum(line.endswith("in the window") for line in lines) == 28
    assert not any(line.endswith(": None") for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "81d3c160bbed4f7135ac99681edd245d37b667a0aea31ea5d3aebf4e75df0b7c"


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

