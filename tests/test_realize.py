import pytest

from snaketsys.errors import MissingTableEntry
from snaketsys.quivers import HeightFunction, Vertex
from snaketsys.realize import (
    CUSTOM,
    Monomial,
    Realization,
    cuspidal_monomial,
    realization_from_json,
    relation_monomials,
    relation_monomials_json,
    relation_monomials_latex,
    relation_monomials_text,
    snake_monomial,
)
from snaketsys.tsystem import extended_tsystem

XI3 = HeightFunction.untwisted([1, 2, 3])


def V(i, k):
    return Vertex(i, int(2 * k))


def Y(*factors):
    m = Monomial.one()
    for node, spectral in factors:
        m = m * Monomial.y(node, spectral)
    return m


def custom_table():
    # the rank-3 table: S_{1,2i-1} = Y_{1,2i-1}, S_{2,2} = Y_{1,3}Y_{1,1},
    # S_{2,4} = Y_{1,5}Y_{1,3}, S_{3,3} = Y_{1,5}Y_{1,3}Y_{1,1}
    return Realization.custom(4, {
        V(1, 1): Y((1, 1)),
        V(1, 3): Y((1, 3)),
        V(1, 5): Y((1, 5)),
        V(2, 2): Y((1, 3), (1, 1)),
        V(2, 4): Y((1, 5), (1, 3)),
        V(3, 3): Y((1, 5), (1, 3), (1, 1)),
    })


def test_monomial_algebra():
    m = Monomial.y(1, 3) * Monomial.y(1, 1) * Monomial.y(1, 3)
    assert str(m) == "Y_{1,3}^2Y_{1,1}"
    assert m ** 0 == Monomial.one()
    assert (m * Monomial.y(1, 3, -2)).factors == {(1, 1): 1}
    assert str(Monomial.one()) == "1"


def test_dual_shift_invertible():
    m = Y((1, 5), (2, 2))
    assert m.dual_shift(3, 4, 1).dual_shift(3, 4, -1) == m
    assert m.dual_shift(3, 4, 1) == Y((3, 9), (2, 6))


def test_cuspidal_qdatum_a():
    real = Realization.qdatum_a(5)
    hf = HeightFunction.canonical(5, 0)
    assert cuspidal_monomial(real, hf, V(2, 1)) == Y((2, -1))
    assert cuspidal_monomial(real, hf, V(2, -3)) == Y((2, 3))


def test_cuspidal_qdatum_b():
    real = Realization.qdatum_b(3)
    hf = HeightFunction.twisted((-2, 0, -1, 2, 4), 3)
    assert cuspidal_monomial(real, hf, V(4, 3)) == Y((2, -6))
    assert cuspidal_monomial(real, hf, V(3, 0.5)) == Y((3, -1))


def test_cuspidal_custom_dual_slide():
    real = custom_table()
    # (2,0) = D(2,4): slide back and shift by h_dual = 4 with 1* = 3
    assert cuspidal_monomial(real, XI3, V(2, 0)) == Y((3, 9), (3, 7))
    assert cuspidal_monomial(real, XI3, V(2, 2)) == Y((1, 3), (1, 1))
    assert cuspidal_monomial(real, XI3, V(1, 7)) == Y((3, 1), (3, -1), (3, -3))
    with pytest.raises(MissingTableEntry):
        cuspidal_monomial(Realization.custom(4, {}), XI3, V(2, 2))


def test_snake_monomial():
    real = Realization.qdatum_a(3)
    hf = HeightFunction.canonical(3, 1).shifted(0)
    m, exact = snake_monomial(real, hf, (V(2, 0), V(2, 2)))
    assert exact and m == Y((2, 0), (2, -2))
    m, exact = snake_monomial(real, hf, ())
    assert exact and m == Monomial.one()
    m, exact = snake_monomial(custom_table(), XI3, (V(2, 0), V(2, 2)))
    assert not exact
    assert m == Y((3, 9), (3, 7), (1, 3), (1, 1))


def _pairwise_snake_monomial(real, xi, points):
    """Reference oracle: the product folded one factor at a time by Monomial.__mul__."""
    m = Monomial.one()
    for v in points:
        m = m * cuspidal_monomial(real, xi, v)
    return m, real.mode != CUSTOM


def test_snake_monomial_matches_pairwise_fold():
    import random

    from snaketsys.verify import random_height_function, random_snake

    rng = random.Random(16)
    big = HeightFunction.big_theta(2)
    # a shared factor Y_{1,0} with exponent +-1, so that factors cancel along the snake
    signed = Realization.custom(4, {
        v: Monomial({(1, 0): 1 if v.i % 2 else -1, (v.i, v.k2): -2}) for v in big.gamma_vertices()
    })
    cases = [(custom_table(), XI3), (signed, big), (Realization.qdatum_b(2), big)]
    cases += [(Realization.qdatum_a(n), random_height_function(n, rng)) for n in (3, 5, 8)]
    cancelled = False
    for real, xi in cases:
        for _ in range(20):
            pts = random_snake(xi, rng, rng.randint(1, 12), prime=rng.random() < 0.5)
            got = snake_monomial(real, xi, pts)
            want = _pairwise_snake_monomial(real, xi, pts)
            assert got == want and str(got[0]) == str(want[0])
            factors = [cuspidal_monomial(real, xi, v).factors for v in pts]
            cancelled |= len(got[0].factors) < len(set().union(*factors))
    assert cancelled


def _reference_cuspidal(real, xi, v):
    """The cuspidal monomial of each mode written out from the module docstring.

    Custom mode finds the one power D^t with D^t(v) in the window by
    scanning every t in a range, and shifts that window entry back.
    """
    if real.mode == "qdatum_A":
        return Monomial.y(v.i, -v.k2 // 2)
    if real.mode == "qdatum_B":
        return Monomial.y(min(v.i, xi.n + 1 - v.i), -v.k2)
    hits = []
    for t in range(-40, 41):
        u = Vertex(v.i if t % 2 == 0 else xi.n + 1 - v.i, v.k2 + t * xi.ntilde2())
        if xi.in_gamma(u):
            hits.append(real.table[u].dual_shift(real.g0_rank, real.h_dual, t))
    assert len(hits) == 1, (v, hits)
    return hits[0]


def signed_table(xi):
    """A custom table with exponents +-1 on a shared factor, so that factors cancel within a term."""
    return Realization.custom(xi.n + 1, {
        v: Monomial({(1, 0): 1 if v.i % 2 else -1, (v.i, v.k2): -1}) for v in xi.gamma_vertices()
    })


def test_relation_monomials_are_the_snake_monomials_of_the_terms():
    # A, Q and R are sums over their points and B, C and D are A over the
    # monomials of its last point, its first or both; each must give what
    # snake_monomial gives on the term by itself, and the product of the
    # written-out cuspidal monomials folded by Monomial.__mul__, also where
    # a key of A cancels to 0 and where D is the unit (p = 2)
    import random

    from snaketsys.verify import random_height_function, random_snake

    rng = random.Random(23)
    cases = []
    for n in (3, 4, 6):
        xi = random_height_function(n, rng)
        cases += [(Realization.qdatum_a(n), xi), (signed_table(xi), xi)]
    for n0 in (2, 3, 4):
        xi = random_height_function(2 * n0 - 1, rng, "twisted", n0)
        cases += [(Realization.qdatum_b(n0), xi), (signed_table(xi), xi)]
    cases += [(custom_table(), XI3), twisted_table()[::-1]]
    seen = set()
    for real, xi in cases:
        seen.add(real.mode)
        for t in range(15):
            pts = random_snake(xi, rng, 2 if t % 3 == 0 else rng.randint(3, 12), prime=True)
            if len(pts) < 2:
                continue
            rel = extended_tsystem(xi, pts)
            mon = relation_monomials(rel, real)
            assert mon.identity_holds()
            terms = (rel.term_b, rel.term_c, rel.term_a, rel.term_d, rel.first_q, rel.first_r)
            for got, points in zip((mon.b, mon.c, mon.a, mon.d, mon.q, mon.r), terms):
                assert (got, mon.exact) == snake_monomial(real, xi, points)
                want = Monomial.one()
                for v in points:
                    want = want * _reference_cuspidal(real, xi, v)
                assert got == want and str(got) == str(want), (real.mode, xi, points)
            ends = [_reference_cuspidal(real, xi, v).factors for v in (pts[0], pts[-1])]
            if any(k not in mon.a.factors for m in ends for k in m):
                seen.add("cancelled")  # B, C or D starts from a key that A no longer holds
            if len(pts) == 2:
                assert mon.d == Monomial.one()
                seen.add("p=2")
            if real.mode != CUSTOM:
                # rows i and i* of a twisted quiver lie in opposite k2 classes mod 4, so
                # no two points share a q-datum key; shared keys come from the tables
                assert len({k for v in pts for k in _reference_cuspidal(real, xi, v).factors}) == len(pts)
    assert seen == {"qdatum_A", "qdatum_B", CUSTOM, "cancelled", "p=2"}


def test_relation_monomials_golden():
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    mon = relation_monomials(rel, Realization.qdatum_a(3))
    want = Y((2, 0)) * Y((2, -2)) ** 2 * Y((1, -5))
    assert mon.b * mon.c == want
    assert mon.a * mon.d == want
    assert mon.exact and mon.identity_holds()
    # the first term differs from the middle whenever Q u R != A u D
    assert mon.q * mon.r != mon.a * mon.d
    text = relation_monomials_text(mon)
    assert "=" in text and "+" in text
    assert "Y_{2,0}" in relation_monomials_latex(mon)
    obj = relation_monomials_json(mon)
    assert obj["identity_holds"] and obj["exact"]


def test_relation_monomials_twisted_qdatum_b():
    big = HeightFunction.big_theta(2)
    rel = extended_tsystem(big, (V(3, 2), V(2, 4.5), V(2, 5.5)))
    mon = relation_monomials(rel, Realization.qdatum_b(2))
    assert mon.exact and mon.identity_holds()


def test_hat_fold():
    from snaketsys import roots

    for n0 in (2, 3, 4):
        n = 2 * n0 - 1
        for i in range(1, n + 1):
            assert min(i, roots.star(n, i)) == min(roots.star(n, i), roots.star(n, roots.star(n, i)))


def test_custom_mode_in_relation_is_formal():
    rel = extended_tsystem(XI3, (V(2, 0), V(2, 2), V(1, 5)))
    mon = relation_monomials(rel, custom_table())
    assert not mon.exact
    assert mon.identity_holds()


def table_to_json(real):
    """The inverse of realization_from_json on a custom table."""
    if real.mode != CUSTOM or real.table is None:
        raise ValueError(f"only a custom realization has a table, got mode {real.mode}")
    entries = [
        {"i": v.i, "k2": v.k2, "monomial": m.to_json()}
        for v, m in sorted(real.table.items(), key=lambda t: (t[0].k2, t[0].i))
    ]
    return {"h_dual": real.h_dual, "g0_rank": real.g0_rank, "entries": entries}


def test_table_json_roundtrip():
    real = custom_table()
    obj = table_to_json(real)
    assert obj["h_dual"] == 4 and obj["g0_rank"] == 3
    back = realization_from_json(obj, XI3)
    assert back.table == real.table
    with pytest.raises(MissingTableEntry):
        realization_from_json({"h_dual": 4, "entries": []}, XI3)


def test_realize_checks_raise_explicitly():
    # an explicit raise, not an assert, so that python -O keeps the check
    with pytest.raises(ValueError):
        table_to_json(Realization.qdatum_a(3))


def test_realization_rejects_an_unknown_mode():
    # the modes are case-sensitive; an unknown one would run as custom with exact True
    for args in (("qdatum_a", 4, 3), ("qdatum_a", 4, 3, {}), ("Custom", 4, 3, custom_table().table)):
        with pytest.raises(ValueError, match=f"^unknown realization mode {args[0]!r}$"):
            Realization(*args)


def test_custom_slide_far_vertex():
    real = custom_table()
    far = cuspidal_monomial(real, XI3, V(2, 16))  # three duality periods out
    assert far == Y((3, -7), (3, -9))


def test_custom_mode_takes_plain_pairs_off_the_window():
    # a point one duality period out slides along D into the table's window: as a
    # plain (i, k2) pair it realizes as its Vertex does, in both monomial calls
    xi = HeightFunction.canonical(3, 0)
    real = Realization.custom(4, {v: Monomial.y(1, v.k2) for v in xi.gamma_vertices()}, 3)
    for w in xi.gamma_vertices():
        u = (w.i, w.k2 + 2 * xi.ntilde2())
        assert not xi.in_gamma(Vertex(*u))
        assert snake_monomial(real, xi, [u]) == snake_monomial(real, xi, [Vertex(*u)])
        assert cuspidal_monomial(real, xi, u) == cuspidal_monomial(real, xi, Vertex(*u))


def twisted_table():
    # rank-3 twisted window table: cuspidal modules of a duality datum built
    # from L(Y_{1,7}), L(Y_{2,4}), L(Y_{3,7})
    big = HeightFunction.big_theta(2)
    table = {
        V(1, 1): Y((1, 7)),
        V(2, 1.5): Y((3, 5)),
        V(3, 2): Y((3, 7), (3, 5)),
        V(2, 2.5): Y((3, 7)),
        V(1, 3): Y((1, 5)),
        V(2, 3.5): Y((2, 4)),
    }
    assert set(table) == set(big.gamma_vertices())
    return big, Realization.custom(4, table)


def test_twisted_custom_table_dual_slide():
    big, real = twisted_table()
    # (1,5) = D^-1(3,2): the duality shift turns Y_{3,7}Y_{3,5} into
    # Y_{1,3}Y_{1,1}
    assert cuspidal_monomial(real, big, V(1, 5)) == Y((1, 3), (1, 1))
    assert cuspidal_monomial(real, big, V(2, 5.5)) == Y((1, 3))


def test_twisted_custom_relation_first_term():
    big, real = twisted_table()
    rel = extended_tsystem(big, (V(3, 2), V(2, 4.5), V(2, 5.5)))
    m, exact = snake_monomial(real, big, rel.first_q)
    # formal product over Q = ((2,5/2),(1,5)): Y_{3,7} * Y_{1,3}Y_{1,1}
    assert not exact
    assert m == Y((3, 7), (1, 3), (1, 1))
    mon = relation_monomials(rel, real)
    assert mon.identity_holds()
