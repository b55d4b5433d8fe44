"""Acceptance suite: one check per shipped guarantee, exact tolerances.

Each test prints a single PASS line (visible with pytest -s); any failure
carries the first counterexample in the assertion message.  Arithmetic is
exact throughout, so every comparison is equality.
"""
import time

from snaketsys import verify
from snaketsys.lusztig import GAMMA_BIG_THETA, GAMMA_THETA, Carrier, rho, unit_datum
from snaketsys.quivers import TWISTED, UNTWISTED, HeightFunction, Vertex, phi_closed_form
from snaketsys.realize import Monomial, Realization, relation_monomials
from snaketsys.snakes import translate_twisted
from snaketsys.tsystem import extended_tsystem

SWEEP = {sweep.name: sweep for sweep in verify.SWEEPS}


def V(i, k):
    return Vertex(i, int(2 * k))


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _rho_both_ways(n0, points, expected):
    dagger = translate_twisted(n0, points)
    n = 2 * n0 - 1
    got = rho(unit_datum(Carrier(GAMMA_BIG_THETA, n), points))
    want = unit_datum(Carrier(GAMMA_THETA, n), expected)
    return dagger == expected and got.nonzero() == want.nonzero()


def test_criterion_1_rho_golden_n7():
    t0 = time.time()
    ok = _rho_both_ways(
        4,
        (V(5, 4), V(5, 6), V(4, 8.5), V(4, 9.5)),
        (V(5, 3), V(5, 5), V(5, 7), V(4, 10)),
    )
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, f"rho golden n=7 in {elapsed:.3f}s")


def test_criterion_2_rho_golden_n15():
    t0 = time.time()
    ok = _rho_both_ways(
        8,
        (V(9, 8), V(9, 10), V(8, 12.5), V(7, 15), V(8, 17.5), V(9, 20)),
        (V(9, 7), V(9, 9), V(9, 11), V(7, 15), V(9, 19), V(9, 21)),
    )
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0, f"rho golden n=15 in {elapsed:.3f}s")


def test_criterion_3_rho_oracle_equivalence():
    t0 = time.time()
    res = verify.run(SWEEP["rho"], 500, seed=2024)
    elapsed = time.time() - t0
    report(
        3,
        res.ok and res.passed >= 2000 and elapsed < 30.0,
        f"rho == translation on {res.passed} random window snakes in {elapsed:.1f}s"
        + (f"; {res.first_failure}" if res.first_failure else ""),
    )


def test_criterion_4_untwisted_structural_golden():
    xi = HeightFunction.untwisted([1, 2, 3])
    rel = extended_tsystem(xi, (V(2, 0), V(2, 2), V(1, 5)))
    structure_ok = (
        rel.first_q == (V(1, 1),)
        and rel.first_r == (V(3, 1), V(3, 3))
        and rel.term_d == (V(2, 2),)
    )
    mon = relation_monomials(rel, Realization.qdatum_a(3))
    want = Monomial.y(2, 0) * Monomial.y(2, -2) ** 2 * Monomial.y(1, -5)
    monomials_ok = mon.b * mon.c == want == mon.a * mon.d
    report(4, structure_ok and monomials_ok, "rank-3 staircase relation and its monomial identity")


def test_criterion_5_twisted_structural_golden():
    big = HeightFunction.big_theta(2)
    rel = extended_tsystem(big, (V(3, 2), V(2, 4.5), V(2, 5.5)))
    ok = rel.first_q == (V(2, 2.5), V(1, 5)) and rel.first_r == () and rel.term_d == (V(2, 4.5),)
    report(5, ok, "twisted rank-3 relation structure")


def test_criterion_6_phi_closed_form():
    from .test_quivers import PHI_CANONICAL_0, PHI_CANONICAL_1

    ok = True
    detail = ""
    for n in range(2, 9):
        for delta in (0, 1):
            hf = HeightFunction.canonical(n, delta)
            for v in hf.gamma_vertices():
                if hf.phi(v) != phi_closed_form(n, v):
                    ok, detail = False, f"closed form differs at n={n}, delta={delta}, v={v}"
    hf0 = HeightFunction.canonical(5, 0)
    hf1 = HeightFunction.canonical(5, 1)
    for (i, k), label in PHI_CANONICAL_0.items():
        ok = ok and str(hf0.phi(Vertex(i, 2 * k))) == label
    for (i, k), label in PHI_CANONICAL_1.items():
        ok = ok and str(hf1.phi(Vertex(i, 2 * k))) == label
    report(6, ok, detail or "closed-form root labels match inversion sequences, n <= 8")


def test_criterion_7_reineke_dual_solvers():
    res = verify.run(SWEEP["reineke-dual"], 1000, seed=7)
    report(
        7,
        res.ok,
        f"ideal enumeration == min-cut on {res.passed} instances"
        + (f"; {res.first_failure}" if res.first_failure else ""),
    )


def test_criterion_8_epsilon_snake_predictions():
    detail = []
    ok = True
    for flavor in (UNTWISTED, TWISTED):
        res = verify.run(SWEEP[f"epsilon-predictions-{flavor}"], 500, seed=8)
        unreachable = res.details.get("bridge_unreachable", 0)
        ok = ok and res.ok and res.passed >= 500
        # the bridge must reach the vast majority of enumerated configurations
        ok = ok and unreachable <= 0.15 * (res.passed + unreachable)
        detail.append(
            f"{flavor}: {res.passed} compared, {unreachable} outside the normalization"
            + (f"; {res.first_failure}" if res.first_failure else "")
        )
    report(8, ok, "; ".join(detail))


def test_criterion_9_move_layer_properties():
    res = verify.run(SWEEP["moves"], 1000, seed=9)
    report(
        9,
        res.ok,
        f"{res.passed} involution/weight checks on 1000 random 200-step walks"
        + (f"; {res.first_failure}" if res.first_failure else ""),
    )


def test_criterion_10_qr_properties():
    ok = True
    detail = []
    for flavor in (UNTWISTED, TWISTED):
        res = verify.run(SWEEP[f"qr-being-snake-{flavor}"], 1000, seed=10)
        ok = ok and res.ok
        detail.append(f"{flavor} Q/R snakes+disjoint on {res.passed}")
        if res.first_failure:
            detail.append(res.first_failure)
    dual = SWEEP["qr-dual-equivariance"]._replace(cases=lambda trials: verify.canonical_prime_pairs(range(2, 7)))
    res = verify.run(dual, 1, seed=10)
    ok = ok and res.ok
    detail.append(f"D-equivariance exhaustive on {res.passed} prime pairs")
    if res.first_failure:
        detail.append(res.first_failure)
    report(10, ok, "; ".join(detail))


def test_criterion_11_epsilon_star_duality():
    res = verify.run(SWEEP["epsilon-star"], 1000, seed=11)
    report(
        11,
        res.ok,
        f"epsilon* dual-route agreement on {res.passed} values"
        + (f"; {res.first_failure}" if res.first_failure else ""),
    )
