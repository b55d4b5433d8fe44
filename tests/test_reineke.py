import random

import pytest

from snaketsys import reineke
from snaketsys.errors import ParityMismatch
from snaketsys.lusztig import Carrier, VertexDatum
from snaketsys.quivers import HeightFunction, Vertex


def _datum(n, delta, entries):
    return VertexDatum(Carrier(f"gamma-delta:{delta}", n), {Vertex(i, 2 * k): c for (i, k), c in entries.items()})


def test_omega_boxes_n5():
    om2 = reineke.omega(5, 2)
    assert {(v.i, v.k2 // 2) for v in om2.vertices} == {
        (2, 1), (1, 2), (3, 2), (2, 3), (3, 4), (4, 3), (4, 5), (5, 4),
    }
    om3 = reineke.omega(5, 3)
    assert {(v.i, v.k2 // 2) for v in om3.vertices} == {
        (1, 3), (2, 2), (2, 4), (3, 1), (3, 3), (3, 5), (4, 2), (4, 4), (5, 3),
    }
    assert [(v.i, v.k2 // 2) for v in reineke.omega(1, 1).vertices] == [(1, 1)]


def test_omega_interval_matches_root_set():
    # Omega_j is also the set of window vertices whose root contains j
    for n in range(1, 11):
        for j in range(1, n + 1):
            hf = HeightFunction.canonical(n, reineke.bar(j))
            by_roots = {v for v in hf.gamma_vertices() if hf.phi(v).lo <= j <= hf.phi(v).hi}
            assert set(reineke.omega(n, j).vertices) == by_roots, (n, j)


def test_epsilon_examples():
    zero = _datum(5, 0, {})
    assert reineke.epsilon(2, zero) == 0
    assert reineke.epsilon(2, _datum(5, 0, {(2, 1): 1})) == 1
    assert reineke.epsilon(2, _datum(5, 0, {(2, 1): 1, (2, 3): 1})) == 1


def test_epsilon_other_parity():
    assert reineke.epsilon_other_parity(1, _datum(5, 0, {})) == 0
    assert reineke.epsilon_other_parity(1, _datum(5, 0, {(1, 0): 1})) == 1
    assert reineke.epsilon_other_parity(1, _datum(5, 0, {(2, 1): 1})) == 0


def test_parity_dispatch():
    with pytest.raises(ParityMismatch):
        reineke.epsilon(1, _datum(5, 0, {}))
    with pytest.raises(ParityMismatch):
        reineke.epsilon_other_parity(2, _datum(5, 0, {}))
    assert reineke.epsilon_any(1, _datum(5, 0, {(1, 0): 2})) == 2


def test_single_vertex_epsilon_is_01():
    for n in (2, 3, 4, 5):
        for delta in (0, 1):
            carrier = Carrier(f"gamma-delta:{delta}", n)
            for v in carrier.vertices():
                d = VertexDatum(carrier, {v: 1})
                for j in range(1, n + 1):
                    assert reineke.epsilon_any(j, d) in (0, 1)


def test_solvers_agree():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for t in range(40):
            delta = t % 2
            carrier = Carrier(f"gamma-delta:{delta}", n)
            counts = {v: rng.randint(0, 4) for v in carrier.vertices() if rng.random() < 0.6}
            d = VertexDatum(carrier, counts)
            for j in range(1, n + 1):
                if j % 2 != delta:
                    continue
                om = reineke.omega(n, j)
                assert reineke.epsilon_bruteforce(om, d) == reineke.epsilon_mincut(om, d)


def test_dual_datum():
    d = _datum(5, 0, {(2, 1): 3})
    dual = reineke.dual_vertex_datum(d)
    assert reineke.delta_of_carrier(dual.carrier) == 1
    # cv_{(i,k)} = c_{(i*, n-k)}: the count lands at (4,4)
    assert dual.nonzero() == {Vertex(4, 8): 3}
    # dualizing twice restores the datum
    assert reineke.dual_vertex_datum(dual).nonzero() == d.nonzero()


def test_epsilon_star_examples():
    assert reineke.epsilon_star(3, _datum(5, 0, {})) == 0
    # single-vertex unfolding: eps*_j(e_{(i,k)}) = eps_j(e_{(i*, n-k)}) on the dual window
    d = _datum(5, 0, {(2, 1): 1})
    dual = _datum(5, 1, {(4, 4): 1})
    for j in range(1, 6):
        assert reineke.epsilon_star(j, d) == reineke.epsilon_any(j, dual)


def test_epsilon_star_rank2_symmetry():
    # mirror-symmetric datum on A_2: eps*_j equals eps_{j*} of the mirrored datum
    d = _datum(2, 0, {(1, 0): 1, (1, 2): 2, (2, 1): 1})
    mirrored = _datum(2, 1, {(2, 2): 1, (2, 0): 2, (1, 1): 1})
    for j in (1, 2):
        assert reineke.epsilon_star(j, d) == reineke.epsilon_any(j, mirrored)


def test_epsilon_star_composed_with_dual_is_epsilon():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for t in range(20):
            delta = t % 2
            carrier = Carrier(f"gamma-delta:{delta}", n)
            counts = {v: rng.randint(0, 3) for v in carrier.vertices() if rng.random() < 0.5}
            d = VertexDatum(carrier, counts)
            for j in range(1, n + 1):
                assert reineke.epsilon_star(j, reineke.dual_vertex_datum(d)) == reineke.epsilon_any(j, d)


def test_solvers_agree_beyond_dispatch_threshold():
    # n=9, j=5 has a 25-point diamond: the production path uses the min-cut
    # solver there; the enumeration oracle still certifies it
    rng = random.Random(23)
    om = reineke.omega(9, 5)
    assert len(om.vertices) == 25
    carrier = Carrier("gamma-delta:1", 9)
    for _ in range(10):
        counts = {v: rng.randint(0, 4) for v in carrier.vertices() if rng.random() < 0.6}
        d = VertexDatum(carrier, counts)
        assert reineke.epsilon_bruteforce(om, d) == reineke.epsilon_mincut(om, d) == reineke.epsilon(5, d)
