import hashlib
import json
import random
import re

import pytest

from snaketsys import reineke
from snaketsys.cli import main
from snaketsys.errors import ParityMismatch
from snaketsys.lusztig import Carrier, VertexDatum, datum_to_json
from snaketsys.quivers import HeightFunction, Vertex
from snaketsys.verify import dual_vertex_datum, epsilon_bruteforce, omega_interval


def _datum(n, delta, entries):
    return VertexDatum(Carrier(f"gamma-delta:{delta}", n), {Vertex(i, 2 * k): c for (i, k), c in entries.items()})


def _random_datum(n, delta, rng, density=0.6):
    carrier = Carrier(f"gamma-delta:{delta}", n)
    return VertexDatum(carrier, {v: rng.randint(0, 4) for v in carrier.vertices() if rng.random() < density})


class _Dinic:
    def __init__(self, size: int):
        self.size = size
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def epsilon_mincut(om, d) -> int:
    """Oracle for diamonds too large to enumerate: max-weight closure by min-cut.

    Source feeds positive weights, negative weights feed the sink, and each
    vertex points at its covers' sources (take v => take every u below v)
    with infinite capacity.  Answer = sum of positives - min cut.  ``om`` is
    the preceq interval of ``verify``, which carries the arrows.
    """
    wts = [d.get(v) - d.get((v.i, v.k2 - 4)) for v in om.vertices]  # c_{i,k} - c_{i,k-2}, by key
    m = len(wts)
    src, snk = m, m + 1
    g = _Dinic(m + 2)
    inf = sum(w for w in wts if w > 0) + 1
    for x, w in enumerate(wts):
        if w > 0:
            g.add_edge(src, x, w)
        elif w < 0:
            g.add_edge(x, snk, -w)
    for a, b in om.covers:
        g.add_edge(b, a, inf)  # membership of b forces membership of a
    return (inf - 1) - g.max_flow(src, snk)


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


def test_off_range_node_is_rejected_on_both_windows():
    # every j outside [1, n] raises, whichever parity branch it would take
    for delta in (0, 1):
        d = _datum(4, delta, {(1, delta): 1})
        for j in (-1, 0, 5, 6):
            msg = re.escape(f"node index {j} outside [1, 4]")
            for fn in (reineke.epsilon_any, reineke.epsilon_other_parity, reineke.epsilon_star):
                with pytest.raises(ValueError, match=msg):
                    fn(j, d)


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
                om = omega_interval(n, j)
                assert epsilon_bruteforce(om, d) == epsilon_mincut(om, d) == reineke.epsilon(j, d)


def test_dual_datum():
    d = _datum(5, 0, {(2, 1): 3})
    dual = dual_vertex_datum(d)
    assert reineke.delta_of_carrier(dual.carrier) == 1
    # cv_{(i,k)} = c_{(i*, n-k)}: the count lands at (4,4)
    assert dual.nonzero() == {Vertex(4, 8): 3}
    # dualizing twice restores the datum
    assert dual_vertex_datum(dual).nonzero() == d.nonzero()


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
                assert reineke.epsilon_star(j, dual_vertex_datum(d)) == reineke.epsilon_any(j, d)


def test_solvers_agree_beyond_dispatch_threshold():
    # n=9, j=5 has a 25-point diamond, a square 5x5 staircase: the
    # enumeration oracle still certifies both other solvers there
    rng = random.Random(23)
    om = omega_interval(9, 5)
    assert len(om.vertices) == 25
    carrier = Carrier("gamma-delta:1", 9)
    for _ in range(10):
        counts = {v: rng.randint(0, 4) for v in carrier.vertices() if rng.random() < 0.6}
        d = VertexDatum(carrier, counts)
        assert epsilon_bruteforce(om, d) == epsilon_mincut(om, d) == reineke.epsilon(5, d)


def test_staircase_matches_bruteforce_on_small_diamonds():
    # every Omega of at most 20 vertices, odd and even j (both windows), on
    # random data and on data whose columns are all negative or tied: counts
    # falling with k give every vertex but (j, 1) the weight -4, constant
    # counts give them 0
    rng = random.Random(29)
    seen, shapes = set(), set()
    for n in range(1, 21):
        for j in range(1, n + 1):
            om = omega_interval(n, j)
            if len(om.vertices) > 20:
                continue
            seen.add(j % 2)
            carrier = Carrier(f"gamma-delta:{j % 2}", n)
            data = [_random_datum(n, j % 2, rng) for _ in range(4)]
            data += [VertexDatum(carrier, {v: 4 * n - v.k2 for v in carrier.vertices()}),
                     VertexDatum(carrier, dict.fromkeys(carrier.vertices(), 3)),
                     VertexDatum(carrier, {v: rng.randint(0, 1) for v in carrier.vertices()})]
            for d in data:
                assert reineke.epsilon(j, d) == epsilon_bruteforce(om, d), (n, j, d.nonzero())
                wts = [d.get(v) - d.get((v.i, v.k2 - 4)) for v in reineke.omega(n, j).vertices]
                for col in (wts[x:x + j] for x in range(0, len(wts), j)):
                    shapes.add("negative" if max(col) < 0 else "tied" if j > 1 and min(col) == max(col) else "mixed")
    assert seen == {0, 1} and shapes == {"negative", "tied", "mixed"}


def test_staircase_matches_mincut_up_to_rank_24():
    rng = random.Random(31)
    for n in range(1, 25):
        for j in range(1, n + 1):
            d = _random_datum(n, j % 2, rng, density=0.8)
            assert reineke.epsilon(j, d) == epsilon_mincut(omega_interval(n, j), d), (n, j, d.nonzero())


def test_closed_form_omega_is_the_preceq_interval_up_to_rank_24():
    # n+1-j columns k+i of j rows k-i each; the same vertices as the interval,
    # and the unit steps of the rectangle are exactly the interval's arrows
    for n in range(1, 25):
        for j in range(1, n + 1):
            om, ref = reineke.omega(n, j), omega_interval(n, j)
            assert [len(col) for col in om.columns] == [j] * (n + 1 - j), (n, j)
            assert om.vertices == tuple(v for col in om.columns for v in col)
            assert len(set(om.vertices)) == len(om.vertices) == len(ref.vertices)
            assert set(om.vertices) == set(ref.vertices), (n, j)
            steps = {(col[y], col[y + 1]) for col in om.columns for y in range(j - 1)}
            steps |= {(left[y], right[y]) for left, right in zip(om.columns, om.columns[1:]) for y in range(j)}
            assert steps == {(ref.vertices[a], ref.vertices[b]) for a, b in ref.covers}, (n, j)


def _seeded_canonical_data(rng):
    """Seeded data on both canonical windows of each rank: empty, dense, sparse, and sparse with zero counts given."""
    for n in (*range(1, 9), 12, 24):
        for delta in (0, 1):
            carrier = Carrier(f"gamma-delta:{delta}", n)
            verts = sorted(carrier.vertices())
            yield n, [
                VertexDatum(carrier, {}),
                VertexDatum(carrier, {v: rng.randint(0, 9) for v in verts}),
                VertexDatum(carrier, {v: rng.randint(1, 5) for v in verts if rng.random() < 0.15}),
                VertexDatum(carrier, {v: rng.randint(1, 5) if rng.random() < 0.3 else 0 for v in verts}),
            ]


def test_epsilon_and_epsilon_star_are_pinned(capsys, tmp_path):
    # epsilon_j and epsilon*_j for every j of seeded data, then the stdout of
    # `reineke --format json` on the same data; the digest was written down
    # while epsilon* still built the dual datum
    lines, out = [], []
    for n, data in _seeded_canonical_data(random.Random(20)):
        for d in data:
            lines.append(" ".join(f"{reineke.epsilon_any(j, d)},{reineke.epsilon_star(j, d)}" for j in range(1, n + 1)))
            path = tmp_path / "d.json"
            path.write_text(json.dumps(datum_to_json(d)))
            for j in range(1, n + 1):
                assert main(["reineke", "--n", str(n), "--j", str(j), str(path), "--format", "json"]) == 0
                out.append(capsys.readouterr().out)
    assert len(lines) == 4 * 2 * 10 and len(out) == 4 * 2 * (36 + 12 + 24)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "c087ddc176298f320507e8e86cbd4e3acfd5fcbd15f1af4a8014b9dae00db464"
    assert hashlib.sha256("".join(out).encode()).hexdigest() == "a5321ff76acb0122254c3c1d60d2c571eb2c35884757e99e6e8d78f9e53ff6e9"


def test_epsilon_star_is_epsilon_of_the_built_dual_datum():
    for n, data in _seeded_canonical_data(random.Random(20)):
        for d in data:
            dual = dual_vertex_datum(d)
            for j in range(1, n + 1):
                assert reineke.epsilon_star(j, d) == reineke.epsilon_any(j, dual), (n, j, d.nonzero())


def test_epsilon_star_builds_no_datum_and_no_vertex(monkeypatch):
    # epsilon* reads the counts through the duality map: no dual VertexDatum
    # (checked or trusted) and no Vertex is built once omega is cached
    built = []
    post_init, trusted, new = VertexDatum.__post_init__, VertexDatum._trusted.__func__, Vertex.__new__
    data = [d for _, ds in _seeded_canonical_data(random.Random(20)) for d in ds]
    for d in data:
        for j in range(1, d.carrier.n + 1):
            reineke.omega(d.carrier.n, j)
    monkeypatch.setattr(VertexDatum, "__post_init__", lambda self: (built.append(self), post_init(self))[1])
    monkeypatch.setattr(VertexDatum, "_trusted", classmethod(lambda cls, *a: (built.append(a), trusted(cls, *a))[1]))
    monkeypatch.setattr(Vertex, "__new__", staticmethod(lambda cls, *a: (built.append(a), new(cls, *a))[1]))
    values = [reineke.epsilon_star(j, d) for d in data for j in range(1, d.carrier.n + 1)]
    assert len(values) == 4 * 2 * (36 + 12 + 24) and built == []
    VertexDatum(data[0].carrier, {})
    Vertex(1, 0)
    assert len(built) == 2  # the counters see a construction
