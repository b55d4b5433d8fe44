"""Seeded fingerprints of six layers, pinned by tests/test_fingerprint.py.

Each layer is written out as canonical text lines on seeded inputs, and the
tier-1 test pins one sha256 per layer, so a refactor of that layer that
changes any output fails there.  The layers:

- ``quivers``: ``preceq`` between every pair of a window of vertices (plus
  off-quiver points), ``dualize(v, +1)`` and ``dualize(v, -1)``, and
  ``region`` on twisted quivers, over seeded random height functions;
- ``predictions``: ``check_theorem_hypotheses`` (``left``, ``right``,
  ``all_one``) and ``predicted_tfd_left``/``predicted_tfd_right`` against
  every window probe, on seeded prime and non-prime snakes of both flavors,
  some also with their last point moved so that most are no snakes;
- ``lusztig``: ``VertexDatum`` on every carrier kind, built from empty,
  unit, sparse and dense counts, with zeros given and with plain-tuple keys:
  its items, ``len``, ``get``/``in`` on present, absent, off-carrier and
  plain-tuple keys, ``datum_to_json``, ``rho`` and every ``rho_step``
  stage, ``epsilon_any``/``epsilon_star`` for every j, and the type and
  message of each constructor error;
- ``snakes``: ``in_snake_position``, ``in_prime_snake_position``,
  ``qr_untwisted`` and ``qr_twisted`` (each result, or the type and message
  of its error, wrong flavor included) on every pair of a window of
  vertices (plus off-quiver points), with ``reversed()`` of each height
  function; ``is_snake``, ``is_prime_snake``, ``split_prime`` and
  ``qr_sequences`` on seeded snakes of lengths 1 to 7, prime or not, some
  with their last point moved or taken off the quiver; ``translate_twisted``
  on seeded big_theta window snakes and on a few that are none; and
  ``canonical(n, delta)`` on good and bad ranks and deltas, each twice;
- ``windows``: on seeded untwisted (n 1-8) and twisted (n0 2-5) height
  functions and on ``theta``, ``big_theta`` and ``canonical``, the Gamma
  window (``gamma_vertices`` in order and each ``gamma_row``), ``in_gamma``
  on window, off-window and off-quiver points and on rows 0 and n+1, both
  ``compatible_reading`` orders, the ``phi_map`` items, the error of ``phi``
  off the window, and ``quiver_ascii``/``quiver_dot`` with and without
  labels and on an empty k2 range; and every carrier kind at ranks 1-15:
  ``height_function()`` or its error, ``kind``, ``arg``, equality with
  the other carriers of its rank, and its vertex order (``list`` for Gamma
  kinds, whose iteration order ``verify`` draws from, ``sorted`` for V<j>);
- ``realize``: on seeded prime snakes of both flavors with p from 2 to 40,
  each with a second one inside the window, under ``qdatum_a`` or
  ``qdatum_b`` and under a signed custom table whose entries slide along D, ``cuspidal_monomial`` of each point,
  ``snake_monomial`` of the snake (also with repeated points, and empty) and
  ``relation_monomials`` of its relation: each monomial's ``factors`` items
  in stored order and its ``to_json()``, ``exact`` and ``identity_holds()``;
  the error of each on off-quiver points, on the other flavor's q-datum and
  on custom tables without a table or lacking a window vertex; and
  ``realization_from_json`` on the signed tables and on broken copies;
- ``roots``: for ranks 1-8, ``inversion_sequence`` (its roots as ``str``,
  or the type and message of its error) with ``is_reduced`` and
  ``is_longest_word`` on seeded reduced words (longest ones too), on the
  same words with one letter doubled and on random words, some with a
  letter off [1, n]; ``num_positive_roots``; ``star`` and ``check_node``
  on rows 0 to n+1; and ``str`` of positive and negative roots.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py               # one digest per layer
    PYTHONPATH=src python tests/fingerprint.py --dump quivers  # that layer's lines
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction

from snaketsys import reineke, roots, snakes
from snaketsys.errors import NotSnake
from snaketsys.lusztig import Carrier, VertexDatum, datum_to_json, rho, rho_step, unit_datum
from snaketsys.quivers import TWISTED, UNTWISTED, HeightFunction, Vertex, phi_map, quiver_ascii, quiver_dot
from snaketsys.realize import (
    CUSTOM,
    Monomial,
    Realization,
    cuspidal_monomial,
    realization_from_json,
    relation_monomials,
    relation_monomials_text,
    snake_monomial,
)
from snaketsys.tsystem import check_theorem_hypotheses, extended_tsystem, predicted_tfd_left, predicted_tfd_right
from snaketsys.verify import random_height_function, random_snake

SEED = 2023


def _height_functions(rng: random.Random, count: int) -> list[HeightFunction]:
    """count random height functions, alternating untwisted (n 1-6) and twisted (n0 2-4)."""
    out = []
    for t in range(count):
        if t % 2 == 0:
            out.append(random_height_function(rng.randint(1, 6), rng))
        else:
            n0 = rng.randint(2, 4)
            out.append(random_height_function(2 * n0 - 1, rng, TWISTED, n0))
    return out


def _window(xi: HeightFunction) -> list[Vertex]:
    """The vertices from just below the lowest height up to two duality periods above it."""
    lo = min(xi.values2) - 2
    return xi.vertices_between(lo, lo + 2 * xi.ntilde2())


def _bits(values) -> str:
    """1/0 for True/False, and 1/0/- for a 0/1/None prediction."""
    return "".join("-" if x is None else str(int(x)) for x in values)


def quivers_lines(count: int = 40) -> list[str]:
    rng = random.Random(SEED)
    lines = []
    for xi in _height_functions(rng, count):
        lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)}")
        verts = _window(xi)
        # the same vertices half a step off their rows: preceq is False on them
        targets = verts + [Vertex(v.i, v.k2 + 1) for v in verts[::3]]
        for v in verts:
            region = xi.region(v).name if xi.flavor == TWISTED else "-"
            lines.append(f"{v} D+{xi.dualize(v, 1)} D-{xi.dualize(v, -1)} {region} {_bits(xi.preceq(v, w) for w in targets)}")
    return lines


def _cases(rng: random.Random, count: int):
    """(xi, points) for count seeded snakes, cycling flavor and primality."""
    for t in range(count):
        flavor, prime = (UNTWISTED, TWISTED)[t % 2], t % 4 < 2
        if flavor == UNTWISTED:
            xi = random_height_function(rng.randint(2, 6), rng)
        else:
            n0 = rng.randint(2, 4)
            xi = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
        yield xi, random_snake(xi, rng, rng.randint(2, 7), prime=prime)


def predictions_lines(count: int = 48) -> list[str]:
    rng = random.Random(SEED + 1)
    lines = []
    for t, (xi, pts) in enumerate(_cases(rng, count)):
        # every third snake also appears with its last point one step down its row
        moved = pts[:-1] + (Vertex(pts[-1].i, pts[-1].k2 - 2 * xi.d2(pts[-1].i)),)
        for snake in (pts, moved) if t % 3 == 0 else (pts,):
            lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)} P={' '.join(map(str, snake))}")
            try:
                report = check_theorem_hypotheses(xi, snake)
            except NotSnake as exc:
                lines.append(f"hypotheses NotSnake: {exc}")
            else:
                lines.append(f"hypotheses left={_bits(report.left)} right={_bits(report.right)} all_one={report.all_one}")
            heights = [v.k2 for v in snake]
            probes = xi.vertices_between(min(heights) - xi.ntilde2(), max(heights) + xi.ntilde2())
            lines.append(f"left {_bits(predicted_tfd_left(xi, v, snake) for v in probes)}")
            lines.append(f"right {_bits(predicted_tfd_right(xi, snake, v) for v in probes)}")
    return lines


def _counts(rng: random.Random, carrier: Carrier):
    """(label, counts) of seeded data on carrier: empty, unit, sparse, dense, zeros given, plain-tuple keys."""
    verts = sorted(carrier.vertices())
    yield "empty", {}
    yield "unit", unit_datum(carrier, rng.choices(verts, k=rng.randint(1, 4))).counts
    yield "sparse", {v: rng.randint(1, 9) for v in verts if rng.random() < 0.2}
    yield "dense", {v: rng.randint(0, 9) for v in verts}
    yield "zeros", {v: rng.randint(1, 9) if rng.random() < 0.3 else 0 for v in rng.sample(verts, len(verts))}
    yield "tuples", {(v.i, v.k2): rng.randint(0, 3) for v in verts if rng.random() < 0.5}


def _probes(d: VertexDatum) -> list:
    """A present key, an absent key of the carrier, an off-carrier key, and the first two as plain tuples."""
    verts = sorted(d.carrier.vertices())
    present = [v for v in verts if d.get(v)][:1]
    absent = [v for v in verts if not d.get(v)][:1]
    return [*present, *absent, type(verts[0])(d.carrier.n + 1, 0), *(tuple(v) for v in present + absent)]


def _datum_lines(d: VertexDatum) -> list[str]:
    items = " ".join(f"{v}={c}" for v, c in sorted(d.counts.items()))
    lines = [f"  len={len(d.counts)} items {items}"]
    for k in _probes(d):
        lines.append(f"  {type(k).__name__}{tuple(k)} get={d.get(k)} counts.get={d.counts.get(k)} in={k in d.counts}")
    lines.append(f"  json {json.dumps(datum_to_json(d))}")
    return lines


def _outcome(build, show=lambda out: []) -> list[str]:
    """The type and message of the error build raises, or the lines show writes of its result."""
    try:
        out = build()
    except Exception as exc:
        return [f"  error {type(exc).__name__}: {exc}"]
    return ["  built", *show(out)]


def lusztig_lines() -> list[str]:
    rng = random.Random(SEED + 2)
    lines = []
    for n in (1, 3, 5, 7, 11, 15):
        n0 = (n + 1) // 2
        names = [f"gamma-delta:{delta}" for delta in (0, 1)]
        if n >= 3:
            names += ["gamma-THETA", "gamma-theta", *(f"vj:{j}" for j in range(n0, n + 2))]
        for name in names:
            carrier = Carrier(name, n)
            for label, counts in _counts(rng, carrier):
                d = VertexDatum(carrier, counts)
                lines.append(f"datum {name} n={n} {label}")
                lines += _datum_lines(d)
                support = {v: c for v, c in counts.items() if c}
                lines.append(f"  equals its support: {d == VertexDatum(carrier, support)}")
                if carrier.kind == "gamma-delta":
                    for j in range(1, n + 1):
                        lines.append(f"  j={j} epsilon={reineke.epsilon_any(j, d)} epsilon*={reineke.epsilon_star(j, d)}")
                    continue
                first = n0 if name == "gamma-THETA" else carrier.arg if carrier.kind == "vj" else n + 1
                if name == "gamma-THETA" or first == n0:
                    lines.append(f"  rho {json.dumps(datum_to_json(rho(d)))}")
                for j in range(first, n + 1):
                    d = rho_step(j, d)
                    lines.append(f"  rho_step {j} -> {d.carrier.name}")
                    lines += _datum_lines(d)
            verts = sorted(carrier.vertices())
            v, w = verts[0], verts[-1]
            off = [type(v)(n + 1, 0), (0, 0), type(v)(1, 1), "key", type(v)(n, -4)]
            for bad in (
                {v: 1, off[0]: 1, w: 0, off[1]: 2, off[2]: 3, off[3]: 4, off[4]: 5},
                {off[2]: -1},
                {v: -1, w: 0},
                {v: 1, w: 1.0},
                {v: True},
                {v: Fraction(2)},
                {v: "1"},
                {w: None, off[0]: None},
                [(v, 1), (w, 2)],
                5,
            ):
                lines.append(f"construct {name} n={n} {bad!r}")
                lines += _outcome(lambda: VertexDatum(carrier, bad), _datum_lines)
    for name, n in (("vj:1", 3), ("vj:5", 3), ("gamma-theta", 4), ("gamma-THETA", 1), ("gamma-delta:2", 3),
                    ("gamma-delta:0", 3.0), ("sigma", 3), ("vj:x", 3)):
        lines.append(f"carrier {name!r} {n!r}")
        lines += _outcome(lambda: Carrier(name, n))
    big, theta = Carrier("gamma-THETA", 7), Carrier("gamma-theta", 7)
    lines += _outcome(lambda: rho(VertexDatum(theta, {})))
    for j in (3, 4, 8):
        lines += _outcome(lambda: rho_step(j, VertexDatum(big, {})))
    return lines


def _result(call) -> str:
    """repr of call's result, or the type and message of the error it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def snakes_lines(count: int = 16) -> list[str]:
    rng = random.Random(SEED + 3)
    lines = []
    for xi in _height_functions(rng, count):
        rev = xi.reversed()
        lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)} "
                     f"reversed={list(rev.values2)} {rev.n0}")
        verts = _window(xi)
        targets = verts + [Vertex(v.i, v.k2 + 1) for v in verts[::5]]
        for v in verts[::2]:
            for w in targets:
                pos = _bits((snakes.in_snake_position(xi, v, w), snakes.in_prime_snake_position(xi, v, w)))
                qr_u = _result(lambda: snakes.qr_untwisted(xi, v, w))
                qr_t = _result(lambda: snakes.qr_twisted(xi, v, w))
                lines.append(f"{v} {w} {pos} u={qr_u} t={qr_t}")
    for t, xi in enumerate(_height_functions(rng, 4 * count)):
        pts = random_snake(xi, rng, rng.randint(1, 7), prime=t % 4 < 2)
        last = pts[-1]
        down = pts[:-1] + (Vertex(last.i, last.k2 - 2 * xi.d2(last.i)),)  # last point one step down its row
        off = pts[:-1] + (Vertex(last.i, last.k2 + 1),)  # and half a step off it
        for snake in (pts, down, off):
            lines.append(f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)} P={' '.join(map(str, snake))}")
            lines.append(f"  is_snake={snakes.is_snake(xi, snake)!r} is_prime_snake={snakes.is_prime_snake(xi, snake)!r}")
            lines.append(f"  split_prime {_result(lambda: snakes.split_prime(xi, snake))}")
            lines.append(f"  qr_sequences {_result(lambda: snakes.qr_sequences(xi, snake))}")
    for n0 in (2, 3, 4, 5):
        big = HeightFunction.big_theta(n0)
        for t in range(count):
            pts = random_snake(big, rng, rng.randint(1, 6), prime=t % 2 == 0, in_gamma=True)
            # every fourth snake also appears with a point one duality period past its last, outside the window
            beyond = (pts + (Vertex(pts[-1].i, pts[-1].k2 + big.ntilde2()),),) if t % 4 == 0 else ()
            for snake in (pts, *beyond):
                lines.append(f"translate n0={n0} P={' '.join(map(str, snake))}")
                lines.append(f"  {_result(lambda: snakes.translate_twisted(n0, snake))}")
        not_snake = big.gamma_vertices()[:2]
        lines.append(f"translate n0={n0} not a snake {_result(lambda: snakes.translate_twisted(n0, not_snake))}")
    for n in (-1, 0, 1, 2, 3, 6, 3.0, True, "3"):
        for delta in (0, 1, 2, -1, 0.0, 1.0, True, False, "1", None):
            for _ in range(2):  # twice: a raise is never cached
                got = _result(lambda: HeightFunction.canonical(n, delta).values2)
                lines.append(f"canonical({n!r}, {delta!r}) {got}")
    return lines


def _window_functions(rng: random.Random) -> list[HeightFunction]:
    """Seeded untwisted (n 1-8) and twisted (n0 2-5) height functions, then theta, big_theta and canonical."""
    out = [random_height_function(n, rng) for n in range(1, 9)]
    out += [random_height_function(2 * n0 - 1, rng, TWISTED, n0) for n0 in range(2, 6)]
    out += [f(n0) for n0 in range(2, 6) for f in (HeightFunction.theta, HeightFunction.big_theta)]
    return out + [HeightFunction.canonical(n, delta) for n in range(1, 9) for delta in (0, 1)]


def _carrier_names(n: int) -> list[str]:
    """Every carrier kind at rank n, with V<j> for j one past each end of [n0, n+1]."""
    n0 = (n + 1) // 2
    return ["gamma-theta", "gamma-THETA", "gamma-delta:0", "gamma-delta:1", *(f"vj:{j}" for j in range(n0 - 1, n + 3))]


def windows_lines() -> list[str]:
    rng = random.Random(SEED + 4)
    lines = []
    for xi in _window_functions(rng):
        n = xi.n
        lines.append(f"xi {xi.flavor} n={n} n0={xi.n0} values2={list(xi.values2)}")
        verts = xi.gamma_vertices()
        lines.append(f"  gamma {' '.join(map(str, verts))}")
        for i in range(1, n + 1):
            lines.append(f"  row {i} {list(xi.gamma_row(i))}")
        lo, hi = min(v.k2 for v in verts), max(v.k2 for v in verts)
        probes = xi.vertices_between(lo - 4, hi + 4)
        probes += [Vertex(v.i, v.k2 + 1) for v in probes[::3]] + [Vertex(i, k2) for i in (0, n + 1) for k2 in (lo, hi)]
        lines.append(f"  in_gamma {_bits(map(xi.in_gamma, probes))}")
        for reverse in (False, True):
            order, word = xi.compatible_reading(reverse)
            lines.append(f"  reading {reverse} {' '.join(map(str, order))} word={list(word)}")
        lines.append(f"  phi {' '.join(f'{v}={r}' for v, r in phi_map(xi).items())}")
        for v in (Vertex(1, lo - 4), Vertex(n, hi + 4), Vertex(1, lo + 1), Vertex(0, lo)):
            lines.append(f"  phi {v} {_result(lambda: xi.phi(v))}")
        for k2_lo, k2_hi in ((lo - 2, hi + 2), (lo + 2, lo + 6), (hi + 4, hi + 12), (hi, lo)):
            for labels in (False, True):
                lines.append(f"  render {k2_lo}:{k2_hi} labels={labels}")
                lines += quiver_ascii(xi, k2_lo, k2_hi, labels).split("\n")
                lines += quiver_dot(xi, k2_lo, k2_hi, labels).split("\n")
    for n in range(1, 16):
        carriers = {}
        for name in _carrier_names(n):
            try:
                carriers[name] = Carrier(name, n)
            except Exception as exc:
                lines.append(f"carrier {name} n={n} error {type(exc).__name__}: {exc}")
        for name, carrier in carriers.items():
            hf = _result(lambda: carrier.height_function().values2)
            eq = _bits(carrier == other for other in carriers.values())
            lines.append(f"carrier {name} n={n} kind={carrier.kind} arg={carrier.arg} hf={hf} "
                         f"eq={eq} copy={carrier == Carrier(name, n)}")
            order = sorted if carrier.kind == "vj" else list
            lines.append(f"  vertices {_result(lambda: ' '.join(map(str, order(carrier.vertices()))))}")
            lines.append(f"  {_result(lambda: type(carrier.vertices()).__name__)}")
    return lines


def _signed_table(xi: HeightFunction) -> Realization:
    """A custom table with exponents +-1 on a shared factor Y_{1,0}, so that factors cancel within a term."""
    return Realization.custom(xi.n + 1, {
        v: Monomial({(1, 0): 1 if v.i % 2 else -1, (v.i, v.k2): -1}) for v in xi.gamma_vertices()
    })


def _monomial(label: str, m: Monomial) -> str:
    return f"  {label} {list(m.factors.items())} {json.dumps(m.to_json())}"


def _table_json(real: Realization) -> dict:
    entries = [{"i": v.i, "k2": v.k2, "monomial": m.to_json()} for v, m in real.table.items()]
    return {"h_dual": real.h_dual, "g0_rank": real.g0_rank, "entries": entries}


def _broken_tables(obj: dict):
    """(label, copy of the table JSON obj with one thing broken or changed)."""
    first = obj["entries"][0]
    yield "as is", obj
    yield "no h_dual", {k: v for k, v in obj.items() if k != "h_dual"}
    yield "no g0_rank", {k: v for k, v in obj.items() if k != "g0_rank"}
    yield "no entries", {k: v for k, v in obj.items() if k != "entries"}
    yield "float h_dual", {**obj, "h_dual": float(obj["h_dual"])}
    yield "string g0_rank", {**obj, "g0_rank": str(obj["g0_rank"])}
    yield "last entry dropped", {**obj, "entries": obj["entries"][:-1]}
    yield "first entry twice", {**obj, "entries": obj["entries"] + [{**first, "monomial": []}]}
    for key, bad in (("i", 1.0), ("k2", True), ("monomial", None)):
        yield f"entry {key}={bad!r}", {**obj, "entries": [{**first, key: bad}, *obj["entries"][1:]]}
    for factor in ({"node": 0, "spectral": 0, "exp": 1}, {"node": obj["g0_rank"] + 1, "spectral": 0, "exp": 1},
                   {"node": 1, "spectral": 0, "exp": "1"}, {"node": 1, "spectral": 0.5, "exp": 1},
                   {"node": 1, "spectral": 2, "exp": 3}, {"node": 1, "spectral": 0}):
        yield f"factor {factor}", {**obj, "entries": [{**first, "monomial": first["monomial"] + [factor]}, *obj["entries"][1:]]}
    cancel = [{"node": 1, "spectral": 4, "exp": 2}, {"node": 1, "spectral": 4, "exp": -2}]
    yield "cancelling factors", {**obj, "entries": [{**first, "monomial": cancel}, *obj["entries"][1:]]}


def _realized_snake_lines(xi: HeightFunction, qdatum: Realization, pts: tuple) -> list[str]:
    """The realize lines of one snake under qdatum and the signed table, and under the other flavor's q-datum."""
    lines = [f"xi {xi.flavor} n={xi.n} n0={xi.n0} values2={list(xi.values2)} P={' '.join(map(str, pts))}"]
    rel = extended_tsystem(xi, pts) if len(pts) >= 2 else None
    off = (Vertex(pts[0].i, pts[0].k2 + 1), Vertex(0, pts[0].k2), Vertex(xi.n + 1, pts[-1].k2))
    for real in (qdatum, _signed_table(xi)):
        lines.append(f" {real.mode} h_dual={real.h_dual} g0_rank={real.g0_rank}")
        for v in pts:
            lines.append(_monomial(f"cusp {v}", cuspidal_monomial(real, xi, v)))
        for label, points in (("snake", pts), ("repeated", pts + pts[:2] + pts[-1:]), ("empty", ())):
            m, exact = snake_monomial(real, xi, points)
            lines.append(_monomial(f"{label} exact={exact}", m))
        if rel is not None:
            mon = relation_monomials(rel, real)
            lines.append(f"  relation exact={mon.exact} identity_holds={mon.identity_holds()}")
            for name in ("b", "c", "a", "d", "q", "r"):
                lines.append(_monomial(name, getattr(mon, name)))
            lines.append(f"  {relation_monomials_text(mon)}")
        for v in off:
            lines.append(f"  off {v} {_result(lambda: cuspidal_monomial(real, xi, v))}")
            lines.append(f"  off snake {_result(lambda: snake_monomial(real, xi, pts[:1] + (v,) + pts[1:]))}")
    other = Realization.qdatum_b(2) if xi.flavor == UNTWISTED else Realization.qdatum_a(xi.n)
    lines.append(f" other flavor {_result(lambda: snake_monomial(other, xi, pts))}")
    if rel is not None:
        lines.append(f" other flavor {_result(lambda: relation_monomials(rel, other))}")
    return lines


def realize_lines() -> list[str]:
    rng = random.Random(SEED + 5)
    lines = []
    for t, p in enumerate(p for p in (2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 24, 30, 40) for _ in range(2)):
        if t % 2 == 0:
            xi = random_height_function(rng.randint(1, 8), rng)
            qdatum = Realization.qdatum_a(xi.n)
        else:
            n0 = rng.randint(2, 5)
            xi = random_height_function(2 * n0 - 1, rng, TWISTED, n0)
            qdatum = Realization.qdatum_b(n0)
        pts = random_snake(xi, rng, p, prime=True)
        lines += _realized_snake_lines(xi, qdatum, pts)
        # a snake inside the window, where every signed-table entry shares Y_{1,0}, so
        # that the ends of a relation hold keys that cancel in A or reach 0 only in D
        lines += _realized_snake_lines(xi, qdatum, random_snake(xi, rng, p, prime=True, in_gamma=True))
        window = xi.gamma_vertices()
        for real in (Realization(CUSTOM, xi.n + 1, xi.n), Realization.custom(xi.n + 1, {v: Monomial.y(1, 0) for v in window[1:]})):
            lines.append(f" table {real.table is not None} {_result(lambda: snake_monomial(real, xi, pts))}")
        obj = _table_json(_signed_table(xi))
        for label, broken in _broken_tables(obj):
            def load():
                back = realization_from_json(broken, xi)
                return back.mode, back.h_dual, back.g0_rank, [(v, list(m.factors.items())) for v, m in back.table.items()]
            lines.append(f" from_json {label} {_result(load)}")
    return lines


def _reduced_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A seeded reduced word of rank n: random letters, each kept only if the word stays reduced."""
    word: tuple[int, ...] = ()
    while len(word) < length:
        letter = rng.randint(1, n)
        if roots.is_reduced(n, word + (letter,)):
            word += (letter,)
    return word


def roots_lines(count: int = 9) -> list[str]:
    rng = random.Random(SEED + 6)
    lines = []
    for n in range(1, 9):
        top = roots.num_positive_roots(n)
        lines.append(f"n={n} positive roots={top}")
        for t in range(count):
            word = _reduced_word(rng, n, top if t % 3 == 0 else rng.randint(0, top))
            k = rng.randrange(len(word) + 1)
            doubled = word[:k] + word[k - 1:] if k else word + word[-1:]
            noise = tuple(rng.randint(0 if t % 3 == 2 else 1, n) for _ in range(rng.randint(1, top)))
            for w in (word, doubled, noise):
                lines.append(f"word {list(w)}")
                lines.append(f"  inversion {_result(lambda: ' '.join(map(str, roots.inversion_sequence(n, w))))}")
                lines.append(f"  is_reduced={_result(lambda: roots.is_reduced(n, w))} "
                             f"is_longest_word={_result(lambda: roots.is_longest_word(n, w))}")
        for i in range(0, n + 2):
            lines.append(f"row {i} star {_result(lambda: roots.star(n, i))} check_node {_result(lambda: roots.check_node(n, i))}")
    for lo in range(1, 4):
        for hi in range(lo, 4):
            lines.append(f"root {lo} {hi} {roots.Root(lo, hi, 1)} {roots.Root(lo, hi, -1)}")
    return lines


LAYERS = {
    "quivers": quivers_lines,
    "predictions": predictions_lines,
    "lusztig": lusztig_lines,
    "snakes": snakes_lines,
    "windows": windows_lines,
    "realize": realize_lines,
    "roots": roots_lines,
}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dump", choices=sorted(LAYERS), help="print the canonical lines of one layer")
    args = parser.parse_args(argv)
    if args.dump:
        print("\n".join(LAYERS[args.dump]()))
        return
    for name, lines_of in LAYERS.items():
        lines = lines_of()
        print(f"{name}: {digest(lines)} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
