"""The benchmark's own tests: its oracles against the library, and a smoke run.

    python3 -m pytest benchmarks/test_benchmark.py              # oracles, seconds
    BENCH_SMOKE=1 python3 -m pytest benchmarks/test_benchmark.py  # plus every workload, ~2 min

These sit outside the package's test suite on purpose: the smoke run
starts benchmark processes and must not slow or flake the tier-1 gate.
"""
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from snaketsys import quivers, reineke, snakes  # noqa: E402
from snaketsys.lusztig import Carrier, VertexDatum  # noqa: E402
from snaketsys.quivers import HeightFunction, Vertex  # noqa: E402


def _height_functions(count):
    rng = random.Random(0)
    for t in range(count):
        if t % 2:
            yield workloads.random_untwisted(rng, rng.randint(1, 7))
        else:
            yield workloads.random_twisted(rng, rng.randint(2, 4))


def test_root_labels_match_phi_map():
    for hf in _height_functions(40):
        order, word = hf.compatible_reading()
        want = {v: (r.lo, r.hi, r.sign) for v, r in quivers.phi_map(hf).items()}
        assert oracle.root_labels(hf.n, order, word) == want, hf


def test_reachability_and_snake_positions_match_library():
    for hf in _height_functions(24):
        verts = [Vertex(i, k2) for i in range(1, hf.n + 1) for k2 in range(-10, 18) if hf.is_vertex(Vertex(i, k2))]
        for v in verts:
            for w in verts:
                assert oracle.reaches(hf, v, w) == hf.preceq(v, w), (hf, v, w)
                assert oracle.in_snake_position(hf, v, w) == snakes.in_snake_position(hf, v, w), (hf, v, w)
                assert oracle.in_prime_snake_position(hf, v, w) == snakes.in_prime_snake_position(hf, v, w), (hf, v, w)


def test_max_closure_matches_reineke():
    rng = random.Random(1)
    for n in range(2, 8):
        for delta in (0, 1):
            labels = {(n, delta): workloads._labels(HeightFunction.canonical(n, delta))}
            carrier = Carrier(f"gamma-delta:{delta}", n)
            for _ in range(10):
                counts = {v: rng.randint(0, 4) for v in carrier.vertices() if rng.random() < 0.6}
                datum = VertexDatum(carrier, counts)
                for j in range(1, n + 1):
                    assert workloads._epsilon_oracle(j, n, delta, counts, labels) == reineke.epsilon_any(j, datum)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_accept_real_outputs_and_reject_tampered_ones(name):
    wl = workloads.WORKLOADS[name]()
    wl.warm()
    pool = wl.generate(random.Random(7))[:12]
    for item in pool:
        try:
            out = wl.run(item)
        except Exception as exc:
            assert wl.unreachable(item, exc)
            continue
        assert wl.check(item, out) == workloads.OK, item.bucket
    # a wrong answer must not pass: another item's output
    assert wl.check(pool[1], wl.run(pool[0])) == workloads.FAIL


@pytest.mark.skipif(os.environ.get("BENCH_SMOKE") != "1", reason="set BENCH_SMOKE=1 to run every workload")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_metric_names_match_benchmark_json(name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert name in {w["name"] for w in spec["workloads"]}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
