"""snaketsys benchmark: one seeded, single-threaded, closed-loop workload run.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload relations --seed 1 --seconds 10 --trace 0

Workloads: relations, transport, epsilon, windows (see workloads.py and
BENCHMARK.json for what each one stresses and why).  Every op's output is
checked against a benchmark-side oracle.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  The full record (run
context, cache statistics, span table) is written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.

One caller, one op at a time, no threads.  The inputs form a block of
schedule positions that the run repeats round after round until
``--seconds`` are used up (``windows`` makes a fresh block of the same sizes
every round); each position keeps its fastest round, which removes the
short stalls of a shared host while the input mix stays that of the whole
block.  The host's speed also drifts for tens of seconds at a time, so a
fixed reference loop (``worker.reference_loop``, independent of the
library) is timed between ops, and the latencies are scaled by
``REFERENCE_S`` / (the loop's best time in the run): they read as on a
machine where the loop takes ``REFERENCE_S``.  So ``ops_per_s`` is positions
/ (sum of their scaled best latencies) and ``op_ms_p50`` / ``op_ms_p90`` are
quantiles of the scaled best latencies (a block has at least 100
positions, so at least 10 lie beyond p90); the unscaled figures are in the
record.  ``peak_rss_mb``
is the run's peak resident memory; the caches are unbounded, so work moved
into them shows there.

``setup_s`` is the time from starting a fresh interpreter to being ready
for the first timed op (import plus cache warming, input generation
excluded), the median of ``SETUP_SAMPLES`` interpreters.

The traced run alternates untraced and traced rounds over the same block,
for ``--seconds``, and reports per-layer figures per traced op.

Tests of the benchmark itself: ``python3 -m pytest benchmarks``
(``BENCH_SMOKE=1`` adds a short run of every workload).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("relations", "transport", "epsilon", "windows")
SETUP_SAMPLES = 3
TIMEOUT_S = 170


def _worker(args: list[str]) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its spawn time and report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(spawned: float, setup: dict) -> float:
    return (setup["start"] - spawned) + setup["import_s"] + setup["warm_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "snaketsys", "__init__.py")):
        print(f"no snaketsys sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, rep = _worker(common + ["--setup-only"])
            setups.append(_setup_s(spawned, rep["setup"]))
    spawned, rep = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    metrics = rep["metrics"]
    if not args.trace:
        setups.append(_setup_s(spawned, rep["setup"]))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        rep["setup_samples_s"] = setups

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(rep, fh, indent=1)
    if rep["first_failure"]:
        print(f"first failure: {rep['first_failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
