"""One benchmark process: set up, generate inputs, run the closed loop, report.

Started by ``run.py`` in a fresh interpreter.  With ``--setup-only`` it
stops once the workload is ready for its first op, so that ``run.py`` can
take several set-up samples.  Otherwise it prints one JSON object with the
counts, metrics, run context and (traced) span table.
"""
import time

T0 = time.monotonic()  # first thing, so the parent can see interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict, deque  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer metrics reported as <name>.calls and <name>.self_s (per traced op)
SPAN_METRICS = (
    "quivers.preceq",
    "tsystem.check_theorem_hypotheses",
    "tsystem.extended_tsystem",
    "tsystem.predicted_tfd",
    "snakes.is_snake",
    "snakes.qr_sequences",
    "realize.relation_monomials",
    "lusztig.rho",
    "lusztig.rho_step",
    "reineke.omega",
    "reineke.epsilon_mincut",
    "reineke.epsilon_bruteforce",
    "tsystem.tfd_via_epsilon",
    "snakes.translate_twisted",
    "roots.inversion_sequence",
    "quivers.phi_map",
    "cli.main",
)
HIT_RATIOS = ("lusztig.carrier_vertices", "reineke.omega", "quivers.phi_map", "quivers.gamma_vertices")
# size buckets of every workload, named by their upper bound
BUCKETS = ("p10", "p20", "p40", "n6", "n7", "n8", "n12", "n15", "n24", "n31", "n63", "n95")


# The machine's speed is calibrated with a fixed reference loop, run between
# ops about every REFERENCE_EVERY_S seconds.  On a shared host the speed of
# memory-bound Python code drifts by 10-30% for tens of seconds at a time,
# more than a run can average out; the end-to-end latencies are therefore
# reported scaled to a machine on which the loop's best time is REFERENCE_S
# (about its best time on the 2-vCPU VM the benchmark was tuned on), that is,
# multiplied by REFERENCE_S / (the loop's best time in this run).
REFERENCE_S = 0.014
REFERENCE_EVERY_S = 0.5


def reference_loop() -> int:
    """Fixed pure-Python work, independent of snaketsys: a breadth-first
    search over a 150 x 150 grid with tuple keys, the kind of dict, set and
    tuple traffic the library's ops make."""
    n = 150
    seen = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        i, k = queue.popleft()
        d = seen[i, k]
        for v in ((i + 1, k), (i, k + 1), (i - 1, k + 1)):
            if 0 <= v[0] < n and v[1] < n and v not in seen:
                seen[v] = d + 1
                queue.append(v)
    return len(seen)


class Rounds:
    """The block of inputs, round after round: the same items again, or for a
    ``fresh`` workload a new block of the same sizes, made between rounds."""

    def __init__(self, wl, rng):
        self.wl, self.rng = wl, rng
        self.items = wl.generate(rng)
        self.count = 0

    def next(self) -> list:
        if self.count and self.wl.fresh:
            self.wl.between_rounds()
            self.items = self.wl.generate(self.rng)
        self.count += 1
        return self.items


class Tally:
    """Latencies and verdicts of the ops of one or more rounds.

    ``best`` keeps each block position's fastest latency over the rounds;
    ``reference`` the times of the reference loop, when it is run.
    """

    def __init__(self, calibrate=False):
        self.lat, self.best, self.buckets = [], {}, defaultdict(list)
        self.verdicts = Counter()
        self.first_failure = None
        self.rounds = 0
        self.calibrate = calibrate
        self.reference: list[float] = []
        self._next_reference = 0.0

    def scale(self) -> float:
        return REFERENCE_S / min(self.reference)


def run_round(wl, items, tally, deadline=None, tracer=None) -> None:
    """Closed loop over one round's items, until they or the time run out."""
    tally.rounds += 1
    for pos, item in enumerate(items):
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            return
        if tally.calibrate and now >= tally._next_reference:
            t0 = time.perf_counter()
            reference_loop()
            tally.reference.append(time.perf_counter() - t0)
            tally._next_reference = time.monotonic() + REFERENCE_EVERY_S
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
            error = None
        except Exception as exc:  # a failed op is tallied, never fatal
            error = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        tally.lat.append(dt)
        tally.best[pos] = min(dt, tally.best.get(pos, dt))
        tally.buckets[item.bucket].append(dt)
        if error is not None:
            verdict = "unreachable" if wl.unreachable(item, error) else "fail"
        else:
            try:
                verdict = wl.check(item, out)
            except Exception as exc:  # a check that cannot read the output fails it
                verdict, error = "fail", exc
        tally.verdicts[verdict] += 1
        if verdict == "fail" and tally.first_failure is None:
            where = f"round {tally.rounds}, position {pos} ({item.bucket})"
            tally.first_failure = f"{where}: {error!r}" if error else f"{where}: wrong output"


def _ms(values, q):
    return 1000 * (statistics.median(values) if q == 50 else statistics.quantiles(values, n=10)[8])


def _latency_metrics(best: list[float]) -> dict:
    return {
        "ops_per_s": (len(best) / sum(best), "ops/s"),
        "op_ms_p50": (_ms(best, 50), "ms"),
        "op_ms_p90": (_ms(best, 90), "ms"),
    }


def _cache_infos() -> dict:
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "snaketsys" or key.startswith("snaketsys."):
            for attr, val in sorted(vars(mod).items()):
                if hasattr(val, "cache_info") and getattr(val, "__module__", None) == key:
                    out[f"{key}.{attr}"] = val.cache_info()._asdict()
    return out


def _traced_run(wl, rounds, seconds):
    """Alternate untraced and traced rounds, so that both see the same inputs
    (or, for fresh rounds, the same sizes) and the same machine conditions;
    whole rounds, at least one of each."""
    tr = tracing.Tracer()
    plain, traced = Tally(), Tally()
    deadline = time.monotonic() + seconds
    while not traced.rounds or time.monotonic() < deadline:
        on = traced.rounds < plain.rounds
        items = rounds.next()
        if on:
            tr.install()
        try:
            run_round(wl, items, traced if on else plain, tracer=tr if on else None)
        finally:
            if on:
                tr.uninstall()
    return plain, traced, tr


def _layer_metrics(tr, plain: Tally, traced: Tally) -> dict:
    nops = len(traced.lat)
    totals = tr.totals()
    metrics = {}
    for name in SPAN_METRICS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / nops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / nops, "s/op")
    for name in HIT_RATIOS:
        metrics[f"{name}.hit_ratio"] = (tr.hit_ratio(name), "ratio")
    metrics["quivers.render.self_s"] = (totals.get("quivers.render", (0, 0.0))[1] / nops, "s/op")
    metrics["reineke.omega_size.mean"] = (statistics.fmean(tr.omega_sizes) if tr.omega_sizes else 0.0, "vertices")
    bridge_calls = totals.get("tsystem.tfd_via_epsilon", (0, 0.0))[0]
    metrics["tsystem.bridge.unreachable_ratio"] = (traced.verdicts["unreachable"] / bridge_calls if bridge_calls else 0.0, "ratio")
    for b in BUCKETS:
        values = plain.buckets.get(b)
        metrics[f"size.{b}.op_ms_p50"] = (_ms(values, 50) if values else 0.0, "ms")
    rate = lambda t: len(t.lat) / sum(t.lat)  # noqa: E731
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t = time.monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import snaketsys  # noqa: F401
    import snaketsys.cli  # noqa: F401
    import_s = time.monotonic() - t

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    t = time.monotonic()
    wl.warm()
    setup = {"start": T0, "import_s": import_s, "warm_s": time.monotonic() - t}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    rounds = Rounds(wl, random.Random(args.seed))
    if not args.trace:
        run = Tally(calibrate=True)
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline:
            run_round(wl, rounds.next(), run, deadline)
        unscaled = _latency_metrics(list(run.best.values()))
        metrics = _latency_metrics([run.scale() * b for b in run.best.values()])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        runs, spans = [run], []
    else:
        plain, traced, tr = _traced_run(wl, rounds, args.seconds)
        metrics, unscaled = _layer_metrics(tr, plain, traced), {}
        runs, spans = [plain, traced], tr.span_table()

    verdicts = sum((r.verdicts for r in runs), Counter())
    attempted = sum(verdicts.values())
    failures = [r.first_failure for r in runs if r.first_failure]
    print(json.dumps({
        "setup": setup,
        "attempted": attempted,
        "failed": verdicts["fail"],
        "unreachable": verdicts["unreachable"],
        "failed_ratio": verdicts["fail"] / attempted,
        "first_failure": failures[0] if failures else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "context": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "seconds": args.seconds,
            "block": wl.block,
            "fresh": wl.fresh,
            "rounds": [r.rounds for r in runs],
            "reference_s": {"best": min(runs[0].reference), "median": statistics.median(runs[0].reference),
                            "samples": len(runs[0].reference)} if runs[0].reference else None,
            "mix": wl.mix,
            "ops_per_bucket": dict(sum((Counter({b: len(v) for b, v in r.buckets.items()}) for r in runs), Counter())),
            "cache_info": _cache_infos(),
        },
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
