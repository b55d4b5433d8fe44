"""Alternating benchmark pairs of a base revision and the working tree, written to one JSON file.

The base tree is exported with ``git archive`` into a temporary directory
(``.git`` is not touched); the change is the working tree, named by its
commit and the sha256 of ``git diff --binary --full-index HEAD`` over
``src`` and ``benchmarks``, the code run.py runs (recomputed for a commit
C as the same diff from C's parent to C).  For every workload of
``BENCHMARK.json`` and every seed, each tree's own ``benchmarks/run.py``
runs once as a black box for the benchmark's ``run_seconds``, the tree
that runs first alternating from pair to pair, and its JSON result line
(``correct``, ``attempted``, ``failed``, ``metrics``) is kept.  Then each
tree's ``benchmarks/worker.py --setup-only`` starts, alternating, 15 times
per tree, timed as run.py times its own setup samples.  The file
holds, per run, the seed, the pair, the order and every metric beside
``attempted``; per workload, each tree's medians, the base's quartiles and
the pairs the change won for each metric, judged by the direction and the
bound that ``BENCHMARK.json`` gives it; the Python version, the CPU
count and the load average before and after; and each tree's own static
figures: the ``tools/linecount.py`` code lines, per module and in total,
and the measured value and ceiling of every ``tests/test_budgets.py``
budget (run as ``python tests/test_budgets.py`` in the tree, with its
``src`` on ``PYTHONPATH``).

``peak_rss_mb`` grows with the ops a run attempts, since the harness keeps
state per attempted op, so a faster tree reads more RSS for the same
library.  Per workload, a least-squares fit over both trees' runs, of
``peak_rss_mb`` on ``attempted`` with one common slope and an offset for
the change, splits an RSS move in two: the slope (MiB per 100k attempted
ops, the harness's share) and the change's offset at equal attempted ops
(the library's share).

A gain is read as clear when the change wins at least nine tenths of the
pairs (ties count for neither side), the medians differ by more than the
distance between the base's quartiles, and the workload is comparable:
every change run is correct and the change failed no more ops than the base.

Run from the repository root:

    python tools/pairs.py --base HEAD --seeds 9001-9010 --out BENCH_<n>.json
    python tools/pairs.py --summary            # the newest BENCH_*.json as a Markdown table
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_STARTS = 15


# -- statistics: pure functions of the result lines -----------------------


def parse_result(stdout: str) -> dict:
    """The JSON result line of run.py, its last line: ``attempted``, ``failed`` and each metric's value."""
    rep = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in rep["metrics"].items()}
    return {"correct": rep["correct"], "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}


def orders(pairs: int) -> list[tuple[str, str]]:
    """Which tree runs first in each pair: the base in even pairs, the change in odd ones."""
    return [("base", "change") if k % 2 == 0 else ("change", "base") for k in range(pairs)]


def quartiles(xs: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method); a single run is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def wins(base: list[float], change: list[float], better: str) -> int:
    """The pairs the change won, ties counting for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric, over the pairs of runs: medians, the base's quartiles, wins, and the two verdicts.

    ``clear``: the workload is comparable (every change run correct, and no
    more failed ops in the change's runs than in the base's), the change
    won at least 9/10 of the pairs and its median is better by more than
    the base's quartile distance.  ``within_bound``: its median is worse
    than the base's by at most the metric's bound.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    failed = {tree: sum(p[tree]["failed"] for p in pairs) for tree in ("base", "change")}
    comparable = failed["change"] <= failed["base"] and all(p["change"]["correct"] for p in pairs)
    out = {}
    for name, direction in better.items():
        if not pairs or name not in pairs[0]["base"]["metrics"]:
            continue
        b = [p["base"]["metrics"][name] for p in pairs]
        c = [p["change"]["metrics"][name] for p in pairs]
        mb, mc = statistics.median(b), statistics.median(c)
        q1, q3 = quartiles(b)
        won = wins(b, c, direction)
        gain = mc - mb if direction == "higher" else mb - mc
        out[name] = {
            "better": direction, "base_median": mb, "change_median": mc, "base_q1": q1, "base_q3": q3,
            "relative": (mc - mb) / mb if mb else None, "wins": won, "pairs": len(pairs),
            "clear": comparable and 10 * won >= 9 * len(pairs) and gain > q3 - q1,
            "within_bound": -gain <= bounds.get(name, float("inf")) * abs(mb),
        }
    attempted = {tree: statistics.median(p[tree]["attempted"] for p in pairs) for tree in ("base", "change")}
    return {"metrics": out, "attempted_median": attempted, "failed": failed, "comparable": comparable,
            "rss_fit": rss_fit([p[tree] for p in pairs for tree in ("base", "change")])}


def rss_fit(runs: list[dict]) -> dict | None:
    """peak_rss_mb = a + b * attempted + c * [change], fitted by least squares over both trees' runs.

    With one slope b for both trees, b is the pooled slope within each tree
    and c, the change's offset at equal attempted ops, is the difference of
    the trees' means less b times the difference of their mean attempted
    ops (``change_offset_relative`` gives c over the base's mean RSS).
    None if a tree has no run or a run has no ``peak_rss_mb``; the
    slope is None (and c the plain difference of the means) if no tree's
    runs differ in attempted ops.
    """
    groups = {tree: [(r["attempted"], r["metrics"].get("peak_rss_mb")) for r in runs if r["tree"] == tree]
              for tree in ("base", "change")}
    if not all(groups.values()) or any(y is None for g in groups.values() for _, y in g):
        return None
    means = {tree: (statistics.fmean(x for x, _ in g), statistics.fmean(y for _, y in g)) for tree, g in groups.items()}
    sxx = sum((x - means[tree][0]) ** 2 for tree, g in groups.items() for x, _ in g)
    sxy = sum((x - means[tree][0]) * (y - means[tree][1]) for tree, g in groups.items() for x, y in g)
    slope = sxy / sxx if sxx else None
    (xb, yb), (xc, yc) = means["base"], means["change"]
    offset = yc - yb - (slope or 0.0) * (xc - xb)
    return {"slope_mib_per_100k": None if slope is None else slope * 100_000, "change_offset_mib": offset,
            "change_offset_relative": offset / yb if yb else None, "runs": sum(map(len, groups.values()))}


def setup_figures(starts: dict[str, list[float]]) -> dict:
    """Each tree's setup starts: count, median and minimum, in seconds."""
    return {tree: {"starts": len(xs), "median": statistics.median(xs), "min": min(xs)} for tree, xs in starts.items()}


def parse_seeds(text: str) -> list[int]:
    """'9001-9003,9021' -> [9001, 9002, 9003, 9021]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_linecount(stdout: str) -> dict:
    """tools/linecount.py's output: the code lines of each module, and the total lines and code lines of src/."""
    modules, total = {}, None
    for line in stdout.splitlines():
        if m := re.fullmatch(r"src/ lines: (\d+), code lines: (\d+)", line.strip()):
            total = {"lines": int(m[1]), "code_lines": int(m[2])}
        elif m := re.fullmatch(r"(\S+\.py): \d+ lines, (\d+) code lines", line.strip()):
            modules[os.path.basename(m[1])] = int(m[2])
    if total is None:
        raise ValueError("no src/ total in the line count")
    return {"modules": modules, **total}


def parse_budgets(stdout: str) -> dict:
    """tests/test_budgets.py's table: each budget's measured value and ceiling."""
    budgets = {}
    for line in stdout.splitlines():
        if m := re.fullmatch(r"\| (.+?) \| ([\d,]+) \| ([\d,]+) \|", line.strip()):
            budgets[m[1]] = {"measured": int(m[2].replace(",", "")), "ceiling": int(m[3].replace(",", ""))}
    if not budgets:
        raise ValueError("no budget rows in the budget table")
    return budgets


def figures_table(figures: dict) -> str:
    """Both trees' line counts and budgets, as Markdown: one row for the code lines of src/, then one per budget."""
    base, change = figures["base"], figures["change"]
    rows = ["| figure | base | change |", "|---|---:|---:|",
            f"| code lines of src/ (tools/linecount.py) | {base['linecount']['code_lines']:,} "
            f"| {change['linecount']['code_lines']:,} |"]
    for name in sorted(base["budgets"].keys() | change["budgets"].keys()):
        cells = [f"{b['measured']:,} / {b['ceiling']:,}" if (b := tree["budgets"].get(name)) else "-"
                 for tree in (base, change)]
        rows.append(f"| {name} (measured / ceiling) | {cells[0]} | {cells[1]} |")
    return "\n".join(rows)


def _num(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def table(bench: dict) -> str:
    """The headline table of one pairs file, as Markdown: one row per workload and end-to-end metric."""
    change = bench["change"]
    diff = f" with code diff sha256 {change['code_diff_sha256'][:12]}" if change["code_diff_sha256"] else ""
    rows = [f"Pairs: base {bench['base']['commit'][:12]} against the working tree on {change['head'][:12]}{diff}, "
            f"{len(bench['seeds'])} seeds, Python {bench['python']}, "
            f"{bench['seconds']:g} s runs, load average {bench['load_before'][0]:.2f} -> {bench['load_after'][0]:.2f}",
            "", "| workload | metric | base median | base q1-q3 | change median | change | wins | clear | in bound |",
            "|---|---|---:|---:|---:|---:|---:|---|---|"]
    for workload, w in bench["workloads"].items():
        for name, m in w["summary"]["metrics"].items():
            rel = "" if m["relative"] is None else f"{100 * m['relative']:+.1f}%"
            clear, bound = ("yes" if m[k] else "no" for k in ("clear", "within_bound"))
            rows.append(f"| {workload} | {name} | {_num(m['base_median'])} | {_num(m['base_q1'])}-{_num(m['base_q3'])} "
                        f"| {_num(m['change_median'])} | {rel} | {m['wins']}/{m['pairs']} | {clear} | {bound} |")
        att = w["summary"]["attempted_median"]
        rows.append(f"| {workload} | attempted | {att['base']:,.0f} | | {att['change']:,.0f} | | | | |")
        # a file written before the fit was recorded has it fitted here, from its runs
        if fit := w["summary"]["rss_fit"] if "rss_fit" in w["summary"] else rss_fit(w.get("runs", [])):
            slope = "-" if fit["slope_mib_per_100k"] is None else f"{fit['slope_mib_per_100k']:.3g} MiB per 100k ops"
            rel = "" if fit["change_offset_relative"] is None else f"{100 * fit['change_offset_relative']:+.1f}%"
            rows.append(f"| {workload} | peak_rss_mb fit: slope, change offset at equal attempted | {slope} | "
                        f"| {fit['change_offset_mib']:+.3g} MiB | {rel} | | | |")
        failed = w["summary"]["failed"]
        rows.append(f"| {workload} | failed ops (total) | {failed['base']:,} | | {failed['change']:,} | | | | |")
        s = w["setup"]
        rows.append(f"| {workload} | setup starts (median) | {_num(s['base']['median'])} | "
                    f"| {_num(s['change']['median'])} | | {s['base']['starts']}+{s['change']['starts']} starts | | |")
    if "figures" in bench:
        rows += ["", figures_table(bench["figures"])]
    return "\n".join(rows)


# -- running the trees ----------------------------------------------------


def export(rev: str, dest: str) -> str:
    """The tree of rev, extracted under dest by ``git archive``; its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run of the tree, read from its result line."""
    proc = subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def setup_start(tree: str, workload: str, seed: int) -> float:
    """One ``worker.py --setup-only`` start, timed as run.py times its setup samples."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join("benchmarks", "worker.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-only"], cwd=tree, capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    setup = json.loads(proc.stdout.strip().splitlines()[-1])["setup"]
    return setup["start"] - spawned + setup["import_s"] + setup["warm_s"]


def tree_figures(tree: str) -> dict:
    """The tree's own line count and budget table, each run in the tree with its src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = {}
    for name, script, parse in (("linecount", "tools/linecount.py", parse_linecount),
                                ("budgets", "tests/test_budgets.py", parse_budgets)):
        proc = subprocess.run([sys.executable, script], cwd=tree, env=env, capture_output=True, text=True, check=True)
        out[name] = parse(proc.stdout)
    return out


def measure(trees: dict[str, str], workload: str, seeds: list[int], spec: dict) -> dict:
    runs = []
    for pair, (seed, order) in enumerate(zip(seeds, orders(len(seeds)))):
        for position, tree in enumerate(order):
            result = run_once(trees[tree], workload, seed, spec["run_seconds"])
            runs.append({"pair": pair, "seed": seed, "tree": tree, "order": position, **result})
            print(f"{workload} seed {seed} {tree}: {result['metrics'].get('ops_per_s', 0):,.0f} ops/s, "
                  f"{result['attempted']:,} attempted", file=sys.stderr)
    setup = {"base": [], "change": []}
    for order in orders(SETUP_STARTS):
        for tree in order:
            setup[tree].append(setup_start(trees[tree], workload, seeds[0]))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return {"runs": runs, "setup_starts": setup, "setup": setup_figures(setup),
            "summary": summarize(runs, better, bounds)}


def working_tree() -> dict:
    """The working tree's commit, and the sha256 of its uncommitted diff over src and benchmarks (None if clean)."""
    git = dict(cwd=ROOT, capture_output=True, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], text=True, **git).stdout.strip()
    diff = subprocess.run(["git", "diff", "--binary", "--full-index", "HEAD", "--", "src", "benchmarks"], **git).stdout
    return {"head": head, "code_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def newest() -> str:
    """The pairs file with the highest number at the repository root."""
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    if not paths:
        raise SystemExit(f"no BENCH_*.json at {ROOT}")
    return max(paths, key=lambda p: int(re.sub(r"\D", "", os.path.basename(p)) or 0))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--summary", action="store_true", help="print the newest BENCH_*.json's headline table and exit")
    ap.add_argument("--base", default="HEAD", help="the base revision (default HEAD)")
    ap.add_argument("--seeds", default="1-10", help="one pair per seed, as '9001-9003,9021' (default 1-10)")
    ap.add_argument("--out", help="the JSON file to write")
    args = ap.parse_args()
    if args.summary:
        with open(newest(), encoding="utf-8") as f:
            print(table(json.load(f)))
        return 0
    if not args.out:
        ap.error("--out is required unless --summary is given")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    bench = {"python": sys.version.split()[0], "cpu_count": os.cpu_count(), "load_before": os.getloadavg(),
             "seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as base_tree:
        bench["base"] = {"rev": args.base, "commit": export(args.base, base_tree)}
        bench["change"] = working_tree()
        trees = {"base": base_tree, "change": ROOT}
        bench["figures"] = {tree: tree_figures(path) for tree, path in trees.items()}
        for workload in (w["name"] for w in spec["workloads"]):
            bench["workloads"][workload] = measure(trees, workload, seeds, spec)
    bench["load_after"] = os.getloadavg()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    print(table(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
