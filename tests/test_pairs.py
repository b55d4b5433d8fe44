"""The pure statistics of tools/pairs.py on canned run.py result lines; the tool itself never runs here."""
import json
import os
import runpy
import time

import pytest

PAIRS = runpy.run_path(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "pairs.py"))
BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}
BOUNDS = {"ops_per_s": 0.25, "peak_rss_mb": 0.15, "setup_s": 0.25}


def _line(ops, rss, attempted, failed=0, correct=True, setup=0.1):
    """One run.py result line, with a log line before it as run.py may print."""
    metrics = {"ops_per_s": {"value": ops, "unit": "ops/s"}, "peak_rss_mb": {"value": rss, "unit": "MiB"},
               "setup_s": {"value": setup, "unit": "s"}}
    return "first failure: none\n" + json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                                                 "metrics": metrics}) + "\n"


def _runs(base, change):
    """Runs of pairs k = 0, 1, ... from (ops, rss, attempted[, failed, correct]) rows, the first tree alternating."""
    runs = []
    for pair, (order, b, c) in enumerate(zip(PAIRS["orders"](len(base)), base, change)):
        rows = {"base": b, "change": c}
        for position, tree in enumerate(order):
            runs.append({"pair": pair, "seed": 100 + pair, "tree": tree, "order": position,
                         **PAIRS["parse_result"](_line(*rows[tree]))})
    return runs


def test_orders_alternate_which_tree_runs_first():
    assert PAIRS["orders"](4) == [("base", "change"), ("change", "base")] * 2
    firsts = [order[0] for order in PAIRS["orders"](15)]
    assert firsts.count("base") == 8 and firsts.count("change") == 7


def test_parse_result_reads_the_last_line():
    got = PAIRS["parse_result"](_line(50_000.0, 60.5, 812_546))
    assert got == {"correct": True, "attempted": 812_546, "failed": 0,
                   "metrics": {"ops_per_s": 50_000.0, "peak_rss_mb": 60.5, "setup_s": 0.1}}


@pytest.mark.parametrize("xs, want", [
    ([3.0], (3.0, 3.0)),
    ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 4.0)),
    ([4.0, 1.0, 3.0, 2.0], (1.75, 3.25)),
])
def test_quartiles_inclusive(xs, want):
    assert PAIRS["quartiles"](xs) == want


def test_wins_follow_the_direction_and_ties_count_for_neither():
    base, change = [10.0, 10.0, 10.0, 10.0], [11.0, 9.0, 10.0, 12.0]
    assert PAIRS["wins"](base, change, "higher") == 2
    assert PAIRS["wins"](base, change, "lower") == 1


def test_summary_of_a_clear_gain_with_rss_inside_its_bound():
    base = [(49_000 + 100 * k, 58.0 + k % 3, 800_000) for k in range(10)]
    change = [(58_000 + 100 * k, 63.0 + k % 3, 950_000) for k in range(10)]
    change[3] = (48_000, 63.0, 950_000)  # one pair lost: 9 of 10 still clears
    got = PAIRS["summarize"](_runs(base, change), BETTER, BOUNDS)
    ops, rss = got["metrics"]["ops_per_s"], got["metrics"]["peak_rss_mb"]
    assert (ops["wins"], ops["pairs"], ops["clear"], ops["within_bound"]) == (9, 10, True, True)
    assert ops["base_median"] == 49_450 and ops["change_median"] == 58_450
    assert (ops["base_q1"], ops["base_q3"]) == (49_225, 49_675)
    assert ops["relative"] == pytest.approx(9_000 / 49_450)
    assert (rss["wins"], rss["clear"], rss["within_bound"]) == (0, False, True)
    assert rss["relative"] == pytest.approx(5 / 59)
    assert got["attempted_median"] == {"base": 800_000, "change": 950_000}
    assert got["failed"] == {"base": 0, "change": 0} and got["comparable"]
    assert set(got["metrics"]) == set(BETTER)


def test_summary_of_a_win_inside_the_spread_and_a_breached_bound():
    # every pair won, but by less than the base's quartile distance; RSS 20% up
    base = [(40_000 + 2_000 * (k % 4), 50.0, 10) for k in range(8)]
    change = [(b + 100, 60.0, 10) for b, _, _ in base]
    got = PAIRS["summarize"](_runs(base, change), BETTER, BOUNDS)["metrics"]
    ops, rss = got["ops_per_s"], got["peak_rss_mb"]
    assert (ops["wins"], ops["clear"], ops["within_bound"]) == (8, False, True)
    assert (rss["wins"], rss["clear"], rss["within_bound"]) == (0, False, False)


@pytest.mark.parametrize("broken, failed", [
    ((58_000, 63.0, 950_000, 3), {"base": 2, "change": 3}),  # one more failed op than the base
    ((58_000, 63.0, 950_000, 0, False), {"base": 2, "change": 0}),  # a change run not correct
])
def test_a_gain_is_not_clear_when_the_change_fails_more(broken, failed):
    base = [(49_000 + 100 * k, 58.0, 800_000) for k in range(10)]
    base[5] = (49_500, 58.0, 800_000, 2)
    change = [(58_000 + 100 * k, 63.0, 950_000) for k in range(10)]
    got = PAIRS["summarize"](_runs(base, change), BETTER, BOUNDS)
    assert got["comparable"] and got["metrics"]["ops_per_s"]["clear"]
    change[7] = broken
    got = PAIRS["summarize"](_runs(base, change), BETTER, BOUNDS)
    ops = got["metrics"]["ops_per_s"]
    assert got["failed"] == failed and not got["comparable"]
    assert (ops["wins"], ops["clear"], ops["within_bound"]) == (10, False, True)


def test_summary_leaves_out_a_pair_with_one_run_and_unknown_metrics():
    runs = _runs([(10.0, 5.0, 1)] * 3, [(12.0, 5.0, 1)] * 3)
    got = PAIRS["summarize"](runs[:-1], {"ops_per_s": "higher", "absent": "lower"}, BOUNDS)
    assert list(got["metrics"]) == ["ops_per_s"] and got["metrics"]["ops_per_s"]["pairs"] == 2


def test_seeds_and_setup_figures():
    assert PAIRS["parse_seeds"]("9001-9003,9021-9024") == [9001, 9002, 9003, 9021, 9022, 9023, 9024]
    assert PAIRS["parse_seeds"]("7") == [7]
    assert PAIRS["setup_figures"]({"base": [0.3, 0.1, 0.2]}) == {"base": {"starts": 3, "median": 0.2, "min": 0.1}}


def test_headline_table_has_one_row_per_metric_and_the_attempted_ops():
    runs = _runs([(10.0, 5.0, 100)] * 2, [(12.0, 5.0, 120)] * 2)
    bench = {"base": {"commit": "a" * 40}, "change": {"head": "b" * 40, "code_diff_sha256": "c" * 64},
             "python": "3.11.7", "seconds": 25,
             "seeds": [1, 2], "load_before": (1.0, 1.0, 1.0), "load_after": (2.0, 1.0, 1.0),
             "workloads": {"epsilon": {"summary": PAIRS["summarize"](runs, BETTER, BOUNDS),
                                       "setup": PAIRS["setup_figures"]({"base": [0.1] * 15, "change": [0.1] * 15})}}}
    rows = PAIRS["table"](bench).splitlines()
    assert rows[0].startswith(f"Pairs: base {'a' * 12} against the working tree on {'b' * 12} "
                              f"with code diff sha256 {'c' * 12},")
    assert "| epsilon | ops_per_s | 10 | 10-10 | 12 | +20.0% | 2/2 | yes | yes |" in rows
    assert "| epsilon | attempted | 100 | | 120 | | | | |" in rows
    assert "| epsilon | failed ops (total) | 0 | | 0 | | | | |" in rows
    assert "| epsilon | peak_rss_mb fit: slope, change offset at equal attempted | - | | +0 MiB | +0.0% | | | |" in rows
    assert sum(row.startswith("| epsilon |") for row in rows) == len(BETTER) + 4


def test_statistics_run_in_a_fraction_of_a_second():
    t = time.perf_counter()
    runs = _runs([(49_000.0 + k, 58.0, 800_000) for k in range(10)], [(58_000.0 + k, 63.0, 900_000) for k in range(10)])
    PAIRS["summarize"](runs, BETTER, BOUNDS)
    assert time.perf_counter() - t < 0.2


LINECOUNT_OUT = """src/snaketsys/__init__.py: 57 lines, 47 code lines
src/snaketsys/snakes.py: 340 lines, 180 code lines
src/ lines: 397, code lines: 227
"""
BUDGETS_OUT = """Budgets (tests/test_budgets.py, Python 3.11.7)

| budget | measured | ceiling |
|---|---:|---:|
| calls relation p=5 n=8 | 17 | 69 |
| code lines snakes.py | 180 | 180 |
| held rho plans n=7-95 | 579,644 | 608,626 |
"""


def test_tree_figures_parse_both_tools_and_print_beside_the_pairs():
    t = time.perf_counter()
    lines = PAIRS["parse_linecount"](LINECOUNT_OUT)
    assert lines == {"modules": {"__init__.py": 47, "snakes.py": 180}, "lines": 397, "code_lines": 227}
    budgets = PAIRS["parse_budgets"](BUDGETS_OUT)
    assert budgets == {"calls relation p=5 n=8": {"measured": 17, "ceiling": 69},
                       "code lines snakes.py": {"measured": 180, "ceiling": 180},
                       "held rho plans n=7-95": {"measured": 579_644, "ceiling": 608_626}}
    for parse, text in ((PAIRS["parse_linecount"], BUDGETS_OUT), (PAIRS["parse_budgets"], LINECOUNT_OUT)):
        with pytest.raises(ValueError):
            parse(text)
    base = {"linecount": {**lines, "code_lines": 230}, "budgets": {**budgets, "calls old": {"measured": 3, "ceiling": 3}}}
    rows = PAIRS["figures_table"]({"base": base, "change": {"linecount": lines, "budgets": budgets}}).splitlines()
    assert rows[2] == "| code lines of src/ (tools/linecount.py) | 230 | 227 |"
    assert "| calls old (measured / ceiling) | 3 / 3 | - |" in rows
    assert "| held rho plans n=7-95 (measured / ceiling) | 579,644 / 608,626 | 579,644 / 608,626 |" in rows
    assert len(rows) == 3 + 4
    runs = _runs([(10.0, 5.0, 100)] * 2, [(12.0, 5.0, 120)] * 2)
    bench = {"base": {"commit": "a" * 40}, "change": {"head": "b" * 40, "code_diff_sha256": None},
             "python": "3.11.7", "seconds": 25, "seeds": [1, 2], "load_before": (1.0, 1.0, 1.0),
             "load_after": (2.0, 1.0, 1.0),
             "workloads": {"epsilon": {"summary": PAIRS["summarize"](runs, BETTER, BOUNDS),
                                       "setup": PAIRS["setup_figures"]({"base": [0.1] * 15, "change": [0.1] * 15})}}}
    assert "code lines of src/" not in PAIRS["table"](bench)  # a file written before the figures were recorded
    bench["figures"] = {"base": base, "change": {"linecount": lines, "budgets": budgets}}
    assert PAIRS["table"](bench).endswith("\n".join(rows))
    assert time.perf_counter() - t < 0.2


def test_rss_fit_splits_an_rss_move_into_slope_and_offset():
    # RSS = 30 MiB + 4 MiB per 100k attempted ops, and the change 1.5 MiB above at equal attempted ops; the
    # change attempts more, so its median reads far more than the 1.5 MiB that the library holds
    t = time.perf_counter()
    base = [(49_000.0, 30 + 4e-5 * a, a) for a in (800_000, 820_000, 790_000, 810_000)]
    change = [(58_000.0, 31.5 + 4e-5 * a, a) for a in (950_000, 940_000, 960_000, 930_000)]
    summary = PAIRS["summarize"](_runs(base, change), BETTER, BOUNDS)
    fit = summary["rss_fit"]
    assert fit["slope_mib_per_100k"] == pytest.approx(4.0) and fit["change_offset_mib"] == pytest.approx(1.5)
    assert fit["change_offset_relative"] == pytest.approx(1.5 / (30 + 4e-5 * 805_000)) and fit["runs"] == 8
    assert summary["metrics"]["peak_rss_mb"]["change_median"] - summary["metrics"]["peak_rss_mb"]["base_median"] > 7
    # noise that is symmetric within each tree leaves the fit where it was
    noisy = [(ops, rss + e, a) for (ops, rss, a), e in zip(base, (0.25, -0.25, -0.25, 0.25))]
    fit = PAIRS["rss_fit"](_runs(noisy, change))
    assert fit["slope_mib_per_100k"] == pytest.approx(4.0) and fit["change_offset_mib"] == pytest.approx(1.5)
    # no spread in attempted ops: no slope, and the offset is the difference of the means
    flat = PAIRS["rss_fit"](_runs([(1.0, 30.0, 100)] * 2, [(1.0, 33.0, 100)] * 2))
    assert flat["slope_mib_per_100k"] is None and flat["change_offset_mib"] == pytest.approx(3.0)
    assert PAIRS["rss_fit"]([]) is None
    rows = PAIRS["table"]({"base": {"commit": "a" * 40}, "change": {"head": "b" * 40, "code_diff_sha256": None},
                           "python": "3.11.7", "seconds": 25, "seeds": [1, 2, 3, 4], "load_before": (1.0, 1.0, 1.0),
                           "load_after": (1.0, 1.0, 1.0),
                           "workloads": {"epsilon": {"summary": summary, "setup": PAIRS["setup_figures"](
                               {"base": [0.1] * 15, "change": [0.1] * 15})}}}).splitlines()
    assert ("| epsilon | peak_rss_mb fit: slope, change offset at equal attempted | 4 MiB per 100k ops | "
            "| +1.5 MiB | +2.4% | | | |") in rows
    assert time.perf_counter() - t < 0.2


def test_headline_table_fits_rss_from_the_runs_of_an_older_file():
    # a file written before the fit was recorded: the table fits it from the runs that the file keeps
    runs = _runs([(10.0, 30.0 + 4e-5 * a, a) for a in (100_000, 200_000)],
                 [(12.0, 31.0 + 4e-5 * a, a) for a in (300_000, 400_000)])
    summary = PAIRS["summarize"](runs, BETTER, BOUNDS)
    del summary["rss_fit"]
    bench = {"base": {"commit": "a" * 40}, "change": {"head": "b" * 40, "code_diff_sha256": None},
             "python": "3.11.7", "seconds": 25, "seeds": [1, 2], "load_before": (1.0, 1.0, 1.0),
             "load_after": (1.0, 1.0, 1.0),
             "workloads": {"epsilon": {"runs": runs, "summary": summary,
                                       "setup": PAIRS["setup_figures"]({"base": [0.1] * 15, "change": [0.1] * 15})}}}
    fit_rows = [row for row in PAIRS["table"](bench).splitlines() if "peak_rss_mb fit" in row]
    assert len(fit_rows) == 1 and "| 4 MiB per 100k ops | | +1 MiB |" in fit_rows[0]
    del bench["workloads"]["epsilon"]["runs"]
    assert "peak_rss_mb fit" not in PAIRS["table"](bench)
