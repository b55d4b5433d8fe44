import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snaketsys import snakes, verify
from snaketsys.cli import build_parser, main
from snaketsys.quivers import HeightFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    """A JSON file of obj, or obj itself when it is bytes."""
    p = tmp_path / name
    if isinstance(obj, bytes):
        p.write_bytes(obj)
    else:
        p.write_text(json.dumps(obj))
    return str(p)


NOT_UTF8 = b"\xff\xfe{"  # a UTF-16 byte-order mark: the file does not decode as UTF-8


SNAKE_UNTW = {
    "flavor": "untwisted",
    "xi": [2, 4, 6],
    "points": [{"i": 2, "k2": 0}, {"i": 2, "k2": 4}, {"i": 1, "k2": 10}],
}
SNAKE_TW = {
    "flavor": "twisted",
    "xi": [2, 3, 4],
    "n0": 2,
    "points": [{"i": 3, "k2": 4}, {"i": 2, "k2": 9}, {"i": 2, "k2": 11}],
}


def test_quiver_text(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "1")
    assert code == 0 and "a1" in out


def test_quiver_dot_window(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "2", "--window", "0:8", "--format", "dot")
    assert code == 0
    assert '"1:0" -> "2:2"' in out


def test_quiver_config_error(capsys):
    code, _, err = run(capsys, "quiver", "--xi", "2,5,6")
    assert code == 2 and "config error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("quiver", "--flavor", "twisted"), "twisted height functions need --n0"),
        (("quiver",), "--n (or --xi) is required"),
        (("quiver", "--n", "3", "--window", "5"), "bad --window: not enough values to unpack (expected 2, got 1)"),
        (("translate", "SNAKE_UNTW"), "translate expects a twisted snake"),
    ],
    ids=["twisted-without-n0", "no-rank", "window-without-colon", "translate-untwisted"],
)
def test_config_errors_exit_two_with_their_message(capsys, tmp_path, argv, message):
    # each config error is one line on stderr, with no traceback and no output
    argv = [write(tmp_path, "s.json", SNAKE_UNTW) if a == "SNAKE_UNTW" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "3", "--xi", "4,2,4,6,8"),
        ("--n", "4", "--flavor", "twisted", "--n0", "2"),
        ("--n", "5", "--flavor", "twisted", "--n0", "2", "--xi=2,3,4"),
        ("--n0", "2", "--xi", "2,4,6"),
        ("--n", "3", "--n0", "2"),
    ],
    ids=["n-vs-xi", "n-vs-twisted-n0", "n-vs-twisted-xi", "n0-on-untwisted-xi", "n0-on-untwisted-n"],
)
def test_quiver_rejects_options_it_would_ignore(capsys, argv):
    # an --n that is not the rank of the height function, or an --n0 on an
    # untwisted one, was once dropped silently; now it is a config error
    code, out, err = run(capsys, "quiver", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "Traceback" not in err


def test_quiver_n_that_agrees_is_accepted(capsys):
    assert run(capsys, "quiver", "--n", "5", "--xi", "4,2,4,6,8") == run(capsys, "quiver", "--xi", "4,2,4,6,8")
    twisted = ("quiver", "--flavor", "twisted", "--n0", "2", "--format", "dot")
    assert run(capsys, *twisted, "--n", "3") == run(capsys, *twisted)


def test_quiver_xi_starting_negative_needs_equals(capsys):
    # argparse reads a separate "-2,-3,0" as an option: the = form is the way in
    code, out, _ = run(capsys, "quiver", "--flavor", "twisted", "--n0", "2", "--xi=-2,-3,0")
    assert code == 0 and "a1,3" in out
    assert main(["quiver", "--flavor", "twisted", "--n0", "2", "--xi", "-2,-3,0"]) == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err


def test_help_and_usage_errors_return_their_codes(capsys):
    # argparse's exit is turned into main's return value; nothing escapes
    code, out, _ = run(capsys, "rho", "--help")
    assert code == 0 and "usage:" in out
    code, _, err = run(capsys, "no-such-command")
    assert code == 2 and "invalid choice" in err


def test_tsystem_golden_json(capsys, tmp_path):
    path = write(tmp_path, "s.json", SNAKE_UNTW)
    code, out, _ = run(capsys, "tsystem", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["Q"] == [{"i": 1, "k2": 2}]
    assert obj["R"] == [{"i": 3, "k2": 2}, {"i": 3, "k2": 6}]
    assert obj["D"] == [{"i": 2, "k2": 4}]
    assert obj["hypotheses_ok"] is True


def test_tsystem_twisted_golden(capsys, tmp_path):
    path = write(tmp_path, "s.json", SNAKE_TW)
    code, out, _ = run(capsys, "tsystem", path, "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["Q"] == [{"i": 2, "k2": 5}, {"i": 1, "k2": 10}]
    assert obj["R"] == []


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("flavor", ["untwisted", "twisted"])
@pytest.mark.parametrize(
    "argv, suffix", [(("--format", "json", "--realization", "qdatum"), "qdatum.json"), (("--format", "text"), "text.txt")]
)
def test_tsystem_p40_golden(capsys, flavor, argv, suffix):
    # one prime snake of length 40 (n = 4, n0 = 2); the expected stdout was
    # written by the O(p^2) relation path that the O(p) one replaced
    stem = f"tsystem_p40_{flavor}"
    code, out, err = run(capsys, "tsystem", str(GOLDEN / f"{stem}.snake.json"), *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{stem}.{suffix}").read_text()


# -- the command table: each subcommand takes only the options it reads -------

OPTIONS = {
    "quiver": ["--flavor", "--format", "--labels", "--n", "--n0", "--window", "--xi"],
    "snake-check": ["--format", "input"],
    "qr": ["--format", "input"],
    "tsystem": ["--format", "--realization", "input"],
    "reineke": ["--format", "--j", "--n", "input"],
    "rho": ["--format", "--n", "input"],
    "translate": ["--format", "input"],
    "verify": ["--format", "--seed", "--suite", "--trials"],
}
# the six options every subcommand once took, 48 in all; 15 are left
ONCE_SHARED = {"--n", "--flavor", "--xi", "--n0", "--format", "--seed"}


def _subcommand_options() -> dict:
    """Each subcommand's option strings (without -h/--help) and positionals, walked off build_parser()."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: sorted(s for a in p._actions for s in (a.option_strings or [a.dest]) if s not in ("-h", "--help"))
        for name, p in subparsers.choices.items()
    }


def test_each_subcommand_takes_only_the_options_it_reads():
    found = _subcommand_options()
    assert found == OPTIONS
    assert sum(len(ONCE_SHARED.intersection(opts)) for opts in found.values()) == 15


@pytest.mark.parametrize(
    "argv",
    [("tsystem", "--seed", "1"), ("rho", "--xi", "2,4"), ("verify", "--n", "3"), ("snake-check", "--flavor", "twisted")],
    ids=["tsystem-seed", "rho-xi", "verify-n", "snake-check-flavor"],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err and "Traceback" not in err


# every format the shared flag once accepted, minus the ones the command writes
UNSUPPORTED_FORMATS = [
    ("quiver", "json"), ("quiver", "latex"),
    ("snake-check", "latex"), ("snake-check", "dot"),
    ("qr", "latex"), ("qr", "dot"),
    ("tsystem", "dot"),
    ("reineke", "latex"), ("reineke", "dot"),
    ("rho", "text"), ("rho", "latex"), ("rho", "dot"),
    ("translate", "text"), ("translate", "latex"), ("translate", "dot"),
    ("verify", "json"), ("verify", "latex"), ("verify", "dot"),
]


@pytest.mark.parametrize("command, fmt", UNSUPPORTED_FORMATS)
def test_unsupported_format_is_a_usage_error(capsys, command, fmt):
    extra = ["--j", "1"] if command == "reineke" else []
    code, out, err = run(capsys, command, "--format", fmt, *extra)
    assert code == 2 and out == ""
    assert f"invalid choice: '{fmt}'" in err and "Traceback" not in err


def test_tsystem_with_qdatum(capsys, tmp_path):
    path = write(tmp_path, "s.json", SNAKE_UNTW)
    code, out, _ = run(capsys, "tsystem", path, "--realization", "qdatum")
    assert code == 0 and "Y_{2,0}" in out


def test_tsystem_nonprime_exit3(capsys, tmp_path):
    bad = dict(SNAKE_UNTW, points=[{"i": 2, "k2": 0}, {"i": 2, "k2": 12}])
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, "tsystem", path)
    assert code == 3 and "prime segments" in err


def test_tsystem_parse_error_exit4(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("this is not json")
    code, _, err = run(capsys, "tsystem", str(p))
    assert code == 4


def test_snake_check(capsys, tmp_path):
    path = write(tmp_path, "s.json", SNAKE_UNTW)
    code, out, _ = run(capsys, "snake-check", path, "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["snake"] and obj["prime"]
    assert len(obj["splits"]) == 1


def test_qr_command(capsys, tmp_path):
    path = write(tmp_path, "s.json", SNAKE_TW)
    code, out, _ = run(capsys, "qr", path, "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["Q"] == [{"i": 2, "k2": 5}, {"i": 1, "k2": 10}]


def test_rho_n95_output_is_pinned(capsys, tmp_path):
    # a seeded dense datum on the whole big_theta window of rank 95; the
    # sha256 of stdout was written down before the slot-indexed rho kernel
    rng = random.Random(95)
    verts = sorted(HeightFunction.big_theta(48).gamma_vertices())
    entries = [{"i": v.i, "k2": v.k2, "c": rng.randint(0, 9)} for v in verts]
    path = write(tmp_path, "d.json", {"carrier": "gamma-THETA", "entries": entries})
    code, out, err = run(capsys, "rho", "--n", "95", path)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "d99f6e8ff024d1036638c81b9f26d21f8bd95c382fa687ada17a1f1b43920032"


def test_rho_golden(capsys, tmp_path):
    datum = {
        "carrier": "gamma-THETA",
        "entries": [
            {"i": 5, "k2": 8, "c": 1},
            {"i": 5, "k2": 12, "c": 1},
            {"i": 4, "k2": 17, "c": 1},
            {"i": 4, "k2": 19, "c": 1},
        ],
    }
    path = write(tmp_path, "d.json", datum)
    code, out, _ = run(capsys, "rho", "--n", "7", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["carrier"] == "gamma-theta"
    assert obj["entries"] == [
        {"i": 5, "k2": 6, "c": 1},
        {"i": 5, "k2": 10, "c": 1},
        {"i": 5, "k2": 14, "c": 1},
        {"i": 4, "k2": 20, "c": 1},
    ]


def test_translate_golden(capsys, tmp_path):
    snake = {
        "flavor": "twisted",
        "xi": [2, 4, 6, 7, 8, 10, 12],
        "n0": 4,
        "points": [{"i": 5, "k2": 8}, {"i": 5, "k2": 12}, {"i": 4, "k2": 17}, {"i": 4, "k2": 19}],
    }
    path = write(tmp_path, "s.json", snake)
    code, out, _ = run(capsys, "translate", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["flavor"] == "untwisted"
    assert obj["points"] == [
        {"i": 5, "k2": 6}, {"i": 5, "k2": 10}, {"i": 5, "k2": 14}, {"i": 4, "k2": 20}
    ]


def test_reineke_command(capsys, tmp_path):
    datum = {"carrier": "gamma-delta:0", "entries": [{"i": 2, "k2": 2, "c": 1}]}
    path = write(tmp_path, "d.json", datum)
    code, out, _ = run(capsys, "reineke", "--n", "5", "--j", "2", path, "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj == {"j": 2, "epsilon": 1, "epsilon_star": 0}


GOOD_DELTA = {"carrier": "gamma-delta:0", "entries": [{"i": 2, "k2": 2, "c": 1}]}


@pytest.mark.parametrize(
    "argv, datum, want",
    [
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": 5, "k2": 8, "c": -1}]}, 4),
        (("rho", "--n", "7"), {"carrier": "vj:x", "entries": []}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": "a", "k2": 8, "c": 1}]}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": 5, "k2": 1e400, "c": 1}]}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": 5, "k2": 8.9, "c": 1.5}]}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": 5, "k2": 8, "c": True}]}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA", "entries": [{"i": 1, "k2": 1, "c": 1}]}, 3),
        (("rho", "--n", "1"), {"carrier": "gamma-delta:0", "entries": []}, 3),
        (("rho", "--n", "0"), {"carrier": "gamma-delta:0", "entries": []}, 2),
        (("reineke", "--n", "5", "--j", "1"), {"carrier": "gamma-delta:0", "entries": [{"i": 2, "k2": 2, "c": -1}]}, 4),
        (("reineke", "--n", "5", "--j", "9"), GOOD_DELTA, 2),
        (("reineke", "--n", "5", "--j", "0"), GOOD_DELTA, 2),
        (("rho", "--n", "7"), NOT_UTF8, 4),
        (("rho", "--n", "7"), {"carrier": 5, "entries": []}, 4),
        (("rho", "--n", "7"), {"carrier": None, "entries": []}, 4),
        (("rho", "--n", "7"), {"carrier": "gamma-THETA:", "entries": []}, 3),
        (("reineke", "--n", "7", "--j", "1"), {"carrier": "vj:04", "entries": []}, 3),
    ],
    ids=[
        "rho-negative-count", "rho-bad-vj-carrier", "rho-non-integer-row", "rho-infinite-k2",
        "rho-float-entries", "rho-bool-count",
        "rho-key-off-carrier", "rho-rank-1", "rho-rank-0",
        "reineke-negative-count", "reineke-j-above-n", "reineke-j-zero", "rho-not-utf8",
        "rho-int-carrier", "rho-null-carrier", "rho-carrier-trailing-colon", "reineke-carrier-leading-zero",
    ],
)
def test_datum_input_exit_codes(capsys, tmp_path, argv, datum, want):
    # malformed or negative entries and a carrier that is no string are parse
    # errors (4), --n and --j out of range config errors (2), keys, ranks or
    # carrier spellings no carrier allows domain errors (3)
    path = write(tmp_path, "d.json", datum)
    code, _, err = run(capsys, *argv, path)
    assert code == want
    assert "Traceback" not in err and err.strip()


def _snake_with(**point):
    return {**SNAKE_UNTW, "points": [{"i": 2, "k2": 0, **point}]}


@pytest.mark.parametrize(
    "snake",
    [
        _snake_with(k2=1e400),
        _snake_with(k2=4.5),
        _snake_with(i=2.0),
        _snake_with(i="a"),
        _snake_with(i=True, k2=2),
        {**SNAKE_TW, "n0": 2.0},
        {**SNAKE_UNTW, "flavor": "bogus"},
        NOT_UTF8,
    ],
    ids=["infinite-k2", "float-k2", "integral-float-row", "string-row", "bool-row", "float-n0",
         "unknown-flavor", "not-utf8"],
)
def test_snake_input_exit_codes(capsys, tmp_path, snake):
    # entries of snake JSON must be integers and the flavor one of the two
    # known ones; anything else, or a file that is not UTF-8, is a parse error
    code, _, err = run(capsys, "snake-check", write(tmp_path, "s.json", snake))
    assert code == 4
    assert "Traceback" not in err and err.strip()


@pytest.mark.parametrize(
    "snake, want",
    [
        ({**SNAKE_UNTW, "xi": [2, 5, 6]}, 3),
        ({**SNAKE_UNTW, "xi": [2, 4, 8]}, 3),
        ({**SNAKE_UNTW, "xi": []}, 3),
        ({**SNAKE_TW, "n0": 3}, 3),
        ({**SNAKE_TW, "xi": [2, 4, 6]}, 3),
        ({**SNAKE_UNTW, "flavor": "bogus", "xi": []}, 4),
        ({**SNAKE_UNTW, "flavor": "bogus", "xi": [2, 5, 6]}, 4),
    ],
    ids=["half-integer", "step-of-two", "no-heights", "n-vs-n0", "integer-middle", "bogus-no-heights",
         "bogus-half-integer"],
)
def test_snake_heights_off_the_height_rule_are_a_domain_error(capsys, tmp_path, snake, want):
    # an xi of JSON integers that is no height function of its flavor is a
    # domain error (exit 3), as a point off the quiver is; an unknown flavor
    # stays a parse error (exit 4) whatever the heights
    code, out, err = run(capsys, "snake-check", write(tmp_path, "s.json", snake))
    assert (code, out) == (want, "")
    assert err.strip() and "Traceback" not in err
    assert err.startswith("error: ") == (want == 3)
    assert run(capsys, "quiver", "--xi", "2,5,6")[0] == 2  # on the command line it is a config error


@pytest.mark.parametrize("points", [[{"i": 4, "k2": 0}], []], ids=["off-quiver", "empty"])
@pytest.mark.parametrize("command", ["snake-check", "qr", "tsystem", "translate"])
def test_well_formed_snake_off_the_quiver_is_a_domain_error(capsys, tmp_path, command, points):
    # the JSON parses, but the points are no snake on the quiver: exit 3, as
    # for a datum key off its carrier
    snake = {**(SNAKE_TW if command == "translate" else SNAKE_UNTW), "points": points}
    code, out, err = run(capsys, command, write(tmp_path, "s.json", snake))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "Traceback" not in err


def _table(**change):
    """A custom table over the window of SNAKE_UNTW's height function, with
    the first entry's fields overridden by ``change``."""
    verts = HeightFunction.untwisted([1, 2, 3]).gamma_vertices()
    entries = [{"i": v.i, "k2": v.k2, "monomial": [{"node": v.i, "spectral": -v.k2, "exp": 1}]} for v in verts]
    top = {k: change.pop(k) for k in ("h_dual", "g0_rank") if k in change}
    entries[0] = {**entries[0], **change}
    return {"h_dual": 4, **top, "entries": entries}


@pytest.mark.parametrize(
    "table, want",
    [
        (_table(), 0),
        (_table(h_dual="a"), 4),
        (_table(h_dual=1e400), 4),
        (_table(h_dual=4.7), 4),
        (_table(i=2.0), 4),
        (_table(g0_rank=None), 4),
        ({"entries": []}, 4),
        ({"h_dual": 4, "entries": []}, 3),
        (_table(g0_rank=3, monomial=[{"node": 9, "spectral": -2, "exp": 1}]), 4),
        ({**_table(), "entries": _table()["entries"] + _table(monomial=[])["entries"][:1]}, 4),
        (NOT_UTF8, 4),
    ],
    ids=["valid", "string-h_dual", "infinite-h_dual", "float-h_dual", "float-row", "null-g0_rank",
         "no-h_dual", "missing-window-vertex", "node-above-g0_rank", "window-vertex-twice", "not-utf8"],
)
def test_realization_input_exit_codes(capsys, tmp_path, table, want):
    # numbers in a custom table must be integers, monomial nodes lie in
    # [1, g0_rank] and no vertex is listed twice (else a parse error, 4); a
    # table that misses a window vertex is a domain error (3)
    snake, real = write(tmp_path, "s.json", SNAKE_UNTW), write(tmp_path, "t.json", table)
    code, out, err = run(capsys, "tsystem", snake, "--realization", real)
    assert code == want
    assert "Traceback" not in err
    assert ("(formal products; custom table)" in out) if want == 0 else err.strip()


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "moves", "--trials", "10", "--seed", "1")
    assert code == 0 and "moves: ok" in out


def test_verify_reports_a_wrong_move_and_exits_one(capsys, monkeypatch):
    # the failure path: a wrong 3-move formula must be caught, reported with
    # its first counterexample, and turn the exit code to 1
    from snaketsys import lusztig

    monkeypatch.setattr(lusztig, "three_move", lambda a, b, c: (b + c - min(a, c), min(a, c), a + b))
    code, out, err = run(capsys, "verify", "--suite", "moves", "--trials", "5", "--seed", "0")
    assert (code, err) == (1, "")
    assert out.startswith("moves: FAIL (")
    assert "\n  first counterexample: " in out


def test_verify_reports_a_crashing_sweep_and_runs_the_rest(capsys, monkeypatch):
    # an exception in a sweep is that sweep's failure, not a traceback: the
    # Q/R run kernel raising fails the three sweeps that reach it only
    def broken(*args):
        raise RuntimeError("broken kernel")

    monkeypatch.setattr(snakes, "_qr_run", broken)
    code, out, err = run(capsys, "verify", "--suite", "all", "--trials", "10", "--seed", "0")
    assert (code, err) == (1, "")
    names = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert names == [line.split(":")[0] for line in VERIFY_ALL_200_SEED_0.splitlines()]
    failed = [line.split(":")[0] for line in out.splitlines() if ": FAIL (" in line]
    assert failed == ["qr-being-snake-untwisted", "qr-being-snake-twisted", "qr-dual-equivariance"]
    assert out.count("\n  first counterexample: RuntimeError: broken kernel\n") == 3
    assert "Traceback" not in out
    from snaketsys import verify

    assert "RuntimeError: broken kernel" in verify.run_suite("qr", 10, 0)[0].details["traceback"]


def test_verify_fails_only_the_cases_that_raise(capsys, monkeypatch):
    # epsilon* raising at rank 3 fails the two rank-3 cases of its sweep
    # (10 trials: two cases per rank) and no other: the other ranks pass,
    # the first failure and its traceback are kept, and the exit is 1
    from snaketsys import reineke, verify

    clean = [r.summary() for r in verify.run_suite("reineke", 10, 0)]
    epsilon_star = reineke.epsilon_star

    def broken(j, d):
        if d.carrier.n == 3:
            raise RuntimeError(f"broken at rank 3 on {d.carrier.name}")
        return epsilon_star(j, d)

    monkeypatch.setattr(reineke, "epsilon_star", broken)
    code, out, err = run(capsys, "verify", "--suite", "reineke", "--trials", "10", "--seed", "0")
    assert (code, err) == (1, "")
    assert clean[1] == "epsilon-star: ok (40 passed, 0 failed, 0 skipped)"
    want = "epsilon-star: FAIL (34 passed, 2 failed, 0 skipped)\n  first counterexample: RuntimeError: broken at rank 3 on gamma-delta:0"
    assert out == "\n".join([clean[0], want, *clean[2:]]) + "\n"
    traceback = {r.name: r for r in verify.run_suite("reineke", 10, 0)}["epsilon-star"].details["traceback"]
    assert traceback.endswith("RuntimeError: broken at rank 3 on gamma-delta:0\n")


def test_verify_reports_a_failing_case_generator_as_one_failure(capsys, monkeypatch):
    # the exhaustive D-equivariance cases start from canonical(n, 0); when
    # that raises, the sweep is a single failure and the other Q/R sweeps run
    def broken(n, delta):
        raise RuntimeError("no canonical quiver")

    monkeypatch.setattr(HeightFunction, "canonical", staticmethod(broken))
    code, out, err = run(capsys, "verify", "--suite", "qr", "--trials", "10", "--seed", "0")
    assert (code, err) == (1, "")
    assert out == (
        "qr-being-snake-untwisted: ok (10 passed, 0 failed, 0 skipped)\n"
        "qr-being-snake-twisted: ok (10 passed, 0 failed, 0 skipped)\n"
        "qr-dual-equivariance: FAIL (0 passed, 1 failed, 0 skipped)\n"
        "  first counterexample: RuntimeError: no canonical quiver\n"
    )


def test_verify_results_carry_seed_time_and_skip_reasons():
    from snaketsys import verify

    results = {r.name: r for r in verify.run_suite("all", 200, 0)}
    for r in results.values():
        assert r.details["seed"] == 0 and r.details["elapsed_s"] > 0
        reasons = {k: c for k, c in r.details.items() if k not in ("seed", "elapsed_s")}
        assert sum(reasons.values()) == r.skipped, r.name
    twisted = results["epsilon-predictions-twisted"]
    assert {k: twisted.details[k] for k in ("indeterminate", "bridge_unreachable")} == {
        "indeterminate": 29, "bridge_unreachable": 2,
    }


def test_verify_suites_are_the_groups_of_the_sweep_table(capsys):
    from snaketsys import verify

    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in subparsers.choices["verify"]._actions if a.dest == "suite"]
    assert suite.choices == ("moves", "rho", "reineke", "qr", "all")
    assert set(suite.choices) == {sweep.group for sweep in verify.SWEEPS} | {"all"}
    code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "1", "--seed", "0")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [sweep.name for sweep in verify.SWEEPS]


_LOADS_VERIFY = """
import contextlib, io, sys
from snaketsys.cli import main
print("snaketsys.verify" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    quiver = main(["quiver", "--n", "3"])
print(quiver, "snaketsys.verify" in sys.modules)
print(main(["verify", "--suite", "rho", "--trials", "2", "--seed", "0"]), "snaketsys.verify" in sys.modules)
"""


def test_cli_loads_verify_only_for_the_verify_command():
    # in a fresh interpreter: importing the CLI and running another command
    # leave verify unloaded, and the verify command loads it and runs
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADS_VERIFY], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "False",
        "0 False",
        "rho: ok (8 passed, 0 failed, 0 skipped)",
        "0 True",
    ]


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_verify_needs_at_least_one_trial(capsys, trials):
    # no vacuous "ok (0 passed, ...)" line: a trial count below 1 is a config error
    code, out, err = run(capsys, "verify", "--suite", "rho", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"config error: --trials must be >= 1, got {trials}\n"


VERIFY_ALL_200_SEED_0 = """\
moves: ok (1800 passed, 0 failed, 0 skipped)
rho: ok (800 passed, 0 failed, 0 skipped)
reineke-dual: ok (400 passed, 0 failed, 0 skipped)
epsilon-star: ok (800 passed, 0 failed, 0 skipped)
epsilon-predictions-untwisted: ok (200 passed, 0 failed, 0 skipped)
epsilon-predictions-twisted: ok (200 passed, 0 failed, 31 skipped)
qr-being-snake-untwisted: ok (200 passed, 0 failed, 0 skipped)
qr-being-snake-twisted: ok (200 passed, 0 failed, 0 skipped)
qr-dual-equivariance: ok (322 passed, 0 failed, 0 skipped)
"""

VERIFY_ALL_37_SEED_5 = """\
moves: ok (315 passed, 0 failed, 0 skipped)
rho: ok (148 passed, 0 failed, 0 skipped)
reineke-dual: ok (69 passed, 0 failed, 0 skipped)
epsilon-star: ok (140 passed, 0 failed, 0 skipped)
epsilon-predictions-untwisted: ok (37 passed, 0 failed, 0 skipped)
epsilon-predictions-twisted: ok (37 passed, 0 failed, 1 skipped)
qr-being-snake-untwisted: ok (37 passed, 0 failed, 0 skipped)
qr-being-snake-twisted: ok (37 passed, 0 failed, 0 skipped)
qr-dual-equivariance: ok (322 passed, 0 failed, 0 skipped)
"""


@pytest.mark.parametrize(
    ("trials", "seed", "want"), [("200", "0", VERIFY_ALL_200_SEED_0), ("37", "5", VERIFY_ALL_37_SEED_5)], ids=["200-0", "37-5"]
)
def test_verify_all_output_is_pinned(capsys, trials, seed, want):
    # every count pins the suites' random draw order at its seed; 37 trials
    # are no multiple of 5, so the per-rank sweeps round trials // 5 down
    code, out, err = run(capsys, "verify", "--suite", "all", "--trials", trials, "--seed", seed)
    assert (code, err) == (0, "")
    assert out == want


def test_quiver_window_figure_labels(capsys):
    code, out, _ = run(capsys, "quiver", "--xi", "4,2,4,6,8")
    assert code == 0
    for label in ("a2", "a1,3", "a2,5", "a4,5", "a5"):
        assert label in out
    # 15 labelled vertices in the window
    assert sum(out.count(f"a{i}") for i in range(1, 6)) >= 15


# -- fuzzing the datum readers ---------------------------------------------

_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
_VALUE = st.one_of(st.integers(-3, 40), _JUNK)
_GOOD_ENTRY = st.fixed_dictionaries({"i": st.integers(-1, 16), "k2": st.integers(-3, 60), "c": st.integers(-1, 9)})
_ENTRY = st.one_of(
    _GOOD_ENTRY,
    st.dictionaries(st.sampled_from(["i", "k2", "c", "x"]), _VALUE, max_size=4),  # missing keys, wrong types
    _JUNK,
)
_GOOD_CARRIER = st.sampled_from(["gamma-THETA", "gamma-theta", "gamma-delta:0", "gamma-delta:1"])
_CARRIER = st.one_of(
    _GOOD_CARRIER,
    st.sampled_from(["gamma-delta:2", "gamma-delta:x", "vj:", "vj:x", "vj:-1", "bogus", ""]),
    st.integers(-2, 17).map(lambda j: f"vj:{j}"),
    _JUNK,
)
_DATUM = st.one_of(
    st.fixed_dictionaries({"carrier": _GOOD_CARRIER, "entries": st.lists(_GOOD_ENTRY, max_size=2)}),
    st.fixed_dictionaries({"carrier": _CARRIER, "entries": st.lists(_ENTRY, max_size=6)}),
    st.dictionaries(  # missing keys
        st.sampled_from(["carrier", "entries"]), st.one_of(_CARRIER, st.lists(_ENTRY, max_size=3)), max_size=2
    ),
    _JUNK,
)


@st.composite
def _datum_argv(draw):
    command = draw(st.sampled_from(["rho", "reineke"]))
    n = draw(st.integers(-1, 15))  # a large rank builds an n^2/2-vertex window: keep it small
    argv = [command, f"--n={n}", "--format", "json", "-"]
    if command == "reineke":
        argv.append(f"--j={draw(st.one_of(st.sampled_from([0, 1, n, n + 1]), st.integers(-2, 17)))}")
    return argv


def _never_crashes(argv, stdin_obj):
    """Run main in process on stdin_obj as JSON input; check it ends in a
    documented exit code with a message, never a traceback, and that a
    successful run with --format json prints JSON."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(stdin_obj))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4), (argv, stdin_obj)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "" and err.getvalue().strip()
    elif "json" in argv:
        json.loads(out.getvalue())


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_datum_argv(), datum=_DATUM)
def test_datum_commands_never_crash(argv, datum):
    _never_crashes(argv, datum)


# -- fuzzing the snake and realization-table readers -----------------------

_HEIGHTS = (
    HeightFunction.untwisted([1]),
    HeightFunction.untwisted([1, 2, 3]),
    HeightFunction.untwisted([2, 1, 2, 3]),
    HeightFunction.big_theta(2),
    HeightFunction.big_theta(3),
)
_POINT = st.one_of(
    st.fixed_dictionaries({"i": st.integers(-1, 7), "k2": st.integers(-4, 24)}),  # mostly off the window
    st.dictionaries(st.sampled_from(["i", "k2", "x"]), _VALUE, max_size=3),  # missing keys, wrong types
    _JUNK,
)
_FIELD_VALUE = st.one_of(_VALUE, st.lists(_VALUE, max_size=4), st.sampled_from(["untwisted", "twisted", "bogus"]))


def _spoil(draw, obj, keys):
    """obj as is three times in four, else with one of keys dropped or given a junk value."""
    if draw(st.integers(0, 3)):
        return obj
    obj, key = dict(obj), draw(st.sampled_from(keys))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_FIELD_VALUE)
    return obj


@st.composite
def _snake_argv(draw):
    """(argv, snake JSON, realization table JSON or None) on one of _HEIGHTS."""
    xi = draw(st.sampled_from(_HEIGHTS))
    window = sorted(xi.gamma_vertices())
    rng = random.Random(draw(st.integers(0, 2**16)))  # a (prime) snake grown from a window vertex, maybe leaving it
    grown = verify.grow_snake(xi, rng, draw(st.sampled_from(window)), draw(st.integers(2, 6)),
                              prime=draw(st.booleans()), in_gamma=draw(st.booleans()))
    points = [{"i": v.i, "k2": v.k2} for v in grown]
    if not draw(st.integers(0, 3)):
        points.insert(draw(st.integers(0, len(points))), draw(_POINT))
    snake = _spoil(draw, {"flavor": xi.flavor, "xi": list(xi.values2), "n0": xi.n0, "points": points},
                   ["flavor", "xi", "n0", "points"])
    command = draw(st.sampled_from(["snake-check", "qr", "tsystem"]))
    argv = [command, "--format", draw(st.sampled_from(["json", "text"])), "-"]
    table = None
    realization = draw(st.sampled_from([None, "qdatum", "table"])) if command == "tsystem" else None
    if realization == "qdatum":
        argv += ["--realization", "qdatum"]
    elif realization == "table":
        h_dual = draw(st.integers(-1, 8))
        missing = draw(st.one_of(st.none(), st.none(), st.sampled_from(window)))
        entries = [
            {"i": v.i, "k2": v.k2, "monomial": [{"node": v.i, "spectral": -v.k2, "exp": draw(st.integers(-1, 2))}]}
            for v in window if v != missing
        ]
        if entries:
            entries[-1]["monomial"] = [_spoil(draw, entries[-1]["monomial"][0], ["node", "spectral", "exp"])]
            entries[0] = _spoil(draw, entries[0], ["i", "k2", "monomial"])
        table = _spoil(draw, {"h_dual": h_dual, "g0_rank": h_dual - 1, "entries": entries},
                       ["h_dual", "g0_rank", "entries"])
    return argv, snake, table


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=_snake_argv())
def test_snake_commands_never_crash(tmp_path_factory, case):
    argv, snake, table = case
    if table is not None:
        path = tmp_path_factory.getbasetemp() / "table.json"
        path.write_text(json.dumps(table))
        argv = [*argv, "--realization", str(path)]
    _never_crashes(argv, snake)
