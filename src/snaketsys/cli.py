"""Command-line front end.

Subcommands: quiver, snake-check, qr, tsystem, reineke, rho, translate,
verify.  Each takes only the options it reads (the COMMANDS table) and
--format with the formats it writes.  Snake/datum/table JSON is read from a
file argument or standard input.  Exit codes: 0 ok, 1 verification failure,
2 config error, 3 domain precondition failure (a snake point off the
quiver, heights that are no height function, a datum key off its carrier,
...), 4 parse error (not JSON, or an entry of the wrong type or shape).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import realize, reineke, snakes, tsystem
from .errors import DomainError, NotSnake
from .lusztig import VertexDatum, datum_from_json, datum_to_json, rho
from .quivers import TWISTED, UNTWISTED, HeightFunction, quiver_ascii, quiver_dot, vertices_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_PARSE = 4


class ConfigError(Exception):
    pass


class ParseError(Exception):
    pass


def _height_function(args) -> HeightFunction:
    """The height function of --xi, else of --n0 (twisted) or --n.

    An --n other than its rank, or an --n0 on an untwisted one, is a config
    error rather than ignored.
    """
    twisted = args.flavor == TWISTED
    if twisted and args.n0 is None:
        raise ConfigError("twisted height functions need --n0")
    if not twisted and args.n0 is not None:
        raise ConfigError("--n0 applies to twisted height functions only")
    if not args.xi and not twisted and args.n is None:
        raise ConfigError("--n (or --xi) is required")
    try:
        if args.xi:
            values2 = tuple(int(x) for x in args.xi.split(","))
            xi = HeightFunction(len(values2), args.flavor, values2, args.n0)
        else:
            xi = HeightFunction.big_theta(args.n0) if twisted else HeightFunction.canonical(args.n, 0)
    except (ValueError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.n is not None and args.n != xi.n:
        raise ConfigError(f"--n {args.n} differs from the rank {xi.n} of the height function")
    return xi


def _read(path: str | None, parse, what: str):
    """parse(the JSON of a UTF-8 file, or of stdin for None or -).

    Bytes that do not decode, text that is not JSON, and a KeyError,
    TypeError, ValueError or OverflowError of parse are a parse error; a
    DomainError (a ValueError subclass, so it is let through first) stays a
    domain error.
    """
    try:
        if path in (None, "-"):
            obj = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"cannot read JSON input: {exc}") from exc
    try:
        return parse(obj)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {what} JSON: {exc}") from exc


def _read_datum(args) -> VertexDatum:
    """The vertex datum of a rho or reineke command: --n and the JSON input."""
    if args.n is None or args.n < 1:
        raise ConfigError(f"{args.command} needs --n >= 1")
    return _read(args.input, lambda obj: datum_from_json(obj, args.n), "datum")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_quiver(args) -> int:
    xi = _height_function(args)
    if args.window:
        try:
            lo, hi = (int(x) for x in args.window.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad --window: {exc}") from exc
        labels = args.labels
    else:
        lo, hi = xi.gamma_vertices()[0].k2, xi.gamma_vertices()[-1].k2  # the reading runs by k2
        labels = True
    if args.format == "dot":
        print(quiver_dot(xi, lo, hi, phi_labels=labels))
    else:
        print(quiver_ascii(xi, lo, hi, phi_labels=labels))
    return EXIT_OK


def cmd_snake_check(args) -> int:
    snake = _read(args.input, snakes.snake_from_json, "snake")
    try:  # the one classifier: prime means one segment
        splits = [vertices_json(seg) for seg in snakes.split_prime(snake.xi, snake.points)]
        out = {"snake": True, "prime": len(splits) == 1, "splits": splits}
    except NotSnake:
        out = {"snake": False, "prime": False}
    if args.format == "json":
        _emit(out)
    else:
        segments = f", prime segments: {len(splits)}" if out["snake"] else ""
        print(f"snake: {out['snake']}, prime: {out['prime']}{segments}")
    return EXIT_OK


def cmd_qr(args) -> int:
    snake = _read(args.input, snakes.snake_from_json, "snake")
    pair = snakes.qr_sequences(snake.xi, snake.points)
    out = {
        "Q": vertices_json(pair.q),
        "R": vertices_json(pair.r),
    }
    if args.format == "json":
        _emit(out)
    else:
        print("Q:", " ".join(str(v) for v in pair.q) or "(empty)")
        print("R:", " ".join(str(v) for v in pair.r) or "(empty)")
    return EXIT_OK


def _realization_for(args, xi) -> realize.Realization | None:
    if not args.realization:
        return None
    if args.realization == "qdatum":
        return realize.Realization.qdatum_a(xi.n) if xi.flavor == UNTWISTED else realize.Realization.qdatum_b(xi.n0)
    return _read(args.realization, lambda obj: realize.realization_from_json(obj, xi), "realization")


def cmd_tsystem(args) -> int:
    snake = _read(args.input, snakes.snake_from_json, "snake")
    rel = tsystem.extended_tsystem(snake.xi, snake.points)
    real = _realization_for(args, snake.xi)
    if args.format == "json":
        out = tsystem.relation_json(rel)
        if real:
            out["monomials"] = realize.relation_monomials_json(realize.relation_monomials(rel, real))
        _emit(out)
    elif args.format == "latex":
        print(tsystem.relation_latex(rel))
        if real:
            print(realize.relation_monomials_latex(realize.relation_monomials(rel, real)))
    else:
        print(tsystem.relation_text(rel))
        if real:
            print(realize.relation_monomials_text(realize.relation_monomials(rel, real)))
    return EXIT_OK


def cmd_reineke(args) -> int:
    datum = _read_datum(args)
    if not 1 <= args.j <= args.n:
        raise ConfigError(f"--j must lie in [1, {args.n}], got {args.j}")
    out = {
        "j": args.j,
        "epsilon": reineke.epsilon_any(args.j, datum),
        "epsilon_star": reineke.epsilon_star(args.j, datum),
    }
    if args.format == "json":
        _emit(out)
    else:
        print(f"epsilon_{args.j} = {out['epsilon']}, epsilon*_{args.j} = {out['epsilon_star']}")
    return EXIT_OK


def cmd_rho(args) -> int:
    _emit(datum_to_json(rho(_read_datum(args))))
    return EXIT_OK


def cmd_translate(args) -> int:
    snake = _read(args.input, snakes.snake_from_json, "snake")
    if snake.xi.flavor != TWISTED:
        raise ConfigError("translate expects a twisted snake")
    out = snakes.translate_twisted(snake.xi.n0, snake.points)
    theta = HeightFunction.theta(snake.xi.n0)
    _emit(snakes.snake_to_json(theta, out))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # only this command loads the sweeps and their oracles

    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = verify.run_suite(args.suite, args.trials, args.seed)
    for r in results:
        print(r.summary())
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


# every option a command can take; each row of COMMANDS names the ones its handler reads
OPTIONS = {
    "--n": dict(type=int, help="rank of the type-A root system"),
    "--flavor": dict(choices=(UNTWISTED, TWISTED), default=UNTWISTED),
    "--xi": dict(help="comma-separated doubled height values; write a list that starts with a "
                 "negative value as --xi=-2,-3,0, since a separate -2,-3,0 reads as an option"),
    "--n0": dict(type=int, help="middle node of a twisted height function"),
    "--window": dict(help="doubled k2 range LO:HI (default: the Gamma window); a negative LO needs --window=LO:HI"),
    "--labels": dict(action="store_true", help="attach root labels (Gamma only)"),
    "input": dict(nargs="?", help="JSON input path, or - (the default) for stdin"),
    "--realization": dict(help="'qdatum' or a custom table JSON path"),
    "--j": dict(type=int, required=True),
    # the groups of verify.SWEEPS, written out so that the parser does not load verify
    "--suite": dict(choices=("moves", "rho", "reineke", "qr", "all"), default="all"),
    "--trials": dict(type=int, default=100),
    "--seed": dict(type=int, default=0),
}

# name, handler, help, --format choices (the first is the default), options
COMMANDS = (
    ("quiver", cmd_quiver, "render the repetition quiver or its window", ("text", "dot"),
     ("--n", "--flavor", "--xi", "--n0", "--window", "--labels")),
    ("snake-check", cmd_snake_check, "validate a snake JSON file", ("text", "json"), ("input",)),
    ("qr", cmd_qr, "socle position sequences of a prime snake", ("text", "json"), ("input",)),
    ("tsystem", cmd_tsystem, "emit the extended T-system relation", ("text", "json", "latex"),
     ("input", "--realization")),
    ("reineke", cmd_reineke, "epsilon and epsilon* of a vertex datum", ("text", "json"), ("--n", "--j", "input")),
    ("rho", cmd_rho, "transport a datum from the twisted to the untwisted window", ("json",), ("--n", "input")),
    ("translate", cmd_translate, "untwisted shadow of a twisted window snake", ("json",), ("input",)),
    ("verify", cmd_verify, "run a randomized verification suite", ("text",), ("--suite", "--trials", "--seed")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snaketsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_, formats, options in COMMANDS:
        p = sub.add_parser(name, help=help_)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
