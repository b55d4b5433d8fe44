"""Command-line front end.

Subcommands: quiver, snake-check, qr, tsystem, reineke, rho, translate,
verify.  Snake/datum/table JSON is read from a file argument or standard
input.  Exit codes: 0 ok, 1 verification failure, 2 config error, 3 domain
precondition failure, 4 parse error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import realize, reineke, snakes, tsystem, verify
from .errors import DomainError
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


def _common_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """The shared flags; --format accepts only the formats the command writes, the first by default."""
    p.add_argument("--n", type=int, help="rank of the type-A root system")
    p.add_argument("--flavor", choices=(UNTWISTED, TWISTED), default=UNTWISTED)
    p.add_argument("--xi", help="comma-separated doubled height values; write a list that starts with a "
                   "negative value as --xi=-2,-3,0, since a separate -2,-3,0 reads as an option")
    p.add_argument("--n0", type=int, help="middle node of a twisted height function")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--seed", type=int, default=0)


def _height_function(args) -> HeightFunction:
    try:
        if args.xi:
            values2 = tuple(int(x) for x in args.xi.split(","))
            if args.flavor == TWISTED:
                if args.n0 is None:
                    raise ConfigError("twisted height functions need --n0")
                return HeightFunction.twisted(values2, args.n0)
            return HeightFunction(len(values2), UNTWISTED, values2)
        if args.flavor == TWISTED:
            if args.n0 is None:
                raise ConfigError("--n0 (or --xi) is required for twisted")
            return HeightFunction.big_theta(args.n0)
        if args.n is None:
            raise ConfigError("--n (or --xi) is required")
        return HeightFunction.canonical(args.n, 0)
    except (ValueError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path: str | None):
    """JSON from a UTF-8 file or stdin; bytes that do not decode, or text that is not JSON, are a parse error."""
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"cannot read JSON input: {exc}") from exc


def _read_snake(path: str | None) -> snakes.Snake:
    obj = _read_json(path)
    try:
        return snakes.snake_from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad snake JSON: {exc}") from exc


def _read_datum(args) -> VertexDatum:
    """The vertex datum of a rho or reineke command: --n and the JSON input.

    A malformed or negative entry, or an unparsable carrier name, is a parse
    error; a key outside its carrier and other domain errors stay domain
    errors (DomainError subclasses ValueError, so it is let through first).
    """
    if args.n is None or args.n < 1:
        raise ConfigError(f"{args.command} needs --n >= 1")
    obj = _read_json(args.input)
    try:
        return datum_from_json(obj, args.n)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad datum JSON: {exc}") from exc


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
        verts = xi.gamma_vertices()
        lo, hi = min(v.k2 for v in verts), max(v.k2 for v in verts)
        labels = True
    if args.format == "dot":
        print(quiver_dot(xi, lo, hi, phi_labels=labels))
    else:
        print(quiver_ascii(xi, lo, hi, phi_labels=labels))
    return EXIT_OK


def cmd_snake_check(args) -> int:
    snake = _read_snake(args.input)
    xi, pts = snake.xi, snake.points
    ok = snakes.is_snake(xi, pts)
    prime = ok and snakes.is_prime_snake(xi, pts)
    out = {"snake": ok, "prime": prime}
    if ok:
        out["splits"] = [vertices_json(seg) for seg in snakes.split_prime(xi, pts)]
    if args.format == "json":
        _emit(out)
    else:
        print(f"snake: {ok}, prime: {prime}" + ("" if not ok else f", prime segments: {len(out['splits'])}"))
    return EXIT_OK


def cmd_qr(args) -> int:
    snake = _read_snake(args.input)
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
    obj = _read_json(args.realization)
    try:
        return realize.realization_from_json(obj, xi)
    except DomainError:  # a table missing a window vertex stays a domain error
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad realization JSON: {exc}") from exc


def cmd_tsystem(args) -> int:
    snake = _read_snake(args.input)
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
    snake = _read_snake(args.input)
    if snake.xi.flavor != TWISTED:
        raise ConfigError("translate expects a twisted snake")
    out = snakes.translate_twisted(snake.xi.n0, snake.points)
    theta = HeightFunction.theta(snake.xi.n0)
    _emit(snakes.snake_to_json(theta, out))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = verify.run_suite(args.suite, args.trials, args.seed)
    for r in results:
        print(r.summary())
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snaketsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="render the repetition quiver or its window")
    _common_flags(p, ("text", "dot"))
    p.add_argument("--window", help="doubled k2 range LO:HI (default: the Gamma window)")
    p.add_argument("--labels", action="store_true", help="attach root labels (Gamma only)")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("snake-check", help="validate a snake JSON file")
    _common_flags(p, ("text", "json"))
    p.add_argument("input", nargs="?", help="snake JSON path or - for stdin")
    p.set_defaults(func=cmd_snake_check)

    p = sub.add_parser("qr", help="socle position sequences of a prime snake")
    _common_flags(p, ("text", "json"))
    p.add_argument("input", nargs="?")
    p.set_defaults(func=cmd_qr)

    p = sub.add_parser("tsystem", help="emit the extended T-system relation")
    _common_flags(p, ("text", "json", "latex"))
    p.add_argument("input", nargs="?")
    p.add_argument("--realization", help="'qdatum' or a custom table JSON path")
    p.set_defaults(func=cmd_tsystem)

    p = sub.add_parser("reineke", help="epsilon and epsilon* of a vertex datum")
    _common_flags(p, ("text", "json"))
    p.add_argument("--j", type=int, required=True)
    p.add_argument("input", nargs="?")
    p.set_defaults(func=cmd_reineke)

    p = sub.add_parser("rho", help="transport a datum from the twisted to the untwisted window")
    _common_flags(p, ("json",))
    p.add_argument("input", nargs="?")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("translate", help="untwisted shadow of a twisted window snake")
    _common_flags(p, ("json",))
    p.add_argument("input", nargs="?")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    _common_flags(p, ("text",))
    p.add_argument("--suite", choices=("moves", "rho", "reineke", "qr", "all"), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify)

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
