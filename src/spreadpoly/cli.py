"""Command-line interface.

Subcommands: ``gen`` (one polynomial), ``triangle`` (coefficient rows),
``eval`` (exact value at a rational point), ``series`` (generating-function
expansion), and ``verify`` (runs the cross-validation suites of
``spreadpoly.verify``).

Exit codes are a stable contract: 0 for success / all checks passing, 1 when
a verification suite fails, 2 for usage errors, 74 (EX_IOERR in sysexits.h)
on any other I/O error, such as output that cannot be written (one line on
stderr), and 141 (128 + SIGPIPE) when the reader closes the output pipe
early.  All output is deterministic; JSON coefficients are decimal strings
because triangle entries outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable

from . import verify
from .gf import GF_KINDS, expand, gf_of
from .poly import BiPoly, UniPoly
from .sequences import (
    FIBONACCI_METHODS,
    LUCAS_METHODS,
    Z_METHODS,
    ZX_METHODS,
    chebyshev_t,
    chebyshev_t_at,
    fibonacci,
    fibonacci_at,
    lucas,
    lucas_at,
    point_bits_bound,
    spread_z_univariate,
    spread_z_univariate_at,
    triangle,
    univariate_l,
    univariate_l_at,
    wildberger_spread,
    wildberger_spread_at,
    z_at,
    z_polynomial,
)

# Family -> (valid methods, builder, point evaluator).  Families without
# alternate constructions reject --method outright.  The evaluator takes
# (n, x0, s0) and never builds the polynomial; univariate ones get s0 = None.
_FAMILIES: dict[
    str,
    tuple[
        tuple[str, ...],
        Callable[[int, str | None], BiPoly | UniPoly],
        Callable[[int, Fraction, Fraction | None], Fraction],
    ],
] = {
    "F": (FIBONACCI_METHODS, lambda n, m: fibonacci(n, m or "recurrence"), fibonacci_at),
    "L": (LUCAS_METHODS, lambda n, m: lucas(n, m or "recurrence"), lucas_at),
    "Z": (Z_METHODS, lambda n, m: z_polynomial(n, m or "recurrence"), z_at),
    "l": ((), lambda n, m: univariate_l(n), lambda n, x, s: univariate_l_at(n, x)),
    "Zx": (
        ZX_METHODS,
        lambda n, m: spread_z_univariate(n, m or "via_l"),
        lambda n, x, s: spread_z_univariate_at(n, x),
    ),
    "S": ((), lambda n, m: wildberger_spread(n), lambda n, x, s: wildberger_spread_at(n, x)),
    "T": ((), lambda n, m: chebyshev_t(n), lambda n, x, s: chebyshev_t_at(n, x)),
}

_BIVARIATE = ("F", "L", "Z")

# eval refuses a value whose numerator or denominator could exceed this many
# bits (by point_bits_bound): printing a 2^20-bit integer in decimal already
# takes about two seconds.
_EVAL_MAX_BITS = 1 << 20


# An integer literal as int() reads it.  int() refuses a well-formed one only
# past the interpreter's str-to-int digit limit (Python 3.10.7 and later).
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int(text: str) -> int:
    """int(text), but a literal past the str-to-int digit limit is reported
    as too long rather than as malformed."""
    try:
        return int(text)
    except ValueError:
        if not _INT_LITERAL.fullmatch(text):
            raise
    digits = sum(map(str.isdecimal, text))
    raise argparse.ArgumentTypeError(
        f"{digits}-digit integer is past Python's str-to-int limit of "
        f"{sys.get_int_max_str_digits()} digits"
    )


def _nonneg(text: str, least: int = 0) -> int:
    """The integer ``text`` names, refused below ``least``."""
    try:
        value = _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}: {text}")
    return value


def _positive(text: str) -> int:
    return _nonneg(text, 1)


def _rational(text: str) -> Fraction:
    head, slash, tail = text.partition("/")
    try:
        if slash:
            return Fraction(_int(head), _int(tail))
        return Fraction(_int(head))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational literal (p/q or integer): {text!r}")


def _terms_json(poly: BiPoly | UniPoly) -> list[dict[str, object]]:
    if isinstance(poly, BiPoly):
        return [{"x": dx, "s": ds, "c": str(c)} for (dx, ds), c in poly.terms()]
    return [{"x": k, "s": 0, "c": str(c)} for k, c in poly.terms()]


def _dump(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- subcommand handlers --------------------------------------------------------


def _cmd_gen(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    methods, builder, _ = _FAMILIES[args.family]
    if args.method is not None and args.method not in methods:
        if methods:
            parser.error(
                f"family {args.family} accepts methods {', '.join(methods)}; got {args.method!r}"
            )
        parser.error(f"family {args.family} has a single construction; drop --method")
    try:
        poly = builder(args.n, args.method)
    except ValueError as exc:  # an index the construction does not cover
        parser.error(str(exc))
    if args.format == "json":
        print(_dump({"family": args.family, "n": args.n, "terms": _terms_json(poly)}))
    else:
        print(poly.render())
    return 0


def _cmd_triangle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    tri = triangle(args.n)
    if args.format == "csv":
        for row in tri.rows:
            print(",".join(str(v) for v in row))
    elif args.format == "json":
        print(_dump({"rows": [[str(v) for v in row] for row in tri.rows]}))
    else:
        # Every entry is positive, so the largest is the widest: each entry
        # converts to decimal once.
        width = len(str(max(map(max, tri.rows))))
        for row in tri.rows:
            print("  ".join(str(v).rjust(width) for v in row))
    return 0


def _cmd_eval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _, _, evaluator = _FAMILIES[args.family]
    bivariate = args.family in _BIVARIATE
    if bivariate and args.s0 is None:
        parser.error(f"family {args.family} is bivariate; supply both x0 and s0")
    if not bivariate and args.s0 is not None:
        parser.error(f"family {args.family} is univariate; supply x0 only")
    bits = point_bits_bound(args.n, args.x0, args.s0 or 0)
    if bits > _EVAL_MAX_BITS:
        parser.error(
            f"{args.family}({args.n}) at this point may need up to {bits} bits, "
            f"above the limit of {_EVAL_MAX_BITS}"
        )
    print(evaluator(args.n, args.x0, args.s0))
    return 0


def _cmd_series(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    coeffs = expand(gf_of(args.kind), args.n)
    if args.format == "json":
        print(_dump([_terms_json(p) for p in coeffs]))
    else:
        for p in coeffs:
            print(p.render())
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.SUITES[name](args.max_n) for name in names]
    for report in reports:
        status = "PASS" if report.ok else "FAIL"
        print(f"{report.name:<16} {report.detail:<44} {report.passed}/{report.total} {status}")
        for fail in report.failures:
            index, lhs, rhs = fail.witness
            print(f"  witness [{fail.name} {fail.range}] index {index}:")
            print(f"    lhs: {lhs}")
            print(f"    rhs: {rhs}")
    all_ok = all(r.ok for r in reports)
    print(f"{len(reports)} suite(s): {'all PASS' if all_ok else 'FAILURES PRESENT'}")
    return 0 if all_ok else 1


# -- parser wiring ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Teach argparse that a word of '-' and a digit is a value, not an option
    # flag (no option starts with a digit), so every negative literal reaches
    # _rational.  The stock matcher is assigned per instance, hence the override.
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._negative_number_matcher = re.compile(r"^-\d")


def _gen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=sorted(_FAMILIES))
    parser.add_argument("n", type=_nonneg)
    parser.add_argument("--method", default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.set_defaults(handler=functools.partial(_cmd_gen, parser))


def _triangle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("n", metavar="N", type=_positive)
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.set_defaults(handler=functools.partial(_cmd_triangle, parser))


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=sorted(_FAMILIES))
    parser.add_argument("n", type=_nonneg)
    parser.add_argument("x0", type=_rational)
    parser.add_argument("s0", type=_rational, nargs="?", default=None)
    parser.set_defaults(handler=functools.partial(_cmd_eval, parser))


def _series_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kind", choices=GF_KINDS)
    parser.add_argument("n", metavar="N", type=_nonneg)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.set_defaults(handler=functools.partial(_cmd_series, parser))


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", choices=["all"] + list(verify.SUITES))
    parser.add_argument("--max-n", dest="max_n", type=_positive, default=50)
    parser.set_defaults(handler=functools.partial(_cmd_verify, parser))


# Subcommand -> (help line, the function that adds its arguments and binds
# its handler to the parser it is given).
_SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "gen": ("generate one polynomial", _gen_arguments),
    "triangle": ("coefficient triangle rows 1..N", _triangle_arguments),
    "eval": ("evaluate a family member at an exact rational point", _eval_arguments),
    "series": ("generating-function expansion", _series_arguments),
    "verify": ("run cross-validation suites", _verify_arguments),
}

_PROG = "spreadpoly"


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: the top-level parser and every subcommand's."""
    parser = _Parser(
        prog=_PROG,
        description="Exact spread / Fibonacci / Lucas polynomial toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """Parse argv with only the parser of the subcommand that argv[0] names.
    It prints the same help and errors as that subparser of build_parser(),
    at about a sixth of the cost of building build_parser().  Any other argv
    (none, -h, an unknown word) goes through build_parser()."""
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _Parser(prog=f"{_PROG} {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](parser)
        parser.set_defaults(command=argv[0])
        return parser.parse_known_args(argv[1:])
    return build_parser().parse_known_args(argv)


def main(argv: list[str] | None = None) -> int:
    args, extra = _parse(sys.argv[1:] if argv is None else argv)
    # Each handler is bound to its own subparser, so a usage error it raises
    # prints that subcommand's usage line; so do extra arguments.  Output is
    # exact, so the interpreter's int-to-str digit limit (Python 3.10.7 and
    # later) is lifted while the handler runs.  The flush at the end makes a
    # closed pipe raise here, not at interpreter exit.
    if extra:
        args.handler.args[0].error(f"unrecognized arguments: {' '.join(extra)}")
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if set_limit:
            set_limit(0)
        code = args.handler(args)
        sys.stdout.flush()
    except OSError as exc:
        # The reader closed the pipe (`spreadpoly triangle 300 | head`), or
        # output could not be written (`spreadpoly gen Z 3 > /dev/full`).
        # Point stdout at the null device, so the interpreter's last flush
        # cannot raise again.  A closed pipe exits as a process killed by
        # SIGPIPE would; any other error is one line on stderr and EX_IOERR.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"spreadpoly: {exc}", file=sys.stderr)
        return 74
    finally:
        if set_limit:
            set_limit(old)
    return code


if __name__ == "__main__":
    sys.exit(main())
