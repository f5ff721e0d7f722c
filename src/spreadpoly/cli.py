"""Command-line interface.

Subcommands: ``gen`` (one polynomial), ``triangle`` (coefficient rows),
``eval`` (exact value at a rational point), ``series`` (generating-function
expansion), and ``verify`` (runs the cross-validation suites of
``spreadpoly.verify``).

Exit codes are a stable contract: 0 for success / all checks passing, 1 when
a verification suite fails, 2 for usage errors.  All output is deterministic;
JSON coefficients are decimal strings because triangle entries outgrow 64-bit
integers quickly.
"""

from __future__ import annotations

import argparse
import functools
import json
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


def _nonneg(text: str) -> int:
    try:
        value = _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


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
        width = max(len(str(v)) for row in tri.rows for v in row)
        for row in tri.rows:
            print("  ".join(f"{v:>{width}}" for v in row))
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
    # Teach argparse that -p/q and -n are values, not option flags, so
    # negative rational literals work as positionals for eval.  The stock
    # matcher is assigned per instance, hence the override here.
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadpoly",
        description="Exact spread / Fibonacci / Lucas polynomial toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate one polynomial")
    gen.add_argument("family", choices=sorted(_FAMILIES))
    gen.add_argument("n", type=_nonneg)
    gen.add_argument("--method", default=None)
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.set_defaults(handler=functools.partial(_cmd_gen, gen))

    tri = sub.add_parser("triangle", help="coefficient triangle rows 1..N")
    tri.add_argument("n", metavar="N", type=_positive)
    tri.add_argument("--format", choices=("text", "json", "csv"), default="text")
    tri.set_defaults(handler=functools.partial(_cmd_triangle, tri))

    ev = sub.add_parser("eval", help="evaluate a family member at an exact rational point")
    ev.add_argument("family", choices=sorted(_FAMILIES))
    ev.add_argument("n", type=_nonneg)
    ev.add_argument("x0", type=_rational)
    ev.add_argument("s0", type=_rational, nargs="?", default=None)
    ev.set_defaults(handler=functools.partial(_cmd_eval, ev))

    ser = sub.add_parser("series", help="generating-function expansion")
    ser.add_argument("kind", choices=GF_KINDS)
    ser.add_argument("n", metavar="N", type=_nonneg)
    ser.add_argument("--format", choices=("text", "json"), default="text")
    ser.set_defaults(handler=functools.partial(_cmd_series, ser))

    ver = sub.add_parser("verify", help="run cross-validation suites")
    ver.add_argument("suite", choices=["all"] + list(verify.SUITES))
    ver.add_argument("--max-n", dest="max_n", type=_positive, default=50)
    ver.set_defaults(handler=functools.partial(_cmd_verify, ver))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each handler is bound to its own subparser, so a usage error it raises
    # prints that subcommand's usage line.  Output is exact, so the
    # interpreter's int-to-str digit limit (Python 3.10.7 and later) is
    # lifted while the handler runs.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return args.handler(args)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return args.handler(args)
    finally:
        set_limit(old)


if __name__ == "__main__":
    sys.exit(main())
