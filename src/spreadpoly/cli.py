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

Each subcommand's arguments are declared once, in ``_SUBCOMMANDS``.  A call
whose argv is the ordinary success form (positionals and exact ``--flag
value`` pairs that convert) is decoded from that table without building any
argparse parser; every other argv, and every usage error, goes through the
one full parser of ``build_parser()``, so argparse alone writes help, usage
and error text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NoReturn

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


def _usage_error(command: str, message: str) -> NoReturn:
    """Exit 2 with `message` under the usage line of `command`, written by
    that subcommand's parser in build_parser(), which is built only now: the
    decoded path builds none until it is needed."""
    build_parser().commands[command].error(message)


def _cmd_gen(args: argparse.Namespace) -> int:
    methods, builder, _ = _FAMILIES[args.family]
    if args.method is not None and args.method not in methods:
        if methods:
            _usage_error(
                args.command,
                f"family {args.family} accepts methods {', '.join(methods)}; got {args.method!r}",
            )
        _usage_error(args.command, f"family {args.family} has a single construction; drop --method")
    try:
        poly = builder(args.n, args.method)
    except ValueError as exc:  # an index the construction does not cover
        _usage_error(args.command, str(exc))
    if args.format == "json":
        print(_dump({"family": args.family, "n": args.n, "terms": _terms_json(poly)}))
    else:
        print(poly.render())
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
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


def _cmd_eval(args: argparse.Namespace) -> int:
    _, _, evaluator = _FAMILIES[args.family]
    bivariate = args.family in _BIVARIATE
    if bivariate and args.s0 is None:
        _usage_error(args.command, f"family {args.family} is bivariate; supply both x0 and s0")
    if not bivariate and args.s0 is not None:
        _usage_error(args.command, f"family {args.family} is univariate; supply x0 only")
    bits = point_bits_bound(args.n, args.x0, args.s0 or 0)
    if bits > _EVAL_MAX_BITS:
        _usage_error(
            args.command,
            f"{args.family}({args.n}) at this point may need up to {bits} bits, "
            f"above the limit of {_EVAL_MAX_BITS}",
        )
    print(evaluator(args.n, args.x0, args.s0))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    coeffs = expand(gf_of(args.kind), args.n)
    if args.format == "json":
        print(_dump([_terms_json(p) for p in coeffs]))
    else:
        for p in coeffs:
            print(p.render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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

# A word of '-' and a digit is a value, not an option flag (no option starts
# with a digit), so every negative literal reaches _rational.  _Parser and
# _decode both read values by this one rule.
_NEGATIVE_NUMBER = re.compile(r"^-\d")


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # set by build_parser()

    # The stock negative-number matcher is assigned per instance, hence the
    # override.
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._negative_number_matcher = _NEGATIVE_NUMBER


_FORMATS = ("text", "json")

# Subcommand -> (help line, handler, arguments).  Each argument is declared
# once, as its name or flag and the keywords of add_argument; both
# build_parser() and _decode read it from here.
_SUBCOMMANDS: dict[
    str,
    tuple[str, Callable[[argparse.Namespace], int], tuple[tuple[str, dict[str, object]], ...]],
] = {
    "gen": (
        "generate one polynomial",
        _cmd_gen,
        (
            ("family", {"choices": sorted(_FAMILIES)}),
            ("n", {"type": _nonneg}),
            ("--method", {"default": None}),
            ("--format", {"choices": _FORMATS, "default": "text"}),
        ),
    ),
    "triangle": (
        "coefficient triangle rows 1..N",
        _cmd_triangle,
        (
            ("n", {"metavar": "N", "type": _positive}),
            ("--format", {"choices": (*_FORMATS, "csv"), "default": "text"}),
        ),
    ),
    "eval": (
        "evaluate a family member at an exact rational point",
        _cmd_eval,
        (
            ("family", {"choices": sorted(_FAMILIES)}),
            ("n", {"type": _nonneg}),
            ("x0", {"type": _rational}),
            ("s0", {"type": _rational, "nargs": "?", "default": None}),
        ),
    ),
    "series": (
        "generating-function expansion",
        _cmd_series,
        (
            ("kind", {"choices": GF_KINDS}),
            ("n", {"metavar": "N", "type": _nonneg}),
            ("--format", {"choices": _FORMATS, "default": "text"}),
        ),
    ),
    "verify": (
        "run cross-validation suites",
        _cmd_verify,
        (
            ("suite", {"choices": ("all", *verify.SUITES)}),
            ("--max-n", {"dest": "max_n", "type": _positive, "default": 50}),
        ),
    ),
}


def build_parser() -> _Parser:
    """The whole command line: the top-level parser and every subcommand's,
    which it keeps by name in ``commands``."""
    parser = _Parser(
        prog="spreadpoly",
        description="Exact spread / Fibonacci / Lucas polynomial toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, handler, arguments) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)  # type: ignore[arg-type]
        command.set_defaults(handler=handler)
    parser.commands = sub.choices
    return parser


def _decode(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace that the parser of `command` makes of `tokens`, built
    without argparse, or None where the decoder leaves `tokens` to argparse.

    It accepts positionals and exact ``--flag value`` pairs in any order,
    with the declared converters and choices.  It returns None, and never
    prints or raises, on anything else: -h, --, a bare -, an unknown,
    abbreviated, =-joined or repeated flag, a flag with no value or with a
    value that starts with -, a converter or choice failure, and a wrong
    number of positionals.  An optional (nargs="?") positional is filled in
    order, as argparse fills it when no flag splits the positionals; eval,
    the one subcommand that has one, has no flags."""
    _, handler, arguments = _SUBCOMMANDS[command]
    flags: dict[str, str] = {}
    words: list[str] = []
    stream = iter(tokens)
    for token in stream:
        if token[:1] != "-" or _NEGATIVE_NUMBER.match(token):
            words.append(token)
            continue
        value = next(stream, "-")  # a missing value defers as one that starts with -
        if token in flags or value[:1] == "-":
            return None
        flags[token] = value
    positionals = iter(words)
    args = argparse.Namespace(command=command, handler=handler)
    for name, keywords in arguments:
        if name[0] == "-":
            text = flags.pop(name, None)
            dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
        else:
            text = next(positionals, None)
            dest = name
            if text is None and keywords.get("nargs") != "?":
                return None
        if text is None:
            value = keywords.get("default")
        else:
            convert = keywords.get("type")
            try:
                value = convert(text) if convert else text  # type: ignore[operator]
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            choices = keywords.get("choices")
            if choices is not None and value not in choices:  # type: ignore[operator]
                return None
        setattr(args, dest, value)
    if flags or next(positionals, None) is not None:
        return None
    return args


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """Parse argv, building no parser for the ordinary success form of a
    subcommand (see _decode); any other argv goes through build_parser()."""
    if argv and argv[0] in _SUBCOMMANDS:
        args = _decode(argv[0], argv[1:])
        if args is not None:
            return args, []
    return build_parser().parse_known_args(argv)


def main(argv: list[str] | None = None) -> int:
    args, extra = _parse(sys.argv[1:] if argv is None else argv)
    # A usage error that a handler raises prints its subcommand's usage line;
    # so do extra arguments.  Output is exact, so the interpreter's int-to-str
    # digit limit (Python 3.10.7 and later) is lifted while the handler runs.
    # The flush at the end makes a closed pipe raise here, not at interpreter
    # exit.
    if extra:
        _usage_error(args.command, f"unrecognized arguments: {' '.join(extra)}")
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
