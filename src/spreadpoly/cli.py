"""Command-line interface.

Subcommands: ``gen`` (one polynomial), ``triangle`` (coefficient rows),
``eval`` (exact value at a rational point), ``series`` (generating-function
expansion), and ``verify`` (the cross-validation suites).

Exit codes are a stable contract: 0 for success / all checks passing, 1 when
a verification suite fails, 2 for usage errors.  All output is deterministic;
JSON coefficients are decimal strings because triangle entries outgrow 64-bit
integers quickly.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .fixtures import a156308_rows
from .gf import GF_KINDS, expand, gf_of
from .identities import (
    CheckResult,
    check_cassini,
    check_chebyshev_bala,
    check_coefficient_forms,
    check_l_doubling,
    check_lucas_binomial,
    check_symmetry,
    check_trig,
    check_z_binomial,
    check_z_cassini,
    compare_polynomials,
    failure,
)
from .poly import BiPoly, UniPoly
from .sequences import (
    FIBONACCI_METHODS,
    LUCAS_METHODS,
    Z_METHODS,
    ZX_METHODS,
    chebyshev_t,
    chebyshev_t_at,
    coefficient_c,
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
from .surd import binet_fibonacci, binet_lucas, binet_z, check_root_relations

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

# Doubles lose the trigonometric property past this degree (the coefficients
# reach ~1e7 and the evaluation cancels catastrophically), so the float suite
# never sweeps beyond it.
_TRIG_MAX_N = 20

_BINET_POINTS = 25
_BINET_SEED = 1105
_BINET_BOUND = 20


def _nonneg(text: str) -> int:
    try:
        value = int(text)
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
            return Fraction(int(head), int(tail))
        return Fraction(int(head))
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
    if args.format == "csv":
        parser.error("csv output is only available for the triangle subcommand")
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
    _print_exact(evaluator(args.n, args.x0, args.s0))
    return 0


def _print_exact(value: Fraction) -> None:
    """Print every digit, lifting the interpreter's int-to-str digit limit
    (Python 3.10.7 and later) for this one call only."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        print(value)
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        print(value)
    finally:
        set_limit(old)


def _cmd_series(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.format == "csv":
        parser.error("csv output is only available for the triangle subcommand")
    coeffs = expand(gf_of(args.kind), args.n)
    if args.format == "json":
        print(_dump([_terms_json(p) for p in coeffs]))
    else:
        for p in coeffs:
            print(p.render())
    return 0


# -- verification suites ---------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    name: str
    detail: str
    passed: int
    total: int
    failures: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.total


def _collect(name: str, detail: str, results: Iterable[CheckResult]) -> SuiteReport:
    results = list(results)
    bad = tuple(r for r in results if not r.passed)
    return SuiteReport(
        name=name,
        detail=detail,
        passed=len(results) - len(bad),
        total=len(results),
        failures=bad,
    )


def _suite_each_n(name: str, check: Callable[[int], CheckResult], max_n: int) -> SuiteReport:
    """The suites that run one check per n = 1..max_n."""
    return _collect(name, f"n=1..{max_n}", (check(n) for n in range(1, max_n + 1)))


def _suite_lucas_binomial(max_n: int) -> SuiteReport:
    return _collect(
        "lucas_binomial",
        f"n=0..{max_n}, both parities",
        (
            check_lucas_binomial(n, parity)
            for n in range(max_n + 1)
            for parity in ("even", "odd")
        ),
    )


def _suite_coefficients(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        for n in range(1, max_n + 1):
            yield check_coefficient_forms(n)
            z = z_polynomial(n, method="closed")
            extracted = BiPoly(
                {(k, n - k): coefficient_c(n, k) for k in range(1, n + 1)}
            )
            yield compare_polynomials("coefficients_match_z", f"n={n}", n, extracted, z)
        fixture = a156308_rows()
        computed = triangle(min(max_n, len(fixture)))
        for i, row in enumerate(computed.rows, start=1):
            expected = tuple(fixture[i - 1])
            if row == expected:
                yield CheckResult("a156308_fixture", f"row {i}", True, None)
            else:
                yield failure("a156308_fixture", f"row {i}", i, str(list(row)), str(fixture[i - 1]))

    return _collect("coefficients", f"n=1..{max_n} + fixture rows", run())


def _suite_trig(max_n: int) -> SuiteReport:
    cap = min(max_n, _TRIG_MAX_N)
    return _collect(
        "trig",
        f"n=1..{cap} (float check capped at {_TRIG_MAX_N}), 100 samples, tol 1e-9",
        (check_trig(n, num_samples=100, tol=1e-9) for n in range(1, cap + 1)),
    )


def _suite_cross_method(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        for n in range(max_n + 1):
            base = z_polynomial(n, method="recurrence")
            for method in Z_METHODS[1:]:
                yield compare_polynomials(
                    f"z:{method}", f"n={n}", n, z_polynomial(n, method=method), base
                )
            fib = fibonacci(n, method="recurrence")
            yield compare_polynomials(
                "fibonacci:closed", f"n={n}", n, fibonacci(n, method="closed"), fib
            )
            luc = lucas(n, method="recurrence")
            yield compare_polynomials(
                "lucas:closed", f"n={n}", n, lucas(n, method="closed"), luc
            )
            if n >= 1:
                yield compare_polynomials(
                    "lucas:from_fib", f"n={n}", n, lucas(n, method="from_fib"), luc
                )
            zx = spread_z_univariate(n, method="via_l")
            for method in ZX_METHODS[1:]:
                yield compare_polynomials(
                    f"zx:{method}",
                    f"n={n}",
                    n,
                    spread_z_univariate(n, method=method),
                    zx,
                )

    return _collect("cross_method", f"n=0..{max_n}, all constructions", run())


def _binet_grid() -> list[tuple[int, int]]:
    return [
        (q, s)
        for q in (0, 1, 2, 3)
        for s in range(-3, 4)
        if q * q + 4 * s != 0
    ]


def _suite_binet(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        rng = random.Random(_BINET_SEED)
        points = []
        while len(points) < _BINET_POINTS:
            x0 = Fraction(
                rng.randint(-_BINET_BOUND, _BINET_BOUND), rng.randint(1, _BINET_BOUND)
            )
            s0 = Fraction(
                rng.randint(-_BINET_BOUND, _BINET_BOUND), rng.randint(1, _BINET_BOUND)
            )
            if x0 * x0 + 4 * s0 != 0:
                points.append((x0, s0))
        for n in range(max_n + 1):
            fib = fibonacci(n, method="recurrence")
            luc = lucas(n, method="recurrence")
            for x0, s0 in points:
                ok_f = binet_fibonacci(n, x0, s0) == fib.evaluate(x0, s0)
                ok_l = binet_lucas(n, x0, s0) == luc.evaluate(x0, s0)
                if ok_f and ok_l:
                    yield CheckResult("binet_fib_lucas", f"n={n} at ({x0},{s0})", True, None)
                else:
                    yield failure(
                        "binet_fib_lucas",
                        f"n={n} at ({x0},{s0})",
                        n,
                        f"binet F={binet_fibonacci(n, x0, s0)}, L={binet_lucas(n, x0, s0)}",
                        f"evaluated F={fib.evaluate(x0, s0)}, L={luc.evaluate(x0, s0)}",
                    )
            z = z_polynomial(n, method="recurrence")
            for q, s in _binet_grid():
                expected = z.evaluate(q * q, s)
                got = binet_z(n, q, s)
                if got == expected:
                    yield CheckResult("binet_z", f"n={n} at (q={q},s={s})", True, None)
                else:
                    yield failure(
                        "binet_z", f"n={n} at (q={q},s={s})", n, str(got), str(expected)
                    )
        for q, s in _binet_grid():
            yield check_root_relations(q, s)

    return _collect("binet", f"n=0..{max_n}, random + grid points", run())


def _suite_gf(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        fib_series = expand(gf_of("fibonacci"), max_n)
        lucas_series = expand(gf_of("lucas"), max_n)
        for n in range(max_n + 1):
            yield compare_polynomials(
                "gf_fibonacci", f"n={n}", n, fib_series[n], fibonacci(n, method="recurrence")
            )
            yield compare_polynomials(
                "gf_lucas", f"n={n}", n, lucas_series[n], lucas(n, method="recurrence")
            )
        if max_n >= 1:
            z_series = expand(gf_of("z_shifted"), max_n - 1)
            for n in range(max_n):
                yield compare_polynomials(
                    "gf_z_shifted",
                    f"n={n}",
                    n,
                    z_series[n],
                    z_polynomial(n + 1, method="recurrence"),
                )

    return _collect("gf", f"series coefficients 0..{max_n}", run())


# The per-n suites name their check inside a lambda, so the check is looked
# up in this module when the suite runs and a patched check_* takes effect.
_SUITES: dict[str, Callable[[int], SuiteReport]] = {
    "cassini": lambda max_n: _suite_each_n("cassini", check_cassini, max_n),
    "z_cassini": lambda max_n: _suite_each_n("z_cassini", check_z_cassini, max_n),
    "lucas_binomial": _suite_lucas_binomial,
    "z_binomial": lambda max_n: _suite_each_n("z_binomial", check_z_binomial, max_n),
    "symmetry": lambda max_n: _suite_each_n("symmetry", check_symmetry, max_n),
    "coefficients": _suite_coefficients,
    "trig": _suite_trig,
    "chebyshev": lambda max_n: _suite_each_n("chebyshev", check_chebyshev_bala, max_n),
    "doubling": lambda max_n: _suite_each_n("doubling", check_l_doubling, max_n),
    "cross_method": _suite_cross_method,
    "binet": _suite_binet,
    "gf": _suite_gf,
}


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = [_SUITES[name](args.max_n) for name in names]
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
    gen.add_argument("--format", choices=("text", "json", "csv"), default="text")
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
    ser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ser.set_defaults(handler=functools.partial(_cmd_series, ser))

    ver = sub.add_parser("verify", help="run cross-validation suites")
    ver.add_argument("suite", choices=["all"] + list(_SUITES))
    ver.add_argument("--max-n", dest="max_n", type=_positive, default=50)
    ver.set_defaults(handler=functools.partial(_cmd_verify, ver))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each handler is bound to its own subparser, so a usage error it raises
    # prints that subcommand's usage line.
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
