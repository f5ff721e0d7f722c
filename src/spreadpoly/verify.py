"""The verification suites: every cross-validation check swept over n.

Each suite runs its checks for n up to a bound and gathers the results into
a SuiteReport; ``SUITES`` maps every suite name to its sweep, in the order
``spreadpoly verify all`` runs them.  Printing and exit codes are left to
the caller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .fixtures import a156308_rows
from .gf import expand, gf_of
from .identities import (
    _TRIG_SAMPLES,
    _TRIG_TOL,
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
from .poly import BiPoly
from .sequences import (
    Z_METHODS,
    ZX_METHODS,
    _fib_list,
    _lucas_list,
    _z_list,
    coefficient_c,
    fibonacci,
    fibonacci_at,
    lucas,
    lucas_at,
    spread_z_univariate,
    triangle,
    z_at,
    z_polynomial,
)
from .surd import binet_fibonacci, binet_lucas, binet_z, check_root_relations

__all__ = ["SuiteReport", "SUITES"]

# Doubles lose the trigonometric property past this degree (the coefficients
# reach ~1e7 and the evaluation cancels catastrophically), so the float suite
# never sweeps beyond it.
_TRIG_MAX_N = 20

_BINET_POINTS = 25
_BINET_SEED = 1105
_BINET_BOUND = 20


@dataclass(frozen=True)
class SuiteReport:
    """One suite's outcome: its name, the range it swept, the number of checks
    run, and every failing result with its witness."""

    name: str
    detail: str
    total: int
    failures: tuple[CheckResult, ...]

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _collect(name: str, detail: str, results: Iterable[CheckResult]) -> SuiteReport:
    results = list(results)
    return SuiteReport(name, detail, len(results), tuple(r for r in results if not r.passed))


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
        # Z by its recurrence, which never reads the triangle: the closed
        # route is built from c(n, k) itself and could not disagree with it.
        z = _z_list(max_n)
        for n in range(1, max_n + 1):
            yield check_coefficient_forms(n)
            extracted = BiPoly(
                {(k, n - k): coefficient_c(n, k) for k in range(1, n + 1)}
            )
            yield compare_polynomials("coefficients_match_z", f"n={n}", n, extracted, z[n])
        fixture = a156308_rows()
        computed = triangle(min(max_n, len(fixture)))
        for i, row in enumerate(computed.rows, start=1):
            expected = tuple(fixture[i - 1])
            if row == expected:
                yield CheckResult("a156308_fixture", f"row {i}")
            else:
                yield failure("a156308_fixture", f"row {i}", i, str(list(row)), str(fixture[i - 1]))

    return _collect("coefficients", f"n=1..{max_n} + fixture rows", run())


def _suite_trig(max_n: int) -> SuiteReport:
    cap = min(max_n, _TRIG_MAX_N)
    # The report reads "tol 1e-9", without the zero-padded exponent of :g.
    tol = f"{_TRIG_TOL:g}".replace("e-0", "e-")
    return _collect(
        "trig",
        f"n=1..{cap} (float check capped at {_TRIG_MAX_N}), {_TRIG_SAMPLES} samples, tol {tol}",
        (check_trig(n) for n in range(1, cap + 1)),
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
        # Three routes per value: the closed form in Q(sqrt d), the polynomial
        # from its recurrence ladder (built once for the sweep), evaluated, and
        # the doubling kernel, which builds no polynomial.
        fib, luc, z = _fib_list(max_n), _lucas_list(max_n), _z_list(max_n)
        for n in range(max_n + 1):
            for x0, s0 in points:
                binet = (binet_fibonacci(n, x0, s0), binet_lucas(n, x0, s0))
                evaluated = (fib[n].evaluate(x0, s0), luc[n].evaluate(x0, s0))
                doubled = (fibonacci_at(n, x0, s0), lucas_at(n, x0, s0))
                if binet == evaluated == doubled:
                    yield CheckResult("binet_fib_lucas", f"n={n} at ({x0},{s0})")
                else:
                    yield failure(
                        "binet_fib_lucas",
                        f"n={n} at ({x0},{s0})",
                        n,
                        f"binet F={binet[0]}, L={binet[1]}",
                        f"evaluated F={evaluated[0]}, L={evaluated[1]}; "
                        f"doubling F={doubled[0]}, L={doubled[1]}",
                    )
            for q, s in _binet_grid():
                got = binet_z(n, q, s)
                evaluated_z = z[n].evaluate(q * q, s)
                doubled_z = z_at(n, q * q, s)
                if got == evaluated_z == doubled_z:
                    yield CheckResult("binet_z", f"n={n} at (q={q},s={s})")
                else:
                    yield failure(
                        "binet_z",
                        f"n={n} at (q={q},s={s})",
                        n,
                        f"binet {got}",
                        f"evaluated {evaluated_z}; doubling {doubled_z}",
                    )
        for q, s in _binet_grid():
            yield check_root_relations(q, s)

    return _collect("binet", f"n=0..{max_n}, random + grid points", run())


def _suite_gf(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        fib, luc, z = _fib_list(max_n), _lucas_list(max_n), _z_list(max_n)
        fib_series = expand(gf_of("fibonacci"), max_n)
        lucas_series = expand(gf_of("lucas"), max_n)
        for n in range(max_n + 1):
            yield compare_polynomials("gf_fibonacci", f"n={n}", n, fib_series[n], fib[n])
            yield compare_polynomials("gf_lucas", f"n={n}", n, lucas_series[n], luc[n])
        if max_n >= 1:
            z_series = expand(gf_of("z_shifted"), max_n - 1)
            for n in range(max_n):
                yield compare_polynomials("gf_z_shifted", f"n={n}", n, z_series[n], z[n + 1])

    return _collect("gf", f"series coefficients 0..{max_n}", run())


# Every suite by name, in the order ``verify all`` runs them.  The per-n
# suites name their check inside a lambda, so the check is looked up in this
# module when the suite runs and a patched check_* takes effect.
SUITES: dict[str, Callable[[int], SuiteReport]] = {
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
