"""The verification suites: every cross-validation check swept over n.

Each suite runs its checks for n up to a bound and gathers the results into
a SuiteReport; ``SUITES`` maps every suite name to its sweep, in the order
``spreadpoly verify all`` runs them.  Printing and exit codes are left to
the caller.

A sweep runs each route's ladder once, for n = 0..max_n, and hands every
check the members it streamed (``sequences._stream``), so a sweep to N takes
O(N) ladder steps.  A stream runs the same packed ladder as the route's
single-n builder, the code ``gen`` runs, at the slot width of the largest
index the sweep reads: max_n, max_n + 1 for the Cassini checks' a(n + 1),
2 max_n for ``doubling``, which reads l(n) and l(2n) from one list of the
``l`` stream, and 2 max_n + 1 for ``lucas_binomial``.
The four bivariate suites (Cassini and binomial) read members by index, from
a list of the F, L or Z ``recurrence`` stream (``_fib_list``,
``_lucas_list``, ``_z_list``), so every suite checks the members ``gen``
builds.  Every route has a stream of its own, started from its own seeds:
two routes never share a generator, which keeps their agreement a
cross-validation.  Each bivariate sweep packs its list once (``_pack``), at
the width that its last check's bound fits, and hands that same packing to
every check; a check whose own bound does not fit that width repacks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, repeat
from typing import Callable, Iterable, NamedTuple

from .fixtures import a156308_rows
from .gf import expand, gf_of
from .identities import (
    _TRIG_SAMPLES,
    _TRIG_TOL,
    WITNESS_TERM_LIMIT,
    CheckResult,
    _cassini_bound,
    _lucas_binomial_bound,
    _pack,
    _z_binomial_bound,
    _z_cassini_bound,
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
from .poly import _index, _scaled_powers
from .sequences import (
    FIBONACCI_METHODS,
    LUCAS_METHODS,
    Z_METHODS,
    ZX_METHODS,
    _doubling,
    _fib_list,
    _integral_point,
    _lucas_list,
    _stream,
    _z_list,
    fibonacci,
    lucas,
    spread_z_univariate,
    triangle,
    z_at,
    z_polynomial,
)
from .surd import _binet, check_root_relations

__all__ = ["SuiteReport", "SUITES"]

# The float suite's stated scope (acceptance criterion 7 and its report
# line), not a numerical limit: each member is evaluated exactly at the
# double angle and rounded once, so no cancellation grows with n.
_TRIG_MAX_N = 20

_BINET_POINTS = 25
_BINET_SEED = 1105
_BINET_BOUND = 20


class SuiteReport(NamedTuple):
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


def _suite_each_n(
    name: str, check: Callable[[int, object], CheckResult], max_n: int, members: Iterable
) -> SuiteReport:
    """The suites that run one check per n = 1..max_n; ``members`` yields the
    members of n = 1, 2, ... that each check reads."""
    return _collect(name, f"n=1..{max_n}", map(check, range(1, max_n + 1), members))


def _from_one(*streams: Iterable) -> Iterable[tuple]:
    """The streams' members of n = 1, 2, ..., zipped."""
    return islice(zip(*streams), 1, None)


def _suite_lucas_binomial(max_n: int) -> SuiteReport:
    top = 2 * max_n + 1
    lucas_polys = _pack(
        _lucas_list(top),
        (1, 2),
        lambda sums: max(_lucas_binomial_bound(max_n, t, sums) for t in (top - 1, top)),
    )
    return _collect(
        "lucas_binomial",
        f"n=0..{max_n}, both parities",
        (
            check_lucas_binomial(n, parity, lucas_polys)
            for n in range(max_n + 1)
            for parity in ("even", "odd")
        ),
    )


def _suite_doubling(max_n: int) -> SuiteReport:
    # l(2n) and l(n) are two indices of one route, read from one list of its
    # stream, as the Cassini suites read theirs; the two Zx routes stream
    # on their own.
    l_members = list(islice(_stream(2 * max_n, "l"), 2 * max_n + 1))
    return _suite_each_n(
        "doubling",
        check_l_doubling,
        max_n,
        _from_one(
            l_members[::2],
            l_members,
            _stream(max_n, "zx", "via_l2n"),
            _stream(max_n, "zx", "via_l"),
        ),
    )


def _suite_coefficients(max_n: int) -> SuiteReport:
    def run() -> Iterable[CheckResult]:
        # The closed route, built from c(n, k), against Z by its recurrence,
        # which never reads the triangle.
        z = _z_list(max_n)
        for n in range(1, max_n + 1):
            yield check_coefficient_forms(n)
            closed = z_polynomial(n, "closed")
            yield compare_polynomials("coefficients_match_z", f"n={n}", n, closed, z[n])
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
        # Builders bound when the sweep runs, not at import, so a patched
        # builder is called.
        routes = [
            (family, build, [(method, _stream(max_n, family, method)) for method in methods])
            for family, build, methods in (
                ("z", z_polynomial, Z_METHODS),
                ("fibonacci", fibonacci, FIBONACCI_METHODS),
                ("lucas", lucas, LUCAS_METHODS),
                ("zx", spread_z_univariate, ZX_METHODS),
            )
        ]
        for n in range(max_n + 1):
            for family, build, streams in routes:
                members, refused = [], []
                for method, stream in streams:
                    # L(n) = F(n+1) + s F(n-1) needs n >= 1
                    if n or method != "from_fib":
                        try:
                            members.append((method, next(stream)))
                        except ArithmeticError as refusal:
                            refused.append((method, stream, refusal))
                base = members[0][1] if members else None
                # A member that does not fit its slots fails its route, which
                # is read no further; the witness's other side is the first
                # member, or says that no route gave one.
                for method, stream, refusal in refused:
                    streams.remove((method, stream))
                    yield failure(
                        f"{family}:{method}", f"n={n}", n, f"refused: {refusal}",
                        "no route gave a member"
                        if base is None
                        else base.render(max_terms=WITNESS_TERM_LIMIT),
                    )
                if n == max_n:
                    # The streams run the ladders of the single-n builders
                    # that `gen` runs; the builders' own wiring must give the
                    # same last members.  Only a mismatch adds a result.
                    for method, member in members:
                        built = build(n, method=method)
                        if member != built:
                            yield compare_polynomials(
                                f"{family}:{method}", f"n={n} builder", n, member, built
                            )
                for method, member in members[1:]:
                    yield compare_polynomials(f"{family}:{method}", f"n={n}", n, member, base)

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
        # Three routes per value, compared as integers: the closed form, as the
        # parts (P, Q) of (X + sqrt D)^n at the integral point (X, S) =
        # (lam x0, lam^2 s0); the doubling kernel at (X, S); and the ladder
        # polynomial (built once for the sweep) as a term sum at (x0, s0)
        # itself, over the denominator `den` of its power tables.  So
        # F(n) = 2 Q lam / (2 lam)^n = F(n)(X, S) lam / lam^n = sum / den and
        # L(n) = 2 P / (2 lam)^n = L(n)(X, S) / lam^n = sum / den.  Whatever
        # depends on the point alone is built once per sweep.
        fib, luc, z = _fib_list(max_n), _lucas_list(max_n), _z_list(max_n)
        degrees = range(max_n + 1)
        rational = []
        for x0, s0 in points:
            x, s, lam = _integral_point(x0, s0)
            (px, den_x), (ps, den_s) = _scaled_powers(x0, degrees), _scaled_powers(s0, degrees)
            rational.append((f"({x0},{s0})", x, s, lam, x * x + 4 * s, px, ps, den_x * den_s))
        grid = [
            (f"(q={q},s={s})", q, s, q * q + 4 * s,
             _scaled_powers(q * q, degrees)[0], _scaled_powers(s, degrees)[0])
            for q, s in _binet_grid()
        ]
        for n in degrees:
            for at, x, s, lam, big_d, px, ps, den in rational:
                p, q = _binet(n, x, big_d)
                f, l = _doubling(n, x, s)
                t_f, t_l = fib[n]._term_sum(px, ps), luc[n]._term_sum(px, ps)
                lam_n = lam**n
                if (
                    2 * p == l << n
                    and 2 * q == f << n
                    and t_l * lam_n == l * den
                    and t_f * lam_n == f * lam * den
                ):
                    yield CheckResult("binet_fib_lucas", f"n={n} at {at}")
                else:
                    scale = (2 * lam) ** n
                    yield failure(
                        "binet_fib_lucas",
                        f"n={n} at {at}",
                        n,
                        f"binet F={Fraction(2 * q * lam, scale)}, L={Fraction(2 * p, scale)}",
                        f"evaluated F={Fraction(t_f, den)}, L={Fraction(t_l, den)}; "
                        f"doubling F={Fraction(f * lam, lam_n)}, L={Fraction(l, lam_n)}",
                    )
            # The grid's points are integral: Z(n)(q^2, s) is the term sum,
            # and the closed form L(2n)(q, s) - 2 s^n is 2 P / 4^n - 2 s^n.
            for at, q, s, big_d, pq, ps in grid:
                p, _ = _binet(2 * n, q, big_d)
                evaluated_z = z[n]._term_sum(pq, ps)
                doubled_z = z_at(n, q * q, s)
                if 2 * p == (evaluated_z + 2 * ps[n]) << 2 * n and doubled_z == evaluated_z:
                    yield CheckResult("binet_z", f"n={n} at {at}")
                else:
                    yield failure(
                        "binet_z",
                        f"n={n} at {at}",
                        n,
                        f"binet {Fraction(2 * p, 4**n) - 2 * ps[n]}",
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


def _guarded(sweep: Callable[[int], SuiteReport]) -> Callable[[int], SuiteReport]:
    """``sweep``, run only for a max_n that is an int (never a bool) of at
    least 1, else ValueError."""
    return lambda max_n: sweep(_index(max_n, 1, "max_n"))


# Every suite by name, in the order ``verify all`` runs them.  The per-n
# suites name their check inside a lambda, so the check is looked up in this
# module when the suite runs and a patched check_* takes effect.  Each builds
# its members' streams when it runs, so no stream outlives its sweep.
SUITES: dict[str, Callable[[int], SuiteReport]] = {
    "cassini": lambda max_n: _suite_each_n(
        "cassini",
        check_cassini,
        max_n,
        repeat(_pack(_fib_list(max_n + 1), (1, 2), lambda sums: _cassini_bound(max_n, sums))),
    ),
    "z_cassini": lambda max_n: _suite_each_n(
        "z_cassini",
        check_z_cassini,
        max_n,
        repeat(_pack(_z_list(max_n + 1), (1, 1), lambda sums: _z_cassini_bound(max_n, sums))),
    ),
    "lucas_binomial": _suite_lucas_binomial,
    "z_binomial": lambda max_n: _suite_each_n(
        "z_binomial",
        check_z_binomial,
        max_n,
        repeat(_pack(_z_list(max_n), (1, 1), lambda sums: _z_binomial_bound(max_n, sums))),
    ),
    "symmetry": lambda max_n: _suite_each_n(
        "symmetry",
        check_symmetry,
        max_n,
        _from_one(_stream(max_n, "zx", "via_l"), _stream(max_n, "z")),
    ),
    "coefficients": _suite_coefficients,
    "trig": _suite_trig,
    "chebyshev": lambda max_n: _suite_each_n(
        "chebyshev",
        check_chebyshev_bala,
        max_n,
        _from_one(
            _stream(max_n, "t"),
            _stream(max_n, "l"),
            _stream(max_n, "zx", "via_l"),
            _stream(max_n, "z"),
        ),
    ),
    "doubling": _suite_doubling,
    "cross_method": _suite_cross_method,
    "binet": _suite_binet,
    "gf": _suite_gf,
}

# One guard on max_n, shared by every sweep, in this same dict.
SUITES.update({name: _guarded(sweep) for name, sweep in SUITES.items()})
