"""Tests for the polynomial family constructors and the coefficient triangle."""

import contextlib
import functools
import io
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadpoly import (
    BiPoly,
    UniPoly,
    FIBONACCI_METHODS,
    LUCAS_METHODS,
    Z_METHODS,
    ZX_METHODS,
    chebyshev_t,
    coefficient_c,
    fibonacci,
    lucas,
    spread_z_univariate,
    triangle,
    univariate_l,
    wildberger_spread,
    z_polynomial,
)
from spreadpoly import poly, rows, sequences, verify
from spreadpoly import points as point_values
from spreadpoly.cli import _BIVARIATE, _FAMILIES, main
from spreadpoly.fixtures import a156308_rows
from spreadpoly.sequences import (
    Triangle,
    _fib_list,
    _lucas_list,
    _stream,
    _z_list,
    chebyshev_t_at,
    fibonacci_at,
    lucas_at,
    point_bits_bound,
)
from spreadpoly.surd import QuadExt

# First bivariate spread polynomials, typed out by hand.
Z_FIRST = [
    BiPoly.zero(),
    BiPoly({(1, 0): 1}),
    BiPoly({(1, 1): 4, (2, 0): 1}),
    BiPoly({(1, 2): 9, (2, 1): 6, (3, 0): 1}),
    BiPoly({(1, 3): 16, (2, 2): 20, (3, 1): 8, (4, 0): 1}),
]

# First univariate normalized spread polynomials, typed out by hand.
ZX_FIRST = [
    UniPoly.zero(),
    UniPoly({1: 1}),
    UniPoly({1: 4, 2: -1}),
    UniPoly({1: 9, 2: -6, 3: 1}),
    UniPoly({1: 16, 2: -20, 3: 8, 4: -1}),
    UniPoly({1: 25, 2: -50, 3: 35, 4: -10, 5: 1}),
]

TRIANGLE_5 = (
    (1,),
    (4, 1),
    (9, 6, 1),
    (16, 20, 8, 1),
    (25, 50, 35, 10, 1),
)

# The single-n builders of the l, T and S ladders.  The public builders run
# the closed rows, so the tests of the ladders reach them here.
L_LADDER = functools.partial(sequences._built, "l", "recurrence")
T_LADDER = functools.partial(sequences._built, "t", "recurrence")
S_LADDER = functools.partial(sequences._built, "s", "via_l")


# -- Fibonacci / Lucas ---------------------------------------------------------


def test_fibonacci_base_cases():
    for method in ("recurrence", "closed"):
        assert fibonacci(0, method=method) == BiPoly.zero()
        assert fibonacci(1, method=method) == BiPoly.one()


def test_fibonacci_5():
    expected = BiPoly({(4, 0): 1, (2, 1): 3, (0, 2): 1})
    assert fibonacci(5, method="recurrence") == expected
    assert fibonacci(5, method="closed") == expected


def test_lucas_values():
    assert lucas(0) == BiPoly.constant(2)
    assert lucas(1) == BiPoly.x()
    assert lucas(2) == BiPoly({(2, 0): 1, (0, 1): 2})
    assert lucas(4, method="from_fib") == BiPoly({(4, 0): 1, (2, 1): 4, (0, 2): 2})


def test_lucas_from_fib_needs_positive_index():
    with pytest.raises(ValueError):
        lucas(0, method="from_fib")


def test_fib_lucas_methods_agree():
    for n in range(41):
        assert fibonacci(n, method="closed") == fibonacci(n, method="recurrence")
        expected = lucas(n, method="recurrence")
        assert lucas(n, method="closed") == expected
        if n >= 1:
            assert lucas(n, method="from_fib") == expected


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        fibonacci(3, method="binet")
    with pytest.raises(ValueError):
        z_polynomial(3, method="magic")
    with pytest.raises(ValueError):
        fibonacci(-1)


# -- bivariate spread polynomials ------------------------------------------------


def test_z_first_terms():
    for n, expected in enumerate(Z_FIRST):
        for method in Z_METHODS:
            assert z_polynomial(n, method=method) == expected, (n, method)


def test_z_via_fib_n1():
    assert z_polynomial(1, method="via_fib") == BiPoly.x()


def test_z_methods_agree_midrange():
    for n in range(31):
        base = z_polynomial(n, method="recurrence")
        for method in Z_METHODS[1:]:
            assert z_polynomial(n, method=method) == base, (n, method)


def test_z_divisible_by_x_and_no_constant():
    for n, z in enumerate(_z_list(200)):
        if n == 0:
            continue
        assert all(dx >= 1 for (dx, _), _ in z.terms()), n


def test_homogeneity():
    for n in range(1, 101):
        assert z_polynomial(n).weighted_degree(1, 1) == (n, True)
        assert fibonacci(n).weighted_degree(1, 2) == (n - 1, True)
        assert lucas(n).weighted_degree(1, 2) == (n, True)


# -- coefficient triangle ----------------------------------------------------------


def test_coefficient_c_examples():
    for form in ("ratio_binomial", "sum_binomials", "product"):
        assert coefficient_c(5, 3, form=form) == 35
        assert coefficient_c(4, 2, form=form) == 20
        assert coefficient_c(7, 7, form=form) == 1
    assert coefficient_c(3, 1, form="product") == 9


def test_coefficient_c_range_errors():
    for n, k in ((0, 0), (3, 0), (3, 4), (-1, 1)):
        with pytest.raises(ValueError):
            coefficient_c(n, k)


# Off-by-one mutations of the ratio_binomial and product forms: the exact
# division behind each must refuse, with an explicit raise that also holds
# under python -O.
OFF_BY_ONE = {
    "ratio_binomial": ("comb", lambda a, b: math.comb(a + 1, b), (4, 3)),
    "product": ("factorial", lambda m: math.factorial(m + 1), (3, 2)),
}


@pytest.mark.parametrize("form", sorted(OFF_BY_ONE))
def test_coefficient_c_off_by_one_raises(form, monkeypatch):
    name, mutant, (n, k) = OFF_BY_ONE[form]
    monkeypatch.setattr(sequences, name, mutant)
    with pytest.raises(ArithmeticError):
        coefficient_c(n, k, form=form)


def test_coefficient_forms_agree_and_match_z():
    for n in range(1, 41):
        z = z_polynomial(n)
        for k in range(1, n + 1):
            c = coefficient_c(n, k)
            assert coefficient_c(n, k, form="sum_binomials") == c
            assert coefficient_c(n, k, form="product") == c
            assert z.coefficient(k, n - k) == c


def test_c_row_is_the_per_entry_oracle():
    for n in range(1, 301):
        assert list(sequences._c_row(n)) == [coefficient_c(n, k) for k in range(1, n + 1)], n


def test_closed_rows_are_the_recurrence_members():
    # The row routes at the edges: F(0) = 0, L(0) = 2, Z(0) = 0, and the first
    # members typed out by hand.
    x, s = BiPoly.x(), BiPoly.s()
    assert fibonacci(0, "closed") == BiPoly.zero() and z_polynomial(0, "closed") == BiPoly.zero()
    assert lucas(0, "closed") == BiPoly.constant(2)
    assert [fibonacci(n, "closed") for n in (1, 2)] == [BiPoly.one(), x]
    assert [lucas(n, "closed") for n in (1, 2)] == [x, x * x + 2 * s]
    assert [z_polynomial(n, "closed") for n in (1, 2)] == [x, x * x + 4 * s * x]
    fib, luc, z = _fib_list(300), _lucas_list(300), _z_list(300)
    for n in range(301):
        assert fibonacci(n, "closed") == fib[n], n
        assert lucas(n, "closed") == luc[n], n
        assert z_polynomial(n, "closed") == z[n], n


def test_closed_rows_are_the_ladder_builders():
    # The rows that the public builders of l, T and S run, against the
    # single-n builders of the ladder routes, at every n of one block and at
    # the block boundaries of n = 400, 600 and 1000.
    for n in [*range(302), 399, 400, 401, 599, 600, 601, 1000]:
        assert univariate_l(n) == L_LADDER(n), n
        assert chebyshev_t(n) == T_LADDER(n), n
        assert wildberger_spread(n) == S_LADDER(n), n


# Every row route with one step's numerator off by one, so that step's
# division leaves a remainder.
ROW_BUILDS = {
    "fibonacci": lambda: fibonacci(12, "closed"),
    "lucas": lambda: lucas(12, "closed"),
    "z": lambda: z_polynomial(12, "closed"),
    "triangle": lambda: triangle(12),
    "l": lambda: univariate_l(12),
    "t": lambda: chebyshev_t(12),
    "s": lambda: wildberger_spread(12),
}


@pytest.mark.parametrize("route", sorted(ROW_BUILDS))
def test_an_inexact_row_step_raises(route, monkeypatch):
    # An explicit raise, not an assert: the next test checks it under python -O.
    with pytest.raises(ArithmeticError):
        list(rows._ratio_row(1, [(3, 2)]))
    ratio_row = rows._ratio_row

    def skewed(first, steps):
        return ratio_row(first, ((num + (i == 2), den) for i, (num, den) in enumerate(steps)))

    monkeypatch.setattr(rows, "_ratio_row", skewed)
    with pytest.raises(ArithmeticError):
        ROW_BUILDS[route]()


def test_an_inexact_row_step_raises_under_python_o():
    # Every row route divides in the one kernel, so its raise is checked once,
    # and then through the T and S rows, which step by negative ratios: with
    # one step's numerator off by one, each refuses, never returning a
    # polynomial.
    probe = (
        "from spreadpoly import chebyshev_t, rows, wildberger_spread\n"
        "assert False, 'asserts are not stripped'\n"
        "try:\n"
        "    list(rows._ratio_row(1, [(3, 2)]))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
        "ratio_row = rows._ratio_row\n"
        "rows._ratio_row = lambda first, steps: ratio_row(\n"
        "    first, ((num + (i == 2), den) for i, (num, den) in enumerate(steps))\n"
        ")\n"
        "for build in (chebyshev_t, wildberger_spread):\n"
        "    try:\n"
        "        build(12)\n"
        "    except ArithmeticError:\n"
        "        print('raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(poly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "raised\n" * 3, proc.stderr


def test_triangle_small():
    assert triangle(1).rows == ((1,),)
    assert triangle(2).rows == ((1,), (4, 1))
    assert triangle(5).rows == TRIANGLE_5


def test_triangle_row_invariants():
    tri = triangle(30)
    for n in range(1, 31):
        row = tri.row(n)
        assert len(row) == n
        assert row[-1] == 1
        assert row[0] == n * n


def test_triangle_validation():
    with pytest.raises(ValueError):
        triangle(0)
    with pytest.raises(ValueError):
        Triangle(rows=((1,), (4,)))
    with pytest.raises(ValueError, match=r"^row index 4 outside 1\.\.3$"):
        triangle(3).row(4)
    for n in (0, -1, 1.0, True):
        with pytest.raises(ValueError, match=r"^row index must be an integer >= 1, got "):
            triangle(3).row(n)


def test_triangle_replace_checks_its_rows():
    tri = triangle(2)
    assert tri._replace(rows=tri.rows[:1]) == triangle(1)
    with pytest.raises(ValueError, match=r"^row 2 must have 2 entries, has 1$"):
        tri._replace(rows=((1,), (4,)))


def test_triangle_matches_fixture():
    fixture = a156308_rows()
    assert len(fixture) == 10
    tri = triangle(10)
    for i, row in enumerate(fixture, start=1):
        assert tri.row(i) == tuple(row)


def test_triangle_past_the_fixture_against_sympy(monkeypatch):
    # The vendored fixture stops at row 10.  Rows 11-60 come from sympy's
    # Chebyshev T, which shares nothing with the row kernel: the spread
    # polynomial is S(n) = (1 - T_n(1 - 2x))/2, and c(n, k) is
    # (-1)^(k-1) [x^k] S(n) / 4^(k-1).
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expected = {}
    for n in range(11, 61):
        t_n = sympy.chebyshevt_poly(n, x, polys=True).compose(sympy.Poly(1 - 2 * x, x))
        spread = (1 - t_n) * sympy.Rational(1, 2)
        row = [
            (-1) ** (k - 1) * _from_sympy(spread.coeff_monomial(x**k)) / 4 ** (k - 1)
            for k in range(1, n + 1)
        ]
        assert all(c.denominator == 1 for c in row), n
        expected[n] = [int(c) for c in row]

    def mismatches():
        rows = triangle(60).rows
        assert [len(rows[n - 1]) for n in expected] == list(expected)
        return [
            (n, k)
            for n, row in expected.items()
            for k, c in enumerate(row, start=1)
            if rows[n - 1][k - 1] != c
        ]

    assert mismatches() == []
    # c(12, 5) off by one in the row kernel, where triangle() binds it, is
    # caught at that entry alone.
    c_row = sequences._c_row
    monkeypatch.setattr(
        sequences,
        "_c_row",
        lambda n: (c + ((n, k) == (12, 5)) for k, c in enumerate(c_row(n), start=1)),
    )
    assert mismatches() == [(12, 5)]


# -- univariate families -------------------------------------------------------------


def test_univariate_l_values():
    assert univariate_l(0) == UniPoly.constant(2)
    assert univariate_l(2) == UniPoly({2: 1, 0: -2})
    assert univariate_l(4) == UniPoly({4: 1, 2: -4, 0: 2})


def test_spread_z_univariate_first_terms():
    for n, expected in enumerate(ZX_FIRST):
        for method in ZX_METHODS:
            assert spread_z_univariate(n, method=method) == expected, (n, method)


def test_spread_z_univariate_methods_agree():
    for n in range(41):
        base = spread_z_univariate(n, method="via_l")
        for method in ZX_METHODS[1:]:
            assert spread_z_univariate(n, method=method) == base, (n, method)


def test_wildberger_spread_values():
    assert wildberger_spread(1) == UniPoly.x()
    assert wildberger_spread(2) == UniPoly({1: 4, 2: -4})
    assert wildberger_spread(3) == UniPoly({1: 9, 2: -24, 3: 16})


def test_wildberger_spread_non_integral_raises(monkeypatch):
    # The S ladder: S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4.  Off by one, the
    # value is no longer divisible by 4, and the check is an explicit raise,
    # so it holds under python -O.
    l_at = sequences._l_at
    monkeypatch.setattr(sequences, "_l_at", lambda *args: (value + 1 for value in l_at(*args)))
    with pytest.raises(ArithmeticError):
        S_LADDER(3)


def test_wildberger_spread_is_the_rescaled_polynomial():
    # The reference is Zx(n)(4x) / 4, with Zx(n) = 2 - l(n)(2 - x) built from
    # the polynomial l(n) by composition.
    for n in [*range(41), 100, 300]:
        zx = 2 - univariate_l(n).compose(UniPoly({1: -1, 0: 2}))
        assert wildberger_spread(n) == zx.compose(UniPoly({1: 4})).scale(Fraction(1, 4)), n


def test_wildberger_spread_width_bound_is_exact():
    for n in range(201):
        sizes = [abs(c) for _, c in wildberger_spread(n).terms()]
        assert sequences._s_bound(n) == sum(sizes), n


def polynomial_ladder(seeds, weights):
    """a(0), a(1), ... of a ladder run on dict polynomials with the ring's own
    product and sum, a(k) = w0 a(k-1) + w1 a(k-2) + ...: the oracle for the
    packed kernel, which shares none of its arithmetic."""
    window = list(seeds)
    yield from window
    while True:
        terms = [w * a for w, a in zip(weights, reversed(window))]
        window = [*window[1:], functools.reduce(operator.add, terms)]
        yield window[-1]


def test_substitution_formulas_are_the_builders():
    # The paper's substitutions, run with public ops on the members of the
    # defining ladders, themselves run on dict polynomials, not packed.  No
    # builder runs them: each folds its substitution into the point its
    # packed ladder runs at.
    x, s = BiPoly.x(), BiPoly.s()
    lift = x + 4 * s
    fib = list(islice(polynomial_ladder(*sequences._FIB), 101))
    luc = list(islice(polynomial_ladder(*sequences._LUCAS), 101))
    for n in [*range(41), 100]:
        flipped = BiPoly({(dx, ds): c * (-1) ** ds for (dx, ds), c in fib[n].terms()})
        z = x * (flipped * flipped).even_substitute(lift)  # x F(n)(u, -s)^2, u^2 -> x + 4s
        assert z == z_polynomial(n, "via_fib"), n
        square = (luc[n] * luc[n] if n % 2 else fib[n] * fib[n]).halve_degrees()
        assert (square if n % 2 else lift * square) == z_polynomial(n, "parity"), n
        zx = 2 - luc[n].substitute_s(-1).compose(UniPoly({1: -1, 0: 2}))  # 2 - l(n)(2 - x)
        assert zx == spread_z_univariate(n, "via_l"), n
        sign = (-1) ** ((n - 1) % 2)
        assert z.substitute_s(-1).scale(sign) == spread_z_univariate(n, "from_bivariate"), n
        assert zx.compose(UniPoly({1: 4})).scale(Fraction(1, 4)) == wildberger_spread(n), n


def test_digit_readers_are_the_compositions_they_replace():
    # l(n), Zx(n) via_l2n and Z(n) via_lucas read their terms straight from
    # the digits of packed L(n) or L(2n).  The oracle is the chain of
    # polynomial operations they once ran on L by its recurrence: s -> -1,
    # y^2 -> x, a constant or monomial subtracted, a sign.
    luc = _lucas_list(400)
    for n in range(201):
        sign = (-1) ** n
        assert L_LADDER(n) == luc[n].substitute_s(-1), n
        zx = (luc[2 * n].substitute_s(-1).halve_degrees() - 2 * sign).scale(-sign)
        assert spread_z_univariate(n, "via_l2n") == zx, n
        z = luc[2 * n].halve_degrees() - BiPoly.monomial(2, 0, n)
        assert z_polynomial(n, "via_lucas") == z, n


# Each digit reader's route, with k: it reads the digits of packed L(k n).
DIGIT_READERS = {("z", "via_lucas"): 2, ("zx", "via_l2n"): 2, ("l", "recurrence"): 1}


@pytest.mark.parametrize("route", sorted(DIGIT_READERS), ids=":".join)
def test_digit_readers_take_exactly_the_bound_and_slots_of_their_l_member(route):
    # The route's bound is the sum of the |coefficients| of L(k n), no more,
    # so its slots are no wider than they must be; and a value with a digit
    # one slot past the m // 2 + 1 s-slots of L(m) is refused, never read
    # with that digit dropped.
    _, _, bound, member = sequences._ROUTES[route]
    k = DIGIT_READERS[route]
    for n in range(41):
        luc = lucas(k * n)
        top = bound(n)
        assert top == sum(abs(c) for _, c in luc.terms()), n
        width = poly._slot_width(top)
        too_long = luc._packed(width) + (1 << width * (k * n // 2 + 1))
        with pytest.raises(ArithmeticError):
            member(too_long, width, top, n)


# Every member built from digits or from a row of ints, without the
# validating constructor.
DIGIT_BUILT = {
    "l": L_LADDER,
    "zx via_l2n": functools.partial(spread_z_univariate, method="via_l2n"),
    "z via_lucas": functools.partial(z_polynomial, method="via_lucas"),
    **{f"{name} closed": functools.partial(build, method="closed") for name, build in (
        ("fibonacci", fibonacci), ("lucas", lucas), ("z", z_polynomial)
    )},
    **{f"{name} recurrence": build for name, build in (
        ("fibonacci", fibonacci), ("lucas", lucas), ("z", z_polynomial), ("t", T_LADDER)
    )},
    "l closed": univariate_l,
    "t closed": chebyshev_t,
    "s closed": wildberger_spread,
}


@pytest.mark.parametrize("name", sorted(DIGIT_BUILT))
def test_members_built_from_digits_are_canonical(name):
    # int coefficients and no stored zero, or __eq__ and __hash__ break: at
    # n = 0, Zx via_l2n and Z via_lucas subtract 2 from the digit 2 of L(0).
    build = DIGIT_BUILT[name]
    for n in [*range(41), 200]:
        member = build(n)
        assert all(type(c) is int and c for c in member._terms.values()), (name, n)
        rebuilt = type(member)(dict(member.terms()))  # through the validating constructor
        assert member == rebuilt and hash(member) == hash(rebuilt), (name, n)
    assert spread_z_univariate(0, "via_l2n")._terms == z_polynomial(0, "via_lucas")._terms == {}
    assert hash(spread_z_univariate(0, "via_l2n")) == hash(z_polynomial(0, "via_lucas")) == hash(0)


def test_digit_readers_build_no_intermediate_polynomial(monkeypatch):
    # Streaming l, Zx via_l2n and Z via_lucas, and building F, L and Z
    # closed, runs no substitution and no validating constructor: each
    # member leaves its digits, or its row, in its final form.
    def run():
        streams = [("l",), ("zx", "via_l2n"), ("z", "via_lucas")]
        members = [list(islice(_stream(40, *route), 41)) for route in streams]
        builds = (fibonacci, lucas, z_polynomial)
        closed = [[build(n, "closed") for n in range(41)] for build in builds]
        return members + closed

    expected = run()
    called = []
    for cls, name in [
        (BiPoly, "substitute_s"),
        (poly._SparsePoly, "halve_degrees"),
        (BiPoly, "__init__"),
        (UniPoly, "__init__"),
    ]:
        original = getattr(cls, name)

        def spy(*args, original=original, label=f"{cls.__name__}.{name}", **kwargs):
            called.append(label)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    got = run()
    assert called == []
    BiPoly({(2, 0): 1}).substitute_s(-1).halve_degrees()  # the spies are live
    assert called == ["BiPoly.__init__", "BiPoly.substitute_s", "_SparsePoly.halve_degrees"]
    assert got == expected


def test_chebyshev_values():
    assert chebyshev_t(0) == UniPoly.one()
    assert chebyshev_t(1) == UniPoly.x()
    assert chebyshev_t(2) == UniPoly({2: 2, 0: -1})
    assert chebyshev_t(3) == UniPoly({3: 4, 1: -3})


# The tracemalloc peak of each recurrence route below, on Python 3.11.7.  When
# every builder kept its whole ladder until it returned, the peaks ran from
# 1,265,000 bytes (z via_fib and z parity) to 6,700,707 (chebyshev_t); streamed,
# they run from 65,264 (z parity) to 171,464 (z via_fib).  The bound sits over
# 2x above the streamed peaks and over 2x below the ladder-holding ones.
LADDER_PEAK_BOUND = 500_000  # bytes
LADDER_ROUTES = {
    "fibonacci": lambda: fibonacci(400),
    "lucas": lambda: lucas(400),
    "z recurrence": lambda: z_polynomial(200),
    "lucas from_fib": lambda: lucas(400, "from_fib"),
    "z via_lucas": lambda: z_polynomial(200, "via_lucas"),
    "z via_fib": lambda: z_polynomial(200, "via_fib"),
    "z parity": lambda: z_polynomial(200, "parity"),
    "univariate_l": lambda: L_LADDER(400),
    "chebyshev_t": lambda: T_LADDER(400),
    "zx via_l2n": lambda: spread_z_univariate(200, "via_l2n"),
}


STREAMED_ROUTES = {
    **{("fibonacci", m): functools.partial(fibonacci, method=m) for m in FIBONACCI_METHODS},
    **{("lucas", m): functools.partial(lucas, method=m) for m in LUCAS_METHODS},
    **{("z", m): functools.partial(z_polynomial, method=m) for m in Z_METHODS},
    **{("zx", m): functools.partial(spread_z_univariate, method=m) for m in ZX_METHODS},
    ("l", "recurrence"): L_LADDER,
    ("t", "recurrence"): T_LADDER,
}


@pytest.mark.parametrize("route", sorted(STREAMED_ROUTES), ids=":".join)
def test_stream_is_the_single_n_builder(route):
    # A sweep's stream yields member n for n = 0, 1, ... (from n = 1 for
    # from_fib, which needs F(n-1)): exactly what the builder gives at each n.
    first = 1 if route[1] == "from_fib" else 0
    build = STREAMED_ROUTES[route]
    streamed = list(islice(_stream(30, *route), 31 - first))
    assert streamed == [build(n) for n in range(first, 31)]


def test_stream_unknown_route():
    with pytest.raises(ValueError):
        _stream(0, "z", "binet")


@pytest.mark.parametrize("route", sorted(LADDER_ROUTES))
def test_builders_hold_no_ladder(route):
    tracemalloc.start()
    try:
        LADDER_ROUTES[route]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LADDER_PEAK_BOUND, f"{route} peaked at {peak} bytes"


# -- packed ladders ------------------------------------------------------------

# F(n)(x, -s), a signed ladder: via_fib runs it in Z[sqrt(D)], never packed
# in (x, s), so its packed member is read here from the ladder kernel itself.
FLIPPED_FIB = ((BiPoly.zero(), BiPoly.one()), (BiPoly.x(), -BiPoly.s()))


def _flipped_fib_member(n):
    bound = sequences._fib_bound(n)
    width = poly._slot_width(bound)
    value = next(islice(sequences._packed_ladder(FLIPPED_FIB, [(None, width, bound)]), n, None))
    return BiPoly._unpacked(value, width, bound, n - 1, 2)


# Each ladder with its packed single-n builder and its width bound.
PACKED_LADDERS = {
    "fibonacci": (sequences._FIB, fibonacci, sequences._fib_bound),
    "flipped fibonacci": (FLIPPED_FIB, _flipped_fib_member, sequences._fib_bound),
    "lucas": (sequences._LUCAS, lucas, sequences._lucas_bound),
    "z": (sequences._Z, z_polynomial, sequences._z_bound),
    "chebyshev": (sequences._CHEBYSHEV, T_LADDER, sequences._chebyshev_bound),
}

# Every builder that climbs a recurrence, and so runs a packed ladder.
PACKED_ROUTES = {route: build for route, build in STREAMED_ROUTES.items() if route[1] != "closed"}


@pytest.mark.parametrize("name", sorted(PACKED_LADDERS))
def test_packed_member_is_the_polynomial_ladder_member(name):
    # Covers n = 0, 1, 2 and the signed ladders (flipped F, T).
    ladder, packed, _ = PACKED_LADDERS[name]
    members = list(islice(polynomial_ladder(*ladder), 301))
    for n in [*range(61), 300]:
        assert packed(n) == members[n], (name, n)


@pytest.mark.parametrize(
    "members, ladder",
    [(_fib_list, sequences._FIB), (_lucas_list, sequences._LUCAS), (_z_list, sequences._Z)],
    ids=["fibonacci", "lucas", "z"],
)
def test_member_lists_are_the_polynomial_ladders(members, ladder):
    # The lists that sweeps and checks read are the packed recurrence routes;
    # the ladder run on dict polynomials is their oracle.
    for m in (0, 1, 2, 200):
        assert members(m) == list(islice(polynomial_ladder(*ladder), m + 1)), m


@pytest.mark.parametrize("name", sorted(PACKED_LADDERS))
def test_width_bound_covers_every_coefficient(name):
    # The bound is the exact sum of the absolute coefficients, so no slot
    # holds more than it.
    ladder, _, bound = PACKED_LADDERS[name]
    for n, member in enumerate(islice(polynomial_ladder(*ladder), 201)):
        sizes = [abs(c) for _, c in member.terms()]
        assert bound(n) == sum(sizes) >= max(sizes, default=0), (name, n)


@pytest.mark.parametrize("route", sorted(PACKED_ROUTES), ids=":".join)
def test_packed_builder_is_its_stream_member(route):
    n = 64
    first = 1 if route[1] == "from_fib" else 0
    assert PACKED_ROUTES[route](n) == next(islice(_stream(n, *route), n - first, None))


# Every packed builder: the ladder routes and S, which runs the l ladder.
NARROW_ROUTES = {**PACKED_ROUTES, ("wildberger_spread",): S_LADDER}

# Every route with a packed ladder, by its stream's name, with its builder.
LADDER_STREAMS = {**PACKED_ROUTES, ("s", "via_l"): S_LADDER}


def _first(route):
    return 1 if route[-1] == "from_fib" else 0


def test_ladder_streams_are_every_route():
    assert sorted(LADDER_STREAMS) == sorted(sequences._ROUTES)


@pytest.mark.parametrize("route", sorted(NARROW_ROUTES), ids=":".join)
def test_slots_a_byte_too_narrow_raise(route, monkeypatch):
    # Mutation: one byte less than the bound needs.  The builder and the
    # stream to member n must refuse, never return a polynomial read from
    # carried-over slots.
    monkeypatch.setattr(sequences, "_slot_width", lambda bound: poly._slot_width(bound) - 8)
    stream = ("s", "via_l") if route == ("wildberger_spread",) else route
    for n in (1, 2, 40, 200):
        with pytest.raises(ArithmeticError):
            NARROW_ROUTES[route](n)
        with pytest.raises(ArithmeticError):
            list(islice(_stream(n, *stream), n + 1 - _first(route)))


@pytest.mark.parametrize("route", sorted(LADDER_STREAMS), ids=":".join)
def test_short_streams_are_the_builders(route):
    # Streams whose last index is 0, 1 or 2 take the narrowest slots.
    build = LADDER_STREAMS[route]
    for last in (0, 1, 2):
        streamed = list(islice(_stream(last, *route), last + 1 - _first(route)))
        assert streamed == [build(n) for n in range(_first(route), last + 1)], last


def test_width_bounds_fall_only_from_lucas_0_to_1():
    # A stream takes its width from its last member's bound, which holds the
    # earlier members when no bound falls.  The one fall for n < 600 is
    # L(0)(1, 1) = 2 > L(1)(1, 1) = 1, and both fit the narrowest slots.
    bounds = (
        sequences._fib_bound,
        sequences._lucas_bound,
        sequences._z_bound,
        sequences._chebyshev_bound,
        sequences._s_bound,
    )
    falls = [(b.__name__, n) for b in bounds for n in range(599) if b(n + 1) < b(n)]
    assert falls == [("_lucas_bound", 0)]
    assert poly._slot_width(sequences._lucas_bound(0)) == poly._slot_width(1) == 8


@pytest.mark.parametrize("route", sorted(LADDER_STREAMS), ids=":".join)
def test_stream_read_past_its_last_is_right_or_raises(route):
    # Each member is read with its own bound, so once one outgrows the width
    # of the stream's last member, reading raises; every member read before
    # that is the builder's.
    last, build, first = 20, LADDER_STREAMS[route], _first(route)
    streamed = []
    with pytest.raises(ArithmeticError):
        for member in islice(_stream(last, *route), last + 41 - first):
            streamed.append(member)
    assert len(streamed) > last - first
    assert streamed == [build(n) for n in range(first, first + len(streamed))]


def _read_or_refusal(read):
    """read(), or the ArithmeticError it raises."""
    try:
        return read()
    except ArithmeticError as refusal:
        return refusal


@pytest.mark.parametrize(
    "route",
    [("z", "recurrence"), ("zx", "via_l"), ("z", "via_fib"), ("zx", "from_bivariate")],
    ids=":".join,
)
def test_a_changed_route_ladder_breaks_gen_and_its_stream(route, monkeypatch):
    # Mutation: every state of the route's ladder off by one in its lowest
    # slot.  gen and the sweep run the one ladder, so both go wrong, in one
    # block (n < 8) and in three (n = 300), and cross_method, which compares
    # the route with its siblings, fails.  A skewed state that no longer fits
    # its slots is refused (ArithmeticError from the digit reader), which
    # detects it as well; cross_method reports that refusal as its route's
    # failing check.
    build = LADDER_STREAMS[route]
    right = {n: build(n) for n in (*range(8), 300)}
    gen = ["gen", {"z": "Z", "zx": "Zx"}[route[0]], "7", "--method", route[1]]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        main(gen)
    first, ladder, bound, member = sequences._ROUTES[route]
    wrong = (first, lambda blocks: (value + 1 for value in ladder(blocks)), bound, member)
    monkeypatch.setitem(sequences._ROUTES, route, wrong)
    assert all(_read_or_refusal(functools.partial(build, n)) != right[n] for n in right)
    streamed = _read_or_refusal(lambda: list(islice(_stream(7, *route), 8)))
    assert isinstance(streamed, ArithmeticError) or all(map(operator.ne, streamed, right.values()))
    with contextlib.redirect_stdout(io.StringIO()) as misprinted:
        main(gen)
    assert misprinted.getvalue() != printed.getvalue()
    swept = verify.SUITES["cross_method"](7)
    refusals = [f for f in swept.failures if f.witness[1].startswith("refused: ")]
    assert not swept.ok and all(f.name == ":".join(route) for f in refusals)


def test_cross_method_reports_a_refused_member_as_its_routes_failure(monkeypatch, capsys):
    # Every via_fib state off by one: Z(0) no longer fits its one slot.  The
    # sweep reports that refusal against the base route's Z(0), reads via_fib
    # no further, and checks every other route to the end.
    first, ladder, bound, member = sequences._ROUTES["z", "via_fib"]
    skewed = (first, lambda blocks: (value + 1 for value in ladder(blocks)), bound, member)
    monkeypatch.setitem(sequences._ROUTES, ("z", "via_fib"), skewed)
    assert main(["verify", "cross_method", "--max-n", "7"]) == 1
    assert capsys.readouterr().out == (
        "cross_method     n=0..7, all constructions                    63/64 FAIL\n"
        "  witness [z:via_fib n=0] index 0:\n"
        "    lhs: refused: value does not fit 1 slots of 16 bits\n"
        "    rhs: 0\n"
        "1 suite(s): FAILURES PRESENT\n"
    )


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("route", [("z", "via_fib"), ("zx", "from_bivariate")], ids=":".join)
def test_surd_ladder_is_the_nonzero_part_of_fibonacci_in_quadext(route, width):
    # Oracle: F(n) = u F(n-1) + t F(n-2) from F(0) = 0, F(1) = 1, run in
    # QuadExt with u = sqrt(D), at the (D, t) that the route packs in W-bit
    # slots: D = x + 4s and t = -s at (1, 2^W), D = x - 4 and t = 1 at
    # (2^W, -1).  The route's state c(n) is F(n) at odd n and F(n) / u at
    # even n.
    d, t = {"z": (1 + 4 * 2**width, -(2**width)), "zx": (2**width - 4, 1)}[route[0]]
    u = QuadExt(0, 1, d)
    fib = [QuadExt(0, 0, d), QuadExt(1, 0, d)]
    while len(fib) < 41:
        fib.append(u * fib[-1] + fib[-2] * t)
    states = sequences._ROUTES[route][1]([(None, width, 0)])
    for n, (member, c) in enumerate(zip(fib, states)):
        assert member == (c if n % 2 else c * u), (route, width, n)


def test_parity_builder_steps_only_the_ladder_it_reads(monkeypatch):
    # Z(n) by parity reads L(n) at odd n and F(n) at even n, so the builder
    # starts that one ladder; a sweep reads both parities, so its stream
    # starts both.
    names = {id(sequences._FIB): "F", id(sequences._LUCAS): "L"}
    started = []
    packed_ladder = sequences._packed_ladder

    def spy(ladder, width):
        started.append(names.get(id(ladder), "other"))
        return packed_ladder(ladder, width)

    monkeypatch.setattr(sequences, "_packed_ladder", spy)
    closed = [z_polynomial(n, "closed") for n in range(81)]
    assert started == []
    for n in range(81):
        started.clear()
        assert z_polynomial(n, "parity") == closed[n], n
        assert started == ["L" if n % 2 else "F"], n
    started.clear()
    stream = _stream(80, "z", "parity")
    assert sorted(started) == ["F", "L"]
    assert list(islice(stream, 81)) == closed
    assert sorted(started) == ["F", "L"]


# -- blocks: single-n ladders whose slots widen as the members grow ------------


def test_blocks_come_from_n_and_the_bound_alone():
    # One block per 100 members, at least one and at most eight.  Every stop
    # but the last is odd (the Z[sqrt(D)] ladder steps pairs) and far past the
    # seeds, the stops rise, and each block takes the slot width of the
    # route's bound at its stop, so the widths never narrow.
    for bound in (sequences._fib_bound, sequences._z_bound, sequences._s_bound):
        for n in (0, 1, 2, 199, 200, 201, 250, 699, 700, 799, 800, 3000):
            blocks = sequences._blocks(n, bound)
            assert len(blocks) == max(1, min(n // 100, 8)), n
            stops = [stop for stop, _, _ in blocks[:-1]]
            assert blocks[-1][0] is None and stops == sorted(set(stops)), n
            assert all(stop % 2 and 50 < stop < n for stop in stops), n
            tops = [bound(k) for k in [*stops, n]]
            assert [(w, top) for _, w, top in blocks] == [(poly._slot_width(t), t) for t in tops]
            widths = [w for _, w, _ in blocks]
            assert widths == sorted(widths), n


# Single-n builds from one block (n = 150, 199) to seven.
BLOCKED_NS = (150, 199, 200, 260, 370, 480, 590, 600, 700)


@pytest.fixture(scope="module")
def references():
    """Member k of every family for k <= 701, built with no packed ladder:
    the closed rows for F, L and Z, Zx(k) = (-1)^(k-1) Z(k)(x, -1) and S(k)
    = Zx(k)(4x) / 4 from Z's, and the ladder run on dict polynomials for T
    and l.  (The dict ladder for S, l(k)(2 - 4x), takes 1.8 s to k = 701.)"""
    last = max(BLOCKED_NS) + 1
    z = [z_polynomial(k, "closed") for k in range(last + 1)]
    zx = [zk.substitute_s(-1).scale(1 if k % 2 else -1) for k, zk in enumerate(z)]
    lucas_members = islice(polynomial_ladder(*sequences._LUCAS), last + 1)
    return {
        "fibonacci": [fibonacci(k, "closed") for k in range(last + 1)],
        "lucas": [lucas(k, "closed") for k in range(last + 1)],
        "z": z,
        "zx": zx,
        "l": [member.substitute_s(-1) for member in lucas_members],
        "t": list(islice(polynomial_ladder(*sequences._CHEBYSHEV), last + 1)),
        "s": [UniPoly({j: c * 4 ** (j - 1) for j, c in member.terms()}) for member in zx],
    }


def _block_of(blocks, k):
    """The (stop, width, bound) of the block that steps member k."""
    return next(block for block in blocks if block[0] is None or k <= block[0])


@pytest.mark.parametrize("route", sorted(LADDER_STREAMS), ids=":".join)
def test_members_on_both_sides_of_every_block_boundary(route, references):
    # Each route's ladder in the blocks of member n, read at members b - 1,
    # b and b + 1 of every block boundary b, each at its own block's width,
    # and at member n: the repacked window must carry on where the narrower
    # block left it.  The builder runs those blocks and reads member n.
    first, ladder, bound, member = sequences._ROUTES[route]
    expected = references[route[0]]
    build = LADDER_STREAMS[route]
    for n in BLOCKED_NS:
        blocks = sequences._blocks(n, bound)
        read = {n} | {k for stop, _, _ in blocks[:-1] for k in (stop - 1, stop, stop + 1)}
        assert len(read) == 3 * len(blocks) - 2, n
        for k, state in enumerate(islice(ladder(blocks), n + 1 - first), first):
            if k in read:
                width = _block_of(blocks, k)[1]
                assert member(state, width, bound(k), k) == expected[k], (n, k)
        assert build(n) == expected[n], n


@pytest.mark.parametrize("route", sorted(LADDER_STREAMS), ids=":".join)
def test_a_block_a_byte_too_narrow_raises(route, monkeypatch):
    # Mutation: one block, the last or an earlier one, a byte narrower than
    # the bound at its stop needs.  The builder must refuse, never return a
    # polynomial: the last block's reader, or the repack out of the narrow
    # block, finds a bound that does not fit.
    blocks = sequences._blocks
    build = LADDER_STREAMS[route]
    for n in (1, 2, 40, 250, 600):
        for narrow in range(len(blocks(n, sequences._ROUTES[route][2]))):

            def narrower(n, bound, narrow=narrow):
                schedule = list(blocks(n, bound))
                stop, width, top = schedule[narrow]
                schedule[narrow] = stop, width - 8, top
                return schedule

            monkeypatch.setattr(sequences, "_blocks", narrower)
            with pytest.raises(ArithmeticError):
                build(n)


@pytest.mark.parametrize("route", sorted(LADDER_STREAMS), ids=":".join)
def test_every_repacked_state_holds_its_stated_bound(route, monkeypatch):
    # The width lemma in the module docstring: every state a block leaves in
    # its window has digits no larger than the route's bound at the block's
    # stop, which is the bound the repack is given (for the l ladders, the
    # digits of the member Zx or S moved in their place).
    repacked, moves = sequences._repacked, []

    def checked(values, width, bound, new):
        slots = max(map(int.bit_length, values)) // width + 1
        top = (1 << (width - 1)) - 1
        largest = max(abs(d) for v in values for d in poly._digits(v, width, slots, top))
        moves.append((largest, bound))
        return repacked(values, width, bound, new)

    monkeypatch.setattr(sequences, "_repacked", checked)
    build = LADDER_STREAMS[route]
    for n in (250, 600):
        moves.clear()
        build(n)
        assert len(moves) == len(sequences._blocks(n, sequences._ROUTES[route][2])) - 1
        assert all(largest <= bound for largest, bound in moves), (n, moves)


@pytest.mark.parametrize("route", [("z", "via_fib"), ("zx", "from_bivariate")], ids=":".join)
def test_surd_states_hold_the_bound_in_their_docstring(route):
    # c(k) of the Z[sqrt(D)] ladder: its absolute digits sum to at most
    # F(k)(sqrt(5), 1), below Z(k)(1, 1), the route's bound, for k >= 1.
    # F(k)(sqrt(5), 1)^2 = Z(k)(9, -1) / 9 at odd k and / 5 at even k.
    width = 1024
    states = sequences._ROUTES[route][1]([(None, width, 0)])
    for k, c in enumerate(islice(states, 401)):
        digits = poly._digits(c, width, k // 2 + 1, 1)
        size = sum(map(abs, digits))
        surd_square = sequences.z_at(k, 9, -1) / (9 if k % 2 else 5)
        assert size * size <= surd_square, k
        assert size <= sequences._z_bound(k) or k == 0 and size == 0, k


def test_all_families_integer_coefficients():
    for n in range(101):
        assert z_polynomial(n).is_integral()
        assert fibonacci(n).is_integral()
        assert lucas(n).is_integral()
        assert univariate_l(n).is_integral()
        assert spread_z_univariate(n).is_integral()
        assert wildberger_spread(n).is_integral()
        assert chebyshev_t(n).is_integral()


# -- point values by doubling ----------------------------------------------------

# Points where the Binet closed forms break down (x = 0, s < 0, x^2 + 4s = 0),
# points where every term of a family has the same sign, and a generic one;
# the same kinds as plain ints and mixed with Fractions, since the evaluators
# read an int's numerator and denominator as they read a Fraction's; and
# seeded rationals with larger denominators.
_seeded = random.Random(30)
EDGE_POINTS = [
    (Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(0)),
    (Fraction(5, 2), Fraction(-7, 4)),
    (Fraction(2), Fraction(-1)),
    (Fraction(-3, 2), Fraction(-9, 16)),
    (Fraction(1), Fraction(1)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(2, 7), Fraction(-5, 3)),
    (0, -3),
    (6, -9),
    (-3, 5),
    (0, Fraction(-5, 3)),
    (Fraction(7, 4), -3),
] + [
    (Fraction(_seeded.randint(-40, 40), _seeded.randint(1, 40)),
     Fraction(_seeded.randint(-40, 40), _seeded.randint(1, 40)))
    for _ in range(4)
]

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def points(draw):
    """A rational (x0, s0): generic, x0 = 0, s0 < 0, or x0^2 + 4 s0 = 0."""
    x0, s0 = draw(small_rationals), draw(small_rationals)
    kind = draw(st.sampled_from(("generic", "x=0", "s<0", "degenerate")))
    if kind == "x=0":
        x0 = Fraction(0)
    elif kind == "s<0":
        s0 = -abs(s0) - Fraction(1, 9)
    elif kind == "degenerate":
        s0 = -x0 * x0 / 4
    return x0, s0


@functools.lru_cache(maxsize=None)
def built(family, n):
    return _FAMILIES[family][1](n, None)


def evaluate_both(family, n, x0, s0):
    """(the doubling evaluator's value, the built polynomial's value)."""
    evaluator, poly = _FAMILIES[family][2], built(family, n)
    if family in _BIVARIATE:
        return evaluator(n, x0, s0), poly.evaluate(x0, s0)
    return evaluator(n, x0, None), poly.evaluate(x0)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_point_evaluator_matches_built_polynomial_at_edge_points(family):
    for n in range(61):
        for x0, s0 in EDGE_POINTS:
            got, expected = evaluate_both(family, n, x0, s0)
            assert type(got) is Fraction and got == expected, (family, n, x0, s0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FAMILIES)), st.integers(0, 60), points())
@example("Z", 0, (Fraction(0), Fraction(-1)))
@example("Zx", 1, (Fraction(3), Fraction(-9, 4)))
def test_point_evaluator_matches_built_polynomial(family, n, point):
    got, expected = evaluate_both(family, n, *point)
    assert got == expected


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_point_bits_bound_coefficient_lemma(family):
    # point_bits_bound rests on degrees <= n and |coefficients| summing
    # below 2^(4n+2); check both on the built polynomials.
    for n in range(61):
        poly = built(family, n)
        assert sum(abs(c) for _, c in poly.terms()).bit_length() <= 4 * n + 2
        for key, _ in poly.terms():
            assert max(key if family in _BIVARIATE else (key,)) <= n


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FAMILIES)), st.integers(0, 2000), points())
@example("S", 2000, (Fraction(-1), Fraction(0)))
@example("Z", 2000, (Fraction(-9), Fraction(9)))
def test_point_bits_bound_is_an_upper_bound(family, n, point):
    x0, s0 = point
    if family not in _BIVARIATE:
        s0 = None
    value = _FAMILIES[family][2](n, x0, s0)
    bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    assert bits <= point_bits_bound(n, x0, s0 or 0)


# (x0, s0, ceil(log2 H(x0)) + ceil(log2 H(s0))), H the larger of |numerator|
# and denominator: heights that are exact powers of two, where ceil(log2) is
# the exponent itself, and the next heights up, which round up.
_POINT_HEIGHTS = [
    (4, 0, 2),
    (Fraction(1, 8), 1, 3),
    (Fraction(-16, 3), Fraction(1, 2), 5),
    (Fraction(-16, 3), -2, 5),
    (1, Fraction(-1, 32), 5),
    (5, 0, 3),
    (Fraction(9, 2), Fraction(17, 16), 4 + 5),
]


@pytest.mark.parametrize("x0, s0, height", _POINT_HEIGHTS)
def test_point_bits_bound_at_power_of_two_heights(x0, s0, height):
    for n in (0, 1, 7, 1000):
        assert point_bits_bound(n, x0, s0) == n * (4 + height) + 2, n


def test_eval_refuses_from_the_first_n_past_the_bit_limit(monkeypatch):
    # T at x0 = -16/3 may need n (4 + 4) + 2 bits, at most 2^20 up to
    # n = 131071: eval runs there, and exits 2 from n = 131072 on without
    # evaluating.
    ran = []
    methods, builder, _ = _FAMILIES["T"]
    monkeypatch.setitem(_FAMILIES, "T", (methods, builder, lambda n, x0, s0: ran.append(n)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["eval", "T", "131071", "-16/3"]) == 0
        with pytest.raises(SystemExit) as refused:
            main(["eval", "T", "131072", "-16/3"])
    assert refused.value.code == 2 and ran == [131071]


# (call, the error it raises): a bad n is a ValueError and an inexact point a
# TypeError.  Where both are bad, the first one checked wins: F, L and l check
# n first, then x0, then s0; Z checks s0, then x0, then n; Zx, S and T check
# x0 before n.
_POINT_ERRORS = [
    (lambda: fibonacci_at(-1, 0.5, "1"), ValueError, "got -1"),
    (lambda: fibonacci_at(3, 0.5, "1"), TypeError, "got float"),
    (lambda: fibonacci_at(3, 1, "1"), TypeError, "got str"),
    (lambda: lucas_at(True, 1, 1), ValueError, "got True"),
    (lambda: lucas_at(-1, 0.5, "1"), ValueError, "got -1"),
    (lambda: lucas_at(3, 0.5, "1"), TypeError, "got float"),
    (lambda: sequences.z_at(-1, 0.5, "1"), TypeError, "got str"),
    (lambda: sequences.z_at(-1, 0.5, 1), TypeError, "got float"),
    (lambda: sequences.z_at(-1, 1, 1), ValueError, "got -1"),
    (lambda: sequences.z_at(2.0, 1, 1), ValueError, "got 2.0"),
    (lambda: sequences.univariate_l_at(-1, 0.5), ValueError, "got -1"),
    (lambda: sequences.univariate_l_at(3, "1/2"), TypeError, "got str"),
    (lambda: sequences.spread_z_univariate_at(-1, 0.5), TypeError, "got float"),
    (lambda: sequences.spread_z_univariate_at(-1, 1), ValueError, "got -1"),
    (lambda: sequences.wildberger_spread_at(-1, "1"), TypeError, "got str"),
    (lambda: sequences.wildberger_spread_at(-1, 1), ValueError, "got -1"),
    (lambda: chebyshev_t_at(-1, 0.5), TypeError, "got float"),
    (lambda: chebyshev_t_at(-1, 1), ValueError, "got -1"),
    (lambda: point_bits_bound(-1, 0.5, "1"), ValueError, "got -1"),
    (lambda: point_bits_bound(3, 0.5, "1"), TypeError, "got float"),
    (lambda: point_bits_bound(3, 1, "1"), TypeError, "got str"),
]


def test_point_evaluators_reject_bad_input():
    for call, error, text in _POINT_ERRORS:
        with pytest.raises(error, match=f"{text}$"):
            call()


def test_point_evaluators_check_n_before_the_point():
    # The index is checked first: a negative n with an inexact point is a
    # ValueError, not the point's TypeError.
    for at in (fibonacci_at, lucas_at):
        with pytest.raises(ValueError):
            at(-1, 0.5, 1)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_each_point_evaluator_builds_one_fraction_its_result(family, monkeypatch):
    # Every input is read as ints and every identity folded into them, so the
    # one Fraction a call builds is the value it returns: no input is wrapped
    # and no Fraction arithmetic follows.  point_bits_bound builds none.
    made = []

    class Spy(Fraction):
        def __new__(cls, *args):
            made.append(super().__new__(cls, *args))
            return made[-1]

    monkeypatch.setattr(point_values, "Fraction", Spy)
    at = _FAMILIES[family][2]
    for n, x0, s0 in [(0, 3, -2), (9, Fraction(-2, 3), Fraction(5, 7)), (12, Fraction(4), 1)]:
        made.clear()
        value = at(n, x0, s0)
        assert len(made) == 1 and value is made[0], (family, n, x0, s0)
        made.clear()
        assert point_bits_bound(n, x0, s0) > 0 and made == []
        assert point_values._integral_point(x0, s0) and made == []


def _from_sympy(value):
    return Fraction(int(value.p), int(value.q))


def test_chebyshev_t_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (0, 1, 2, 3, 10, 97, 500):
        for x0 in (Fraction(1, 3), Fraction(-5, 7), Fraction(0), Fraction(1), Fraction(2)):
            expected = sympy.chebyshevt(n, sympy.Rational(x0.numerator, x0.denominator))
            assert chebyshev_t_at(n, x0) == _from_sympy(expected), (n, x0)
    assert chebyshev_t_at(2000, Fraction(-4, 9)) == _from_sympy(
        sympy.chebyshevt(2000, sympy.Rational(-4, 9))
    )


def test_fibonacci_at_s_one_against_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy expands its Fibonacci polynomials symbolically, which is slow
    # past n ~ 100, so the large indices use its Fibonacci and Lucas numbers
    # (x = s = 1).
    for n in (1, 2, 5, 40, 120):
        for x0 in (Fraction(1, 3), Fraction(-5, 7), Fraction(0), Fraction(2)):
            expected = sympy.fibonacci(n, sympy.Rational(x0.numerator, x0.denominator))
            assert fibonacci_at(n, x0, 1) == _from_sympy(expected), (n, x0)
    for n in list(range(0, 2000, 37)) + [2000]:
        assert fibonacci_at(n, 1, 1) == int(sympy.fibonacci(n))
        assert lucas_at(n, 1, 1) == int(sympy.lucas(n))


def _integer_coefficients(p):
    """{k: c} of a sympy polynomial in one variable, every c an integer."""
    coefficients = {k: _from_sympy(c) for (k,), c in p.terms()}
    assert all(c.denominator == 1 for c in coefficients.values())
    return {k: int(c) for k, c in coefficients.items()}


def test_every_route_of_every_family_against_sympy():
    # sympy's Chebyshev T and Fibonacci polynomials, which share nothing with
    # the ladders, give every family: l(n) = 2 T(n)(x/2), S(n) = (1 -
    # T(n)(1 - 2x))/2 and Zx(n) = 2 (1 - T(n)(1 - x/2)).  The bivariate
    # families are homogenized from one specialization: L(n) of degree n and
    # F(n) of degree n - 1 under the weights (1, 2) of (x, s), from l(n) =
    # L(n)(x, -1) and F(n)(x, 1); Z(n) of degree n under (1, 1), from Zx(n) =
    # (-1)^(n-1) Z(n)(x, -1).
    sympy = pytest.importorskip("sympy")
    x, half = sympy.Symbol("x"), sympy.Rational(1, 2)
    for n in range(41):
        t = sympy.chebyshevt_poly(n, x, polys=True)
        t_n = _integer_coefficients(t)
        l_n = _integer_coefficients(2 * t.compose(sympy.Poly(half * x, x)))
        s_n = _integer_coefficients(half * (1 - t.compose(sympy.Poly(1 - 2 * x, x))))
        zx_n = _integer_coefficients(2 * (1 - t.compose(sympy.Poly(1 - half * x, x))))
        f_n = _integer_coefficients(sympy.Poly(sympy.fibonacci(n, x), x)) if n else {}
        assert chebyshev_t(n) == T_LADDER(n) == UniPoly(t_n), n
        assert univariate_l(n) == L_LADDER(n) == UniPoly(l_n), n
        assert wildberger_spread(n) == S_LADDER(n) == UniPoly(s_n), n
        for method in ZX_METHODS:
            assert spread_z_univariate(n, method) == UniPoly(zx_n), (n, method)
        fib = BiPoly({(k, (n - 1 - k) // 2): c for k, c in f_n.items()})
        for method in FIBONACCI_METHODS:
            assert fibonacci(n, method) == fib, (n, method)
        luc = BiPoly({(k, (n - k) // 2): c * (-1) ** ((n - k) // 2) for k, c in l_n.items()})
        for method in LUCAS_METHODS:
            if n or method != "from_fib":  # L(n) = F(n+1) + s F(n-1) needs n >= 1
                assert lucas(n, method) == luc, (n, method)
        z = BiPoly({(k, n - k): -c * (-1) ** k for k, c in zx_n.items()})
        for method in Z_METHODS:
            assert z_polynomial(n, method) == z, (n, method)
