"""Tests for the polynomial family constructors and the coefficient triangle."""

import pytest

from spreadpoly import (
    BiPoly,
    UniPoly,
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
from spreadpoly.fixtures import a156308_rows
from spreadpoly.sequences import Triangle, _fib_list, _lucas_list, _z_list

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


def test_fib_lucas_closed_forms_deep_sweep():
    fib = _fib_list(200)
    luc = _lucas_list(200)
    for n in range(201):
        assert fibonacci(n, method="closed") == fib[n], n
        assert lucas(n, method="closed") == luc[n], n


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


def test_coefficient_forms_agree_and_match_z():
    for n in range(1, 41):
        z = z_polynomial(n)
        for k in range(1, n + 1):
            c = coefficient_c(n, k)
            assert coefficient_c(n, k, form="sum_binomials") == c
            assert coefficient_c(n, k, form="product") == c
            assert z.coefficient(k, n - k) == c


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
    with pytest.raises(ValueError):
        triangle(3).row(4)


def test_triangle_matches_fixture():
    fixture = a156308_rows()
    assert len(fixture) == 10
    tri = triangle(10)
    for i, row in enumerate(fixture, start=1):
        assert tri.row(i) == tuple(row)


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
    # The integrality check is an explicit raise, so it holds under python -O.
    monkeypatch.setattr(UniPoly, "is_integral", lambda self: False)
    with pytest.raises(ArithmeticError):
        wildberger_spread(3)


def test_chebyshev_values():
    assert chebyshev_t(0) == UniPoly.one()
    assert chebyshev_t(1) == UniPoly.x()
    assert chebyshev_t(2) == UniPoly({2: 2, 0: -1})
    assert chebyshev_t(3) == UniPoly({3: 4, 1: -3})


def test_all_families_integer_coefficients():
    for n in range(101):
        assert z_polynomial(n).is_integral()
        assert fibonacci(n).is_integral()
        assert lucas(n).is_integral()
        assert univariate_l(n).is_integral()
        assert spread_z_univariate(n).is_integral()
        assert wildberger_spread(n).is_integral()
        assert chebyshev_t(n).is_integral()
