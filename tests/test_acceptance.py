"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything except criterion 7 is exact arithmetic; criterion 7 is the
double-precision trigonometric spot check with its stated tolerance.
"""

import random
import time
from fractions import Fraction

from spreadpoly import (
    BiPoly,
    UniPoly,
    Z_METHODS,
    binet_fibonacci,
    binet_lucas,
    binet_z,
    check_cassini,
    check_chebyshev_bala,
    check_coefficient_forms,
    check_l_doubling,
    check_lucas_binomial,
    check_symmetry,
    check_trig,
    check_z_binomial,
    check_z_cassini,
    check_root_relations,
    coefficient_c,
    expand,
    fibonacci,
    gf_of,
    lucas,
    spread_z_univariate,
    triangle,
    z_polynomial,
)
from spreadpoly.fixtures import a156308_rows
from spreadpoly.identities import _TRIG_SAMPLES, _TRIG_TOL

# Hand-typed reference data: the first bivariate spread polynomials, the
# 5x5 coefficient matrix, and the first univariate spread polynomials.
Z_FIRST = [
    BiPoly.zero(),
    BiPoly({(1, 0): 1}),
    BiPoly({(1, 1): 4, (2, 0): 1}),
    BiPoly({(1, 2): 9, (2, 1): 6, (3, 0): 1}),
    BiPoly({(1, 3): 16, (2, 2): 20, (3, 1): 8, (4, 0): 1}),
]

TRIANGLE_5 = (
    (1,),
    (4, 1),
    (9, 6, 1),
    (16, 20, 8, 1),
    (25, 50, 35, 10, 1),
)

ZX_FIRST = [
    UniPoly.zero(),
    UniPoly({1: 1}),
    UniPoly({1: 4, 2: -1}),
    UniPoly({1: 9, 2: -6, 3: 1}),
    UniPoly({1: 16, 2: -20, 3: 8, 4: -1}),
    UniPoly({1: 25, 2: -50, 3: 35, 4: -10, 5: 1}),
]


def _grid_points():
    return [
        (q, s)
        for q in (0, 1, 2, 3)
        for s in range(-3, 4)
        if q * q + 4 * s != 0
    ]


def test_criterion_1_five_way_agreement():
    start = time.monotonic()
    for n in range(201):
        base = z_polynomial(n, method="recurrence")
        rendered = base.render()
        for method in Z_METHODS[1:]:
            other = z_polynomial(n, method=method)
            assert other == base, (n, method)
            assert other.render() == rendered, (n, method)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"five-way sweep took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 1 (five-way agreement, n<=200, {elapsed:.1f}s): PASS")


def test_criterion_2_golden_values():
    for n, expected in enumerate(Z_FIRST):
        assert z_polynomial(n) == expected, n
    assert triangle(5).rows == TRIANGLE_5
    for n, expected in enumerate(ZX_FIRST):
        assert spread_z_univariate(n) == expected, n
    print("criterion 2 (golden first terms): PASS")


def test_criterion_3_coefficient_forms():
    from math import comb

    for n in range(1, 101):
        z = z_polynomial(n, method="recurrence")
        for k in range(1, n + 1):
            c = coefficient_c(n, k, form="ratio_binomial")
            assert coefficient_c(n, k, form="sum_binomials") == c, (n, k)
            assert coefficient_c(n, k, form="product") == c, (n, k)
            # fourth expression of the same entry
            assert Fraction(n, k) * comb(n + k - 1, 2 * k - 1) == c, (n, k)
            assert z.coefficient(k, n - k) == c, (n, k)
    fixture = a156308_rows()
    tri = triangle(10)
    for i, row in enumerate(fixture, start=1):
        assert tri.row(i) == tuple(row), i
    print("criterion 3 (coefficient forms + fixture): PASS")


def test_criterion_4_identity_suite():
    start = time.monotonic()
    failures = []
    sweeps = [
        (lambda n: check_lucas_binomial(n, "even"), range(0, 61)),
        (lambda n: check_lucas_binomial(n, "odd"), range(0, 61)),
        (check_cassini, range(1, 101)),
        (check_z_cassini, range(1, 101)),
        (check_z_binomial, range(1, 61)),
        (check_symmetry, range(1, 101)),
        (check_l_doubling, range(1, 51)),
        (check_chebyshev_bala, range(1, 51)),
    ]
    for check, sweep in sweeps:
        for n in sweep:
            result = check(n)
            if not result.passed:
                failures.append(result)
    elapsed = time.monotonic() - start
    assert not failures, failures[:3]
    assert elapsed < 120.0, f"identity suite took {elapsed:.1f}s (budget 120s)"
    print(f"criterion 4 (identity suite, {elapsed:.1f}s): PASS")


def test_criterion_5_generating_functions():
    fib_series = expand(gf_of("fibonacci"), 64)
    lucas_series = expand(gf_of("lucas"), 64)
    for n in range(65):
        assert fib_series[n] == fibonacci(n, method="recurrence"), n
        assert lucas_series[n] == lucas(n, method="recurrence"), n
    z_series = expand(gf_of("z_shifted"), 63)
    for n in range(64):
        assert z_series[n] == z_polynomial(n + 1, method="recurrence"), n
    print("criterion 5 (generating-function oracle): PASS")


def test_criterion_6_binet_surd():
    rng = random.Random(20201105)
    points = []
    while len(points) < 25:
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        s0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if x0 * x0 + 4 * s0 != 0:
            points.append((x0, s0))
    for n in range(51):
        fib = fibonacci(n, method="recurrence")
        luc = lucas(n, method="recurrence")
        for x0, s0 in points:
            assert binet_fibonacci(n, x0, s0) == fib.evaluate(x0, s0), (n, x0, s0)
            assert binet_lucas(n, x0, s0) == luc.evaluate(x0, s0), (n, x0, s0)
    for n in range(41):
        z = z_polynomial(n, method="recurrence")
        for q, s in _grid_points():
            assert binet_z(n, q, s) == z.evaluate(q * q, s), (n, q, s)
    # Z(n)(1, 2) = (2^n - 1)^2, with the closed-form construction as oracle
    for n in range(65):
        expected = (2**n - 1) ** 2
        assert z_polynomial(n, method="closed").evaluate(1, 2) == expected, n
        assert binet_z(n, 1, 2) == expected, n
    print("criterion 6 (Binet/surd closed forms): PASS")


def test_criterion_7_trig_property():
    assert (_TRIG_SAMPLES, _TRIG_TOL) == (100, 1e-9)
    for n in range(1, 21):
        result = check_trig(n)
        assert result.passed, (n, result.witness)
    print("criterion 7 (trigonometric property, tol 1e-9): PASS")


def test_criterion_8_root_relations():
    for q, s in _grid_points():
        result = check_root_relations(q, s)
        assert result.passed, (q, s, result.witness)
    print("criterion 8 (root relations + cubic factorization): PASS")
