"""Tests for exact quadratic-surd arithmetic and the Binet closed forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadpoly import (
    DegenerateDiscriminant,
    DiscriminantMismatch,
    QuadExt,
    binet_fibonacci,
    binet_lucas,
    binet_z,
    characteristic_roots,
    check_root_relations,
    fibonacci,
    lucas,
    z_polynomial,
)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)
discriminants = st.sampled_from([2, 3, 5, 7, -1, -11, Fraction(5, 4)])
elements = st.builds(QuadExt, rationals, rationals, discriminants)


# -- field arithmetic ---------------------------------------------------------


def test_defining_relation():
    root5 = QuadExt(0, 1, 5)
    assert root5 * root5 == QuadExt(5, 0, 5)


def test_golden_ratio_product():
    # gamma * gammabar = -s at (x, s) = (1, 1)
    g, gbar = characteristic_roots(1, 1)
    assert g.d == 5
    assert g * gbar == QuadExt.from_rational(-1, 5)


def test_conj_involution_concrete():
    u = QuadExt(Fraction(1, 2), Fraction(-3, 4), 7)
    assert u.conj().conj() == u


@given(elements)
def test_conj_involution(u):
    assert u.conj().conj() == u


@given(elements)
def test_norm_is_rational(u):
    assert (u * u.conj()).is_rational()
    assert u * u.conj() == QuadExt.from_rational(u.norm(), u.d)


def test_discriminant_mismatch():
    with pytest.raises(DiscriminantMismatch):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(DiscriminantMismatch):
        QuadExt(1, 1, 2) * QuadExt(0, 1, 5)


def test_division():
    root5 = QuadExt(0, 1, 5)
    assert (1 / root5) * root5 == QuadExt.from_rational(1, 5)
    u = QuadExt(3, 2, 2)
    assert (u / u) == QuadExt.from_rational(1, 2)
    with pytest.raises(ZeroDivisionError):
        u / QuadExt(0, 0, 2)


def test_division_by_norm_zero_element():
    # 3 - sqrt(9) has norm zero even though it is formally nonzero
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 9) / QuadExt(3, -1, 9)


def test_pow():
    g = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)  # the golden ratio
    assert g**0 == QuadExt.from_rational(1, 5)
    assert g**2 == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)  # g^2 = g + 1
    with pytest.raises(ValueError):
        g**-2


@given(elements)
def test_pow_consistency(u):
    assert u**2 == u * u
    assert u**5 == u * u * u * u * u


@given(rationals, rationals)
def test_vieta(x0, s0):
    if x0 * x0 + 4 * s0 == 0:
        return
    g, gbar = characteristic_roots(x0, s0)
    assert g + gbar == QuadExt.from_rational(x0, g.d)
    assert g * gbar == QuadExt.from_rational(-s0, g.d)


def test_str_forms():
    assert str(QuadExt(Fraction(3, 2), Fraction(1, 2), 5)) == "3/2 + 1/2*sqrt(5)"
    assert str(QuadExt(2, -1, 9)) == "2 - sqrt(9)"
    assert str(QuadExt(7, 0, 5)) == "7"


# -- Binet closed forms ----------------------------------------------------------


def test_binet_fibonacci_base_cases():
    assert binet_fibonacci(0, 3, Fraction(1, 2)) == 0
    assert binet_fibonacci(5, 1, 1) == 5  # classical Fibonacci
    assert binet_lucas(2, 1, 1) == 3  # L(2)(1,1) = 1 + 2


def test_binet_degenerate_rejected():
    with pytest.raises(DegenerateDiscriminant):
        binet_fibonacci(3, 2, -1)  # 4 + 4*(-1) = 0
    with pytest.raises(DegenerateDiscriminant):
        binet_z(3, 2, -1)
    with pytest.raises(DegenerateDiscriminant):
        check_root_relations(0, 0)


def test_binet_matches_recurrence_at_sampled_points():
    rng = random.Random(7)
    points = []
    while len(points) < 6:
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        s0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if x0 * x0 + 4 * s0 != 0:
            points.append((x0, s0))
    for n in range(0, 26, 5):
        fib = fibonacci(n)
        luc = lucas(n)
        for x0, s0 in points:
            assert binet_fibonacci(n, x0, s0) == fib.evaluate(x0, s0)
            assert binet_lucas(n, x0, s0) == luc.evaluate(x0, s0)


def test_binet_z_values():
    assert binet_z(0, 3, Fraction(2, 3)) == 0
    assert binet_z(2, 1, 2) == 9
    assert binet_z(3, 1, 2) == 49


def test_binet_z_matches_polynomial():
    for n in (0, 1, 2, 3, 7, 12):
        z = z_polynomial(n)
        for q in (0, 1, 2, 3):
            for s in range(-3, 4):
                if q * q + 4 * s == 0:
                    continue
                assert binet_z(n, q, s) == z.evaluate(q * q, s)


def test_binet_negative_index_rejected():
    with pytest.raises(ValueError):
        binet_fibonacci(-1, 1, 1)


def test_binet_uncancelled_sqrt_raises(monkeypatch):
    # The rationality check is an explicit raise, so it holds under python -O.
    monkeypatch.setattr(QuadExt, "is_rational", lambda self: False)
    with pytest.raises(ArithmeticError):
        binet_fibonacci(3, 1, 1)
    with pytest.raises(ArithmeticError):
        binet_lucas(3, 1, 1)
    with pytest.raises(ArithmeticError):
        binet_z(3, 1, 2)


# -- root relations ---------------------------------------------------------------


def test_root_relations_concrete_points():
    # (q, s) = (1, 2): alpha = 2, alphabar = -1
    result = check_root_relations(1, 2)
    assert result.passed and result.witness is None
    # (q, s) = (0, 1): alpha = 1, alphabar = -1 in disguise (d = 4)
    assert check_root_relations(0, 1).passed


def test_root_relations_rational_inputs():
    assert check_root_relations(Fraction(3, 2), Fraction(-1, 3)).passed
