"""Unit and property tests for the exact polynomial core."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadpoly import BiPoly, OddDegreeError, UniPoly, ZeroPolynomialError

X = BiPoly.x()
S = BiPoly.s()

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=0, max_value=5)
bipolys = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, max_size=5
).map(BiPoly)


# -- construction and canonical form ------------------------------------------


def test_zero_is_empty():
    assert not BiPoly()
    assert BiPoly({(1, 1): 0}) == BiPoly.zero()
    assert len(BiPoly({(2, 0): 3, (0, 0): 0})) == 1


def test_integral_fractions_normalize():
    p = BiPoly({(1, 0): Fraction(4, 2)})
    assert p.coefficient(1, 0) == 2
    assert isinstance(p.coefficient(1, 0), int)
    assert p.is_integral()
    assert not BiPoly({(1, 0): Fraction(1, 2)}).is_integral()
    # Operation results keep integral coefficients as int as well.
    half = Fraction(1, 2)
    results = [
        (UniPoly({1: half}) * 2).coefficient(1),
        (UniPoly({1: half}) + UniPoly({1: half})).coefficient(1),
        UniPoly({2: half}).compose(UniPoly({1: 2})).coefficient(2),
        (BiPoly({(1, 0): half}) * BiPoly({(0, 1): Fraction(4, 3)}) * 3).coefficient(1, 1),
        (BiPoly({(1, 1): half}) * BiPoly({(1, 0): 2})).coefficient(2, 1),
        (BiPoly({(0, 0): half}) - BiPoly({(0, 0): Fraction(-1, 2)})).coefficient(0, 0),
        BiPoly({(1, 2): 4}).substitute_s(half).coefficient(1),
    ]
    assert results == [1, 1, 2, 2, 1, 1, 1]
    assert all(type(c) is int for c in results)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 0.5})
    with pytest.raises(TypeError):
        UniPoly({0: 1.0})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


# -- ring operations ------------------------------------------------------------


def test_bivariate_and_univariate_do_not_mix():
    # Both classes store x as the term (1, 0), yet they are different rings.
    assert (BiPoly.x() == UniPoly.x()) is False
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(BiPoly.x(), UniPoly.x())
        with pytest.raises(TypeError):
            op(UniPoly.x(), BiPoly.x())


def test_additive_identity():
    assert X + BiPoly.zero() == X


def test_mul_hand_expansion():
    # x * (4sx + x^2) = 4sx^2 + x^3
    q = BiPoly({(1, 1): 4, (2, 0): 1})
    assert X * q == BiPoly({(2, 1): 4, (3, 0): 1})


def test_scalar_arithmetic():
    assert (X + 1) - 1 == X
    assert X * 3 == BiPoly({(1, 0): 3})
    assert 2 - BiPoly.constant(2) == BiPoly.zero()
    assert X.scale(Fraction(1, 2)) == BiPoly({(1, 0): Fraction(1, 2)})


def test_pow():
    assert BiPoly({(3, 2): 7}) ** 0 == BiPoly.one()
    assert (X + S) ** 2 == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # F(3) = x^2 + s from two recurrence steps, squared by hand
    f3 = BiPoly({(2, 0): 1, (0, 1): 1})
    assert f3**2 == BiPoly({(4, 0): 1, (2, 1): 2, (0, 2): 1})
    with pytest.raises(ValueError):
        X**-1


@given(bipolys, bipolys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(bipolys, bipolys, bipolys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@given(bipolys)
def test_additive_inverse(p):
    assert p + (-p) == BiPoly.zero()


# -- evaluation -----------------------------------------------------------------


def test_evaluate_examples():
    assert X.evaluate(1, 2) == 1  # Z(1) = x
    assert BiPoly.zero().evaluate(17, Fraction(3, 5)) == 0
    z2 = BiPoly({(1, 1): 4, (2, 0): 1})
    assert z2.evaluate(1, 2) == 9  # (2^2 - 1)^2
    # 0^0 = 1: the constant term survives at x0 = 0 and at s0 = 0.
    p = BiPoly({(0, 0): Fraction(-2, 3), (2, 0): 5, (0, 3): Fraction(1, 2), (1, 1): 7})
    assert p.evaluate(0, 0) == Fraction(-2, 3)
    assert p.evaluate(0, Fraction(2, 3)) == Fraction(-2, 3) + Fraction(4, 27)
    assert p.evaluate(Fraction(-3, 2), 0) == Fraction(-2, 3) + Fraction(45, 4)
    assert type(BiPoly.zero().evaluate(0, 0)) is Fraction
    assert UniPoly.zero().evaluate(Fraction(1, 3)) == 0
    assert UniPoly({0: 4, 7: 1}).evaluate(0) == 4
    assert UniPoly({40: Fraction(1, 2)}).evaluate(Fraction(-2, 3)) == Fraction(2**39, 3**40)


@given(bipolys, bipolys, st.integers(-9, 9), st.integers(-9, 9))
def test_evaluate_is_ring_homomorphism(p, q, a, b):
    assert (p * q).evaluate(a, b) == p.evaluate(a, b) * q.evaluate(a, b)
    assert (p + q).evaluate(a, b) == p.evaluate(a, b) + q.evaluate(a, b)


# Sparse exponents up to 40 and Fraction coefficients, for evaluate's
# common-denominator sum.
rational_coeffs = st.one_of(coeffs, st.fractions(min_value=-9, max_value=9, max_denominator=12))
sparse_exponents = st.one_of(exponents, st.integers(min_value=0, max_value=40))
rational_bipolys = st.dictionaries(
    st.tuples(sparse_exponents, sparse_exponents), rational_coeffs, max_size=8
).map(BiPoly)
rational_unipolys = st.dictionaries(sparse_exponents, rational_coeffs, max_size=8).map(UniPoly)
points = st.one_of(
    st.just(0), st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@given(rational_bipolys, points, points)
def test_evaluate_is_the_naive_sum(p, x0, s0):
    # Term by term on Fractions, where 0^0 = 1.
    naive = sum(
        (Fraction(c) * Fraction(x0) ** dx * Fraction(s0) ** ds for (dx, ds), c in p.terms()),
        Fraction(0),
    )
    value = p.evaluate(x0, s0)
    assert type(value) is Fraction
    assert value == naive


@given(rational_unipolys, points)
def test_univariate_evaluate_is_the_naive_sum(p, x0):
    naive = sum((Fraction(c) * Fraction(x0) ** k for k, c in p.terms()), Fraction(0))
    value = p.evaluate(x0)
    assert type(value) is Fraction
    assert value == naive


def test_substitute_s():
    z2 = BiPoly({(1, 1): 4, (2, 0): 1})
    assert z2.substitute_s(-1) == UniPoly({2: 1, 1: -4})
    assert z2.substitute_s(1) == UniPoly({2: 1, 1: 4})


# -- even substitution ----------------------------------------------------------


def test_even_substitute_halving():
    p = BiPoly({(4, 0): 1, (2, 1): 2})  # y^4 + 2sy^2
    assert p.even_substitute(X) == BiPoly({(2, 0): 1, (1, 1): 2})


def test_even_substitute_lucas_case():
    # L(2) = y^2 + 2s becomes x + 2s; subtracting 2s leaves Z(1) = x
    l2 = BiPoly({(2, 0): 1, (0, 1): 2})
    assert l2.even_substitute(X) == BiPoly({(1, 0): 1, (0, 1): 2})
    assert l2.even_substitute(X) - BiPoly.monomial(2, 0, 1) == X


def test_even_substitute_polynomial_target():
    # y^4 -> (x + 4s)^2 = x^2 + 8sx + 16s^2
    p = BiPoly({(4, 0): 1})
    q = BiPoly({(1, 0): 1, (0, 1): 4})
    assert p.even_substitute(q) == BiPoly({(2, 0): 1, (1, 1): 8, (0, 2): 16})


def test_even_substitute_odd_degree_rejected():
    with pytest.raises(OddDegreeError):
        BiPoly({(3, 0): 1}).even_substitute(X)


@given(bipolys)
def test_even_substitute_round_trip(h):
    doubled = BiPoly({(2 * dx, ds): c for (dx, ds), c in h.terms()})
    assert doubled.even_substitute(X) == h


# -- weighted degree -------------------------------------------------------------


def test_weighted_degree_examples():
    z3 = BiPoly({(1, 2): 9, (2, 1): 6, (3, 0): 1})
    assert z3.weighted_degree(1, 1) == (3, True)
    f4 = BiPoly({(3, 0): 1, (1, 1): 2})
    assert f4.weighted_degree(1, 2) == (3, True)
    assert BiPoly({(1, 0): 1, (0, 2): 1}).weighted_degree(1, 1) == (2, False)


def test_weighted_degree_errors():
    with pytest.raises(ZeroPolynomialError):
        BiPoly.zero().weighted_degree(1, 1)
    with pytest.raises(ValueError):
        X.weighted_degree(0, 1)


# -- univariate operations -------------------------------------------------------


def test_compose_identity():
    p = UniPoly({3: 2, 1: -1, 0: 5})
    assert p.compose(UniPoly.x()) == p


def test_compose_hand_cases():
    l2 = UniPoly({2: 1, 0: -2})
    composed = l2.compose(UniPoly({1: -1, 0: 2}))  # l2(2 - x)
    assert composed == UniPoly({2: 1, 1: -4, 0: 2})
    assert 2 - composed == UniPoly({1: 4, 2: -1})  # Zx(2) = 4x - x^2
    assert UniPoly.x().compose(UniPoly({1: 1, 0: 2})) == UniPoly({1: 1, 0: 2})


def test_compose_mixed_gaps():
    # degree gaps 3, 1 and 3, then the trailing constant: the shared gap
    # power is reused and must not leak between steps
    p = UniPoly({7: 2, 4: -3, 3: 5, 0: 1})
    r = UniPoly({2: 1, 1: Fraction(-1, 2), 0: 3})
    direct = UniPoly.zero()
    for k, c in p.terms():
        direct = direct + (r ** k).scale(c)
    assert p.compose(r) == direct


def test_compose_rational_coefficients():
    half_shift = UniPoly({1: Fraction(1, 2), 0: 1})  # (x + 2)/2
    t2 = UniPoly({2: 2, 0: -1})
    # 2*T2((x+2)/2) - 2 = (x+2)^2 - 4 = x^2 + 4x
    assert t2.compose(half_shift).scale(2) - 2 == UniPoly({2: 1, 1: 4})


def test_halve_degrees():
    assert UniPoly({4: 1, 2: -4, 0: 2}).halve_degrees() == UniPoly({2: 1, 1: -4, 0: 2})
    with pytest.raises(OddDegreeError):
        UniPoly({3: 1}).halve_degrees()
    # degrees in s pass through: y^4 + 2sy^2 + s^3 becomes x^2 + 2sx + s^3
    p = BiPoly({(4, 0): 1, (2, 1): 2, (0, 3): 1})
    assert p.halve_degrees() == BiPoly({(2, 0): 1, (1, 1): 2, (0, 3): 1})
    with pytest.raises(OddDegreeError):
        BiPoly({(1, 2): 1}).halve_degrees()


def test_univariate_degree_and_errors():
    assert UniPoly({5: 1, 0: -1}).degree() == 5
    with pytest.raises(ZeroPolynomialError):
        UniPoly.zero().degree()


def test_eval_float_simple():
    p = UniPoly({2: -1, 1: 4})
    assert p.eval_float(0.5) == pytest.approx(1.75, abs=1e-15)
    assert UniPoly.zero().eval_float(3.0) == 0.0


def test_evaluate_univariate_exact():
    p = UniPoly({2: -1, 1: 4})
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)


# -- rendering golden tests -------------------------------------------------------


def test_render_bivariate():
    z3 = BiPoly({(1, 2): 9, (2, 1): 6, (3, 0): 1})
    assert str(z3) == "x^3 + 6*s*x^2 + 9*s^2*x"
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.constant(2)) == "2"
    assert str(BiPoly({(0, 1): 2, (2, 0): 1})) == "x^2 + 2*s"
    assert str(BiPoly({(1, 1): -4, (2, 0): 1})) == "x^2 - 4*s*x"
    assert str(BiPoly({(1, 0): Fraction(1, 2)})) == "1/2*x"
    assert str(BiPoly({(0, 3): -1})) == "-s^3"
    assert repr(z3) == "BiPoly(x^3 + 6*s*x^2 + 9*s^2*x)"
    assert repr(BiPoly.zero()) == "BiPoly(0)"


def test_render_univariate():
    zx5 = UniPoly({1: 25, 2: -50, 3: 35, 4: -10, 5: 1})
    assert str(zx5) == "x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 25*x"
    assert str(UniPoly({2: -1, 1: 4})) == "-x^2 + 4*x"
    assert str(UniPoly.zero()) == "0"
    assert str(UniPoly.constant(-3)) == "-3"
    assert repr(UniPoly({2: -1, 1: 4})) == "UniPoly(-x^2 + 4*x)"
    assert repr(UniPoly.zero()) == "UniPoly(0)"


def test_render_truncation():
    p = BiPoly({(k, 0): 1 for k in range(10)})
    text = p.render(max_terms=4)
    assert "(6 more terms)" in text


# -- value semantics ---------------------------------------------------------------


def test_equality_and_hash():
    a = BiPoly({(1, 1): 4, (2, 0): 1})
    b = BiPoly({(2, 0): 1, (1, 1): Fraction(8, 2)})
    assert a == b
    assert hash(a) == hash(b)
    assert BiPoly.constant(5) == 5
    assert UniPoly.constant(Fraction(5, 1)) == 5
    # equal objects hash equal, so a constant is found where its scalar is
    assert 5 in {BiPoly.constant(5)}
    assert hash(BiPoly.zero()) == hash(0)
    assert hash(UniPoly.constant(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert UniPoly.constant(-2) in {-2: "two"}


def test_canonical_term_order():
    p = BiPoly({(0, 2): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
    keys = [key for key, _ in p.terms()]
    assert keys == [(2, 0), (1, 1), (1, 0), (0, 2)]
