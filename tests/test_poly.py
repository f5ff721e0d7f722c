"""Unit and property tests for the exact polynomial core."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spreadpoly import (
    BiPoly,
    OddDegreeError,
    UniPoly,
    ZeroPolynomialError,
    poly,
    sequences,
    spread_z_univariate,
    wildberger_spread,
    z_polynomial,
)
from spreadpoly.identities import _TRIG_SAMPLES

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
    # A term that is not stored has coefficient 0.
    assert BiPoly({(2, 0): 3}).coefficient(1, 1) == 0
    assert UniPoly({2: 3}).coefficient(1) == 0


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


def test_bool_coefficient_stored_as_int():
    stored = [
        BiPoly({(1, 0): True}).coefficient(1, 0),
        BiPoly.constant(True).coefficient(0, 0),
        UniPoly({2: True}).coefficient(2),
    ]
    assert stored == [1, 1, 1]
    assert all(type(c) is int for c in stored)


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


rational_coeffs = st.one_of(coeffs, st.fractions(min_value=-9, max_value=9, max_denominator=4))
rational_polys = st.one_of(
    st.dictionaries(st.tuples(exponents, exponents), rational_coeffs, max_size=5).map(BiPoly),
    st.dictionaries(exponents, rational_coeffs, max_size=5).map(UniPoly),
)


@given(
    rational_polys,
    st.one_of(
        st.sampled_from([0, 1, -1, 2, -4, Fraction(0), Fraction(6, 3)]),
        st.integers(min_value=-12, max_value=12),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    ),
)
@example(UniPoly({1: Fraction(1, 2), 0: Fraction(3, 4)}), 4)
@example(BiPoly({(1, 1): Fraction(-5, 2)}), Fraction(2, 5))
def test_scale_is_canonical(p, c):
    # No zero coefficient and no integral Fraction survives, whatever the factor.
    scaled = p.scale(c)
    for _, v in scaled.terms():
        assert v != 0
        assert type(v) is int or v.denominator != 1
    assert scaled == type(p)({key: v * c for key, v in p.terms()})


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
    # Every Z member has one term per x-degree; F and L members need not, and
    # 3 s x + 2 x + s^2 at s = 2 must add the two x terms.
    p = BiPoly({(1, 1): 3, (1, 0): 2, (0, 2): 1})
    assert p.substitute_s(2) == UniPoly({1: 8, 0: 4})
    assert p.substitute_s(Fraction(-2, 3)) == UniPoly({0: Fraction(4, 9)})


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


@pytest.mark.parametrize("target", [UniPoly.x(), 2], ids=["UniPoly", "int"])
def test_even_substitute_rejects_a_target_of_another_class(target):
    # A UniPoly target is refused before any ring operation could mix the
    # two classes, and an int before it could act as a constant polynomial.
    with pytest.raises(TypeError, match="^substitution target must be a BiPoly$"):
        BiPoly({(2, 0): 1}).even_substitute(target)


@given(bipolys)
def test_even_substitute_round_trip(h):
    doubled = BiPoly({(2 * dx, ds): c for (dx, ds), c in h.terms()})
    assert doubled.even_substitute(X) == h


# Rows of one to three s-degrees at x-degrees with mixed gaps, and targets of
# several terms, with Fraction coefficients throughout.
row_bipolys = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.dictionaries(st.integers(min_value=0, max_value=4), rational_coeffs, min_size=1, max_size=3),
    max_size=5,
).map(lambda rows: BiPoly({(dx, ds): c for dx, row in rows.items() for ds, c in row.items()}))
targets = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rational_coeffs, min_size=2, max_size=4
).map(BiPoly)


@given(row_bipolys, targets)
@example(BiPoly.zero(), BiPoly({(1, 0): 1, (0, 1): 4}))
@example(BiPoly({(5, 2): Fraction(1, 3), (5, 0): -2, (2, 1): 7, (0, 3): 1}), X + 4 * S)
def test_even_substitute_is_the_naive_sum(h, q):
    # x^(2k) s^ds -> q^k s^ds, term by term
    doubled = BiPoly({(2 * dx, ds): c for (dx, ds), c in h.terms()})
    naive = sum((q**k * BiPoly.monomial(c, 0, ds) for (k, ds), c in h.terms()), BiPoly.zero())
    assert doubled.even_substitute(q) == naive


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


@pytest.mark.parametrize("target", [BiPoly.x(), 2], ids=["BiPoly", "int"])
def test_compose_rejects_a_target_of_another_class(target):
    with pytest.raises(TypeError, match="^composition target must be a UniPoly$"):
        UniPoly({2: 1, 0: 1}).compose(target)


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


def test_horner_builds_no_zeroth_power(monkeypatch):
    # x^0 -> r^0 is the polynomial 1: a constant row ends the Horner pass
    # without a product by it.
    seen = []
    original = poly._SparsePoly.__pow__

    def recording(self, k):
        seen.append(k)
        return original(self, k)

    monkeypatch.setattr(poly._SparsePoly, "__pow__", recording)
    # p(x + 1) with p = x^3 - 2x + 5
    assert UniPoly({3: 1, 1: -2, 0: 5}).compose(UniPoly({1: 1, 0: 1})) == UniPoly(
        {3: 1, 2: 3, 1: 1, 0: 4}
    )
    # x^4 + 3sx^2 + 7s^2 with x^2 -> x + 4s
    h = BiPoly({(4, 0): 1, (2, 1): 3, (0, 2): 7})
    assert h.even_substitute(X + 4 * S) == BiPoly({(2, 0): 1, (1, 1): 11, (0, 2): 35})
    assert seen and 0 not in seen


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


def _exactly_rounded(value_at, x):
    """value_at(x) as hex, or the name of the OverflowError it raises."""
    try:
        return value_at(x).hex()
    except OverflowError:
        return "OverflowError"


def _assert_exact_at(p, x):
    # The exact value at the double x itself, rounded once by float(Fraction).
    reference = _exactly_rounded(lambda v: float(p.evaluate(Fraction(v))), x)
    assert _exactly_rounded(p.eval_float, x) == reference, (p, x)


def test_eval_float_is_the_exact_value_rounded_once_at_the_trig_angles():
    # Zx(n) at 4 sin^2 t and S(n) at sin^2 t, n <= 20, at the trig suite's
    # angles, where their alternating coefficients cancel.
    for n in range(1, 21):
        zx, sp = spread_z_univariate(n, method="via_l"), wildberger_spread(n)
        for i in range(1, _TRIG_SAMPLES + 1):
            sin2 = math.sin((math.pi / 2) * i / (_TRIG_SAMPLES + 1)) ** 2
            _assert_exact_at(zx, 4 * sin2)
            _assert_exact_at(sp, sin2)


@given(
    st.dictionaries(exponents, rational_coeffs, max_size=5).map(UniPoly),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(UniPoly({1: 1}), 1e308)
@example(UniPoly({2: Fraction(1, 3), 0: -1}), 1e308)
@example(UniPoly({5: Fraction(-7, 2), 1: 3}), 1e-300)
@example(UniPoly({1: Fraction(1, 4), 0: Fraction(1, 3)}), 5e-324)
@example(UniPoly({3: 1, 1: -1}), -2.2250738585072014e-308)
def test_eval_float_is_the_exact_value_rounded_once(p, x):
    _assert_exact_at(p, x)


def test_eval_float_past_the_double_range_and_at_non_finite_x():
    # Values within the double range at points so large that splitting x
    # into halves in doubles would overflow to nan.
    assert UniPoly({1: 1}).eval_float(1e301) == 1e301
    assert UniPoly({1: 1, 0: 1}).eval_float(1e308) == 1e308
    with pytest.raises(OverflowError):
        UniPoly({2: 1}).eval_float(1e200)
    # A non-finite x raises as float.as_integer_ratio does.
    for x in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            UniPoly({1: 1}).eval_float(x)
    with pytest.raises(ValueError):
        UniPoly({1: 1}).eval_float(math.nan)


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
    assert str(UniPoly({2: -1, 1: Fraction(1, 2)})) == "-x^2 + 1/2*x"
    # repr shows twelve terms.
    assert repr(UniPoly({k: 1 for k in range(12)})) == (
        "UniPoly(x^11 + x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1)"
    )
    assert repr(UniPoly({k: 1 for k in range(14)})) == (
        "UniPoly(x^13 + x^12 + x^11 + x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2"
        " + ... (2 more terms))"
    )


def test_render_truncation():
    p = BiPoly({(k, 0): 1 for k in range(10)})
    text = p.render(max_terms=4)
    assert "(6 more terms)" in text
    assert (BiPoly.x() + BiPoly.s()).render(max_terms=1) == "x + ... (1 more terms)"
    assert (BiPoly.x() + BiPoly.s()).render(max_terms=2) == "x + s"
    assert UniPoly.zero().render(max_terms=1) == "0"


@pytest.mark.parametrize("max_terms", [0, -1, True, 1.0])
def test_render_rejects_max_terms_below_one(max_terms):
    # Truncating to no terms would print only "+ ... (n more terms)".
    for p in (BiPoly.x(), BiPoly.x() + BiPoly.s(), BiPoly.zero(), UniPoly.x()):
        with pytest.raises(ValueError, match=r"^max_terms must be an integer >= 1, got "):
            p.render(max_terms=max_terms)


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


# -- packing -----------------------------------------------------------------------


def test_slot_width_holds_the_bound_in_whole_bytes():
    assert [poly._slot_width(b) for b in (0, 1, 127, 128, 2**15 - 1, 2**15)] == [8, 8, 8, 16, 16, 24]


@given(st.data(), st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=12))
def test_pack_unpack_round_trip(data, width_bytes, degree):
    # Signed coefficients up to the widest the slots hold, 2^(W-1) - 1.
    width = 8 * width_bytes
    top = (1 << (width - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    cs = data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    bound = max(map(abs, cs))
    uni = UniPoly(dict(enumerate(cs)))
    assert UniPoly._unpacked(uni._packed(width), width, bound, degree) == uni
    # A BiPoly whose terms have dx + 2 ds = degree: one slot per s-degree.
    bi = BiPoly({(degree - 2 * ds, ds): c for ds, c in enumerate(cs[: degree // 2 + 1])})
    assert BiPoly._unpacked(bi._packed(width), width, bound, degree, 2) == bi
    # A value past the member's slots is refused, not read as one more term.
    past = uni._packed(width) + (1 << width * (degree + 1))
    with pytest.raises(ArithmeticError):
        UniPoly._unpacked(past, width, bound, degree)
    past = bi._packed(width) + (1 << width * (degree // 2 + 1))
    with pytest.raises(ArithmeticError):
        BiPoly._unpacked(past, width, bound, degree, 2)


def test_shifts_multiply_as_the_packed_weight():
    # Mixed factors, a lone shift (factor 1), a negated one, and zero.
    a = (X * X - 5 * S) * S
    for weight in (X + 3 * S - 2 * S**2, S, -S, X - X):
        assert weight._shifts(16) * a._packed(16) == (weight * a)._packed(16)


signed_ints = st.one_of(st.just(0), st.integers(-(2**80), 2**80))
shift_sums = st.dictionaries(
    st.one_of(st.just(0), st.integers(0, 96)), st.sampled_from([-3, -1, 1, 2, 3]), max_size=4
)


@given(shift_sums, signed_ints, signed_ints)
@example({}, 5, 7)
@example({0: 1}, 0, -3)
@example({0: -1, 8: 1, 16: -3, 24: 2, 32: 3}, -(2**70) + 1, 2**64)
def test_shifts_add_to_is_the_shifted_sum(slot_sums, total, a):
    # total + sum c (a << shift): +1 and -1 run as an add and a subtract,
    # shift 0 as no shift, and the empty weight adds nothing.
    weight = poly._Shifts(slot_sums)
    expected = sum(c * (a << shift) for shift, c in slot_sums.items())
    assert weight.add_to(total, a) == total + expected
    assert weight * a == expected


@pytest.mark.parametrize("first", [1, -1, 2, -2, 3, -4])
@pytest.mark.parametrize("shift", [0, 8])
def test_shifts_multiply_starts_from_the_first_term(first, shift):
    # add_to from 0 (weight * a) takes its first term as the total instead of
    # adding it to 0; the value is the shifted sum whatever the first pair
    # is.  The first pair is the first slot, 2 folded to 1 one shift up.
    # The last tail cancels to 0 after two terms at first = 2, shift = 0, so
    # its third term meets a total of 0 again.
    for rest in ({}, {40: 1}, {40: -1, 72: 3}, {1: -1, 48: 5}):
        slot_sums = {shift: first, **{k: c for k, c in rest.items() if k != shift}}
        weight = poly._Shifts(slot_sums)
        assert weight._pairs[0] == ((1, shift + 1) if first == 2 else (first, shift))
        for a in (0, 1, -7, 2**100 + 3, -(2**200) - 5):
            expected = sum(c * (a << k) for k, c in slot_sums.items())
            assert weight * a == weight.add_to(0, a) == expected


@pytest.mark.parametrize(
    "c, pair",
    [
        (1, (1, 0)), (2, (1, 1)), (8, (1, 3)), (2**40, (1, 40)),
        (-2, (-2, 0)), (-8, (-8, 0)), (3, (3, 0)),
    ],
)
@pytest.mark.parametrize("shift", [0, 8])
def test_shifts_fold_positive_powers_of_two_into_the_shift(c, pair, shift):
    # 2^j at shift t is 1 at shift t + j: one shift where a shift and a
    # product were.  -2^j and 3 keep their product.  Either way add_to is
    # the unfolded shifted sum, from a total of 0 and from any other.
    weight = poly._Shifts({shift: c})
    assert weight._pairs == ((pair[0], pair[1] + shift),)
    for total in (0, 5, -(2**90)):
        for a in (0, 1, -7, 2**100 + 3, -(2**200) - 5):
            assert weight.add_to(total, a) == total + c * (a << shift)


def test_shifts_multiply_by_one_and_by_nothing():
    # The weight 1 (x at (x, s) = (1, 2^W), the first weight of F and L)
    # returns the member itself, no copy; the empty weight gives 0.
    a = 2**300 + 12345
    assert poly._Shifts({0: 1}) * a is a
    assert poly._Shifts({0: 1}).add_to(0, a) is a
    assert poly._Shifts({}) * a == 0
    assert poly._Shifts({0: 0, 8: 0}) * a == 0


def test_shifts_add_to_restarts_once_the_total_cancels():
    # The first term cancels the running total to 0 partway through the sum,
    # so the next term becomes the total (times c) instead of an add to 0: at
    # c = 1 and shift 0 it is the member itself, no copy.  A later term adds
    # to that total as usual.
    a = 2**300 + 12345
    assert poly._Shifts({8: 1, 0: 1}).add_to(-(a << 8), a) is a
    for c in (-1, 3):
        assert poly._Shifts({8: 1, 0: c}).add_to(-(a << 8), a) == c * a
    assert poly._Shifts({8: 1, 0: -1, 40: 1}).add_to(-(a << 8), a) == (a << 40) - a


def test_unpack_refuses_what_does_not_fit():
    # Explicit raises, so they hold under python -O.  A value one slot too
    # large, either sign, does not fit; the largest that fits does.
    width, slots = 16, 3
    full = sum(((1 << 15) - 1) << (width * j) for j in range(slots))
    low = -sum(1 << (15 + width * j) for j in range(slots))
    assert poly._digits(full, width, slots, (1 << 15) - 1) == [(1 << 15) - 1] * slots
    assert poly._digits(low, width, slots, 1) == [-(1 << 15)] * slots
    for value in (1 << (width * slots), -(1 << (width * slots)), full + 1, low - 1):
        with pytest.raises(ArithmeticError):
            poly._digits(value, width, slots, 1)
    # Coefficients up to 2^(W-1) may not read back, so such a bound is refused.
    with pytest.raises(ArithmeticError):
        poly._digits(0, width, slots, 1 << 15)
    for bad_width in (0, 12):
        with pytest.raises(ArithmeticError):
            poly._digits(0, bad_width, slots, 0)


@pytest.mark.parametrize("width, new", [(8, 8), (8, 16), (16, 40), (24, 96), (40, 48)])
def test_repacked_moves_signed_digits_into_wider_slots(width, new):
    # Each value's digits, of either sign and up to the ends of the slot's
    # range, land in the same order in new-bit slots, whether a value is
    # repacked alone or with others of other lengths.
    rng = random.Random(width * 1000 + new)
    half = 1 << (width - 1)
    rows = [[rng.randint(-half + 1, half - 1) for _ in range(slots)] for slots in (1, 2, 7, 40)]
    rows += [[], [half - 1] * 5, [-half] * 5, [0, 0, 3, -half], [5, -1, 0, 0]]
    values = [sum(c << width * j for j, c in enumerate(row)) for row in rows]
    expected = [sum(c << new * j for j, c in enumerate(row)) for row in rows]
    assert poly._repacked(values, width, half - 1, new) == expected
    assert [poly._repacked([value], width, half - 1, new)[0] for value in values] == expected


def test_repacked_refuses_what_does_not_fit():
    # The bound must fit the old slots, as for _digits, and the new slots may
    # be neither narrower nor a part of a byte; all are explicit raises, so
    # they hold under python -O.
    value = 5 + (7 << 16)
    assert poly._repacked([value], 16, 7, 24) == [5 + (7 << 24)]
    for width, bound, new in [(16, 1 << 15, 24), (12, 7, 24), (16, 7, 8), (24, 7, 16), (16, 7, 20)]:
        with pytest.raises(ArithmeticError):
            poly._repacked([value], width, bound, new)


def test_repacked_biases_no_more_slots_than_its_longest_value_needs(monkeypatch):
    # A repack's work grows with the slots it biases each value into.  Extra
    # slots only add zero digits, so the values come out the same and only
    # their count shows the waste: it must be at most the longest value's
    # bit length // width + 1.  It is checked before any field is built, as
    # a field per zero slot would take memory that grows with the value's
    # square.  The repacks are those of the block boundaries of
    # z_polynomial(600) and of S(600)'s ladder, and of random digit rows.
    repacked, biased, limit, fields = poly._repacked, poly._biased, None, []

    def spy(value, width, count, bound):
        if limit is not None:
            if count > limit:
                pytest.fail(f"{count} slots of {width} bits, where {limit} hold every value")
            fields.append(count)
        return biased(value, width, count, bound)

    def checked(values, width, bound, new):
        nonlocal limit
        limit = max(map(int.bit_length, values)) // width + 1
        try:
            return repacked(values, width, bound, new)
        finally:
            limit = None

    monkeypatch.setattr(poly, "_biased", spy)
    monkeypatch.setattr(sequences, "_repacked", checked)
    z_polynomial(600)
    sequences._built("s", "via_l", 600)
    # Z's window holds three states and the S ladder's two, at each of the
    # five block boundaries of n = 600.
    assert len(fields) == (3 + 2) * (len(sequences._blocks(600, sequences._z_bound)) - 1)
    rng = random.Random(36)
    for width, new in [(8, 16), (16, 40), (24, 96)]:
        half = 1 << (width - 1)
        for lengths in [(1,), (3, 40), (200, 7, 1)]:
            rows = [[rng.randint(-half + 1, half - 1) for _ in range(k)] for k in lengths]
            values = [sum(c << width * j for j, c in enumerate(row)) for row in rows]
            expected = [sum(c << new * j for j, c in enumerate(row)) for row in rows]
            assert checked(values, width, half - 1, new) == expected
