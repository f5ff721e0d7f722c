"""Tests for the generating-function expansions."""

import pytest

from spreadpoly import (
    BiPoly,
    MalformedGF,
    RationalGF,
    UniPoly,
    expand,
    fibonacci,
    gf_of,
    lucas,
    z_polynomial,
)

X = BiPoly.x()
S = BiPoly.s()


def test_gf_structures():
    fib = gf_of("fibonacci")
    assert fib.numerator == (BiPoly.zero(), BiPoly.one())
    assert fib.denominator == (BiPoly.one(), -X, -S)

    luc = gf_of("lucas")
    assert luc.numerator == (BiPoly.constant(2), -X)
    assert luc.denominator == (BiPoly.one(), -X, -S)

    z = gf_of("z_shifted")
    assert z.numerator == (X, S * X)
    lead = X + S.scale(3)
    assert z.denominator == (BiPoly.one(), -lead, S * lead, -BiPoly.monomial(1, 0, 3))


def test_unknown_kind():
    with pytest.raises(ValueError):
        gf_of("catalan")


def test_expand_fibonacci_first_terms():
    out = expand(gf_of("fibonacci"), 3)
    assert out == [
        BiPoly.zero(),
        BiPoly.one(),
        X,
        BiPoly({(2, 0): 1, (0, 1): 1}),
    ]


def test_expand_lucas_first_terms():
    assert expand(gf_of("lucas"), 2) == [
        BiPoly.constant(2),
        X,
        BiPoly({(2, 0): 1, (0, 1): 2}),
    ]


def test_expand_z_shifted_first_terms():
    out = expand(gf_of("z_shifted"), 2)
    assert out == [
        X,
        BiPoly({(1, 1): 4, (2, 0): 1}),
        BiPoly({(1, 2): 9, (2, 1): 6, (3, 0): 1}),
    ]


def test_expand_matches_constructors():
    fib_series = expand(gf_of("fibonacci"), 32)
    lucas_series = expand(gf_of("lucas"), 32)
    z_series = expand(gf_of("z_shifted"), 31)
    for n in range(33):
        assert fib_series[n] == fibonacci(n)
        assert lucas_series[n] == lucas(n)
    for n in range(32):
        assert z_series[n] == z_polynomial(n + 1)


def test_convolution_round_trip():
    # expansion times denominator must reproduce the numerator through degree N
    N = 40
    for kind in ("fibonacci", "lucas", "z_shifted"):
        gf = gf_of(kind)
        series = expand(gf, N)
        for n in range(N + 1):
            total = BiPoly.zero()
            for j in range(min(n, len(gf.denominator) - 1) + 1):
                total = total + gf.denominator[j] * series[n - j]
            expected = gf.numerator[n] if n < len(gf.numerator) else BiPoly.zero()
            assert total == expected, (kind, n)


def test_malformed_denominator_rejected():
    bad = RationalGF(
        numerator=(BiPoly.one(),),
        denominator=(BiPoly.constant(2), -X),
    )
    with pytest.raises(MalformedGF):
        expand(bad, 3)
    with pytest.raises(ValueError):
        expand(gf_of("fibonacci"), -1)


def test_mixed_polynomial_types_rejected():
    # Every coefficient of N and D must be a BiPoly, also the ones a short
    # expansion never reads: the series is added into BiPoly term maps.
    one = BiPoly.one()
    cases = [
        RationalGF(numerator=(UniPoly.x(),), denominator=(one, -X)),
        RationalGF(numerator=(X,), denominator=(one, -UniPoly.x())),
        RationalGF(numerator=(X, UniPoly.one()), denominator=(one,)),
    ]
    for gf in cases:
        for N in (0, 3):
            with pytest.raises(TypeError):
                expand(gf, N)


def test_expand_leaves_its_input_unchanged():
    # a(n) starts from a copy of N(n): lucas has a(1) = -x + x * 2 = x, which
    # must not be written back into the numerator's -x.
    gf = gf_of("lucas")
    before = [dict(p.terms()) for p in (*gf.numerator, *gf.denominator)]
    first = expand(gf, 6)
    assert [dict(p.terms()) for p in (*gf.numerator, *gf.denominator)] == before
    assert first[1] == X and gf.numerator[1] == -X
    assert expand(gf, 6) == first


def test_cancelled_coefficients_are_dropped():
    # (1 + z) / (1 + z) = 1: every later a(n) cancels to the zero polynomial,
    # which stores no term; so does the x^2 of x (1 + x z) / (1 + x z).
    one = BiPoly.one()
    out = expand(RationalGF(numerator=(one, one), denominator=(one, one)), 3)
    assert out == [one, BiPoly.zero(), BiPoly.zero(), BiPoly.zero()]
    assert [len(p) for p in out] == [1, 0, 0, 0]
    out = expand(RationalGF(numerator=(X, X * X), denominator=(one, X)), 2)
    assert [len(p) for p in out] == [1, 0, 0] and out[0] == X
