"""Tests for exact quadratic-surd arithmetic and the Binet closed forms."""

import ast
import hashlib
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadpoly import (
    BiPoly,
    DegenerateDiscriminant,
    DiscriminantMismatch,
    QuadExt,
    binet_fibonacci,
    binet_lucas,
    binet_z,
    characteristic_roots,
    check_root_relations,
    fibonacci,
    fibonacci_at,
    lucas,
    z_polynomial,
)
from spreadpoly import poly, surd
from spreadpoly.cli import main
from spreadpoly.verify import _binet_grid

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


def test_rational_minus_element():
    # int - u and Fraction - u subtract u from the rational, not add it.
    u = QuadExt(1, 2, 5)
    assert 3 - u == QuadExt(2, -2, 5)
    assert Fraction(1, 2) - u == QuadExt(Fraction(-1, 2), -2, 5)


def test_rational_element_hashes_as_its_rational():
    # A b = 0 element equals its rational, so it must hash as that rational:
    # a set or dict key holds the two as one.
    for c in (0, 4, -7, Fraction(3, 2)):
        u = QuadExt.from_rational(c, 5)
        assert u == c and hash(u) == hash(c)
        assert len({u, c}) == 1
    assert hash(QuadExt(4, 1, 5)) == hash((4, 1, 5))


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


# Any rational d, with 0, negative and non-integral values drawn on purpose:
# the integer power kernel scales by d's denominator M and works in Z[sqrt(N*M)].
any_discriminants = st.one_of(
    st.sampled_from([0, -1, -12, Fraction(5, 4), Fraction(-7, 3), Fraction(1, 9)]),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)


@given(rationals, st.one_of(st.just(0), rationals), any_discriminants)
def test_pow_consistency(a, b, d):
    u = QuadExt(a, b, d)
    product = QuadExt.from_rational(1, d)
    for k in range(41):
        power = u**k
        assert power == product, k
        assert repr(power) == repr(product), k  # same normalized int/Fraction parts
        product = product * u


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


def test_binet_fibonacci_is_the_doubling_kernel():
    # Grid points of either sign of the discriminant x^2 + 4s, including
    # non-square, rational-square and fractional ones.
    grid = [
        (x0, s0)
        for x0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-5, 3))
        for s0 in (Fraction(-3), Fraction(-1), Fraction(-2, 7), Fraction(1, 4), Fraction(2))
        if x0 * x0 + 4 * s0 != 0
    ]
    assert any(x0 * x0 + 4 * s0 < 0 for x0, s0 in grid)
    for n in range(41):
        for x0, s0 in grid:
            assert binet_fibonacci(n, x0, s0) == fibonacci_at(n, x0, s0), (n, x0, s0)


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
    # The conjugate power is taken on its own and must come back as (P, -Q).
    # A kernel that drops the sign of sqrt(D) breaks that; the check is an
    # explicit raise, so it holds under python -O.
    kernel = surd._surd_pow
    monkeypatch.setattr(surd, "_surd_pow", lambda p, q, big_d, n: kernel(p, abs(q), big_d, n))
    with pytest.raises(ArithmeticError):
        binet_fibonacci(3, 1, 1)
    with pytest.raises(ArithmeticError):
        binet_lucas(3, 1, 1)
    with pytest.raises(ArithmeticError):
        binet_z(3, 1, 2)


@pytest.mark.parametrize("point", [(0.5, 1), (1, 0.5), ("1/3", 1), (1, "2")])
def test_inexact_points_rejected(point):
    # Points pass the exact-rational guard of the *_at kernels.
    for form in (binet_fibonacci, binet_lucas, binet_z):
        with pytest.raises(TypeError):
            form(3, *point)
    with pytest.raises(TypeError):
        characteristic_roots(*point)
    with pytest.raises(TypeError):
        check_root_relations(*point)


def test_binet_formulas_are_the_closed_forms():
    # The paper's Binet formulas in the roots from characteristic_roots, with
    # the powers taken as repeated products, so no step shares the power
    # kernel that binet_* run on integers.  Seeded rational points, plus
    # x0 = 0, perfect-square discriminants (d = 4 at (0, 1), d = 9 at (1, 2))
    # and negative ones.
    rng = random.Random(2025)
    points = [(0, 1), (1, 2), (1, -1), (0, Fraction(-1, 3)), (Fraction(3, 2), Fraction(-5, 7))]
    while len(points) < 10:
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x0 * x0 + 4 * s0 != 0:
            points.append((x0, s0))
    discriminants = [x0 * x0 + 4 * s0 for x0, s0 in points]
    assert 4 in discriminants and 9 in discriminants
    assert any(d < 0 for d in discriminants) and any(x0 == 0 for x0, _ in points)
    wanted = {*range(61), 150}
    for x0, s0 in points:
        g, gbar = characteristic_roots(x0, s0)
        g_n, gbar_n = QuadExt.from_rational(1, g.d), QuadExt.from_rational(1, g.d)
        for n in range(2 * max(wanted) + 1):
            if n in wanted:
                assert (g_n - gbar_n) / (g - gbar) == binet_fibonacci(n, x0, s0), (n, x0, s0)
                assert g_n + gbar_n == binet_lucas(n, x0, s0), (n, x0, s0)
            if n % 2 == 0 and n // 2 in wanted:
                z = g_n + gbar_n - 2 * Fraction(s0) ** (n // 2)  # alpha^(2n) + alphabar^(2n) - 2 s^n
                assert z == binet_z(n // 2, x0, s0), (n, x0, s0)
            g_n, gbar_n = g_n * g, gbar_n * gbar


def _source(function):
    """The function's source as ``ast.unparse`` spells it, however the module
    file spells it: the mutation probe runs the tests on such copies."""
    return ast.unparse(ast.parse(inspect.getsource(function)))


def test_kernel_off_by_one_fails_pow_and_binet_suite(monkeypatch, capsys):
    # QuadExt.__pow__ and the closed forms run the one square-and-multiply
    # loop: an off-by-one in its Q part (2pq -> 3pq when squaring) fails both.
    source = _source(surd._surd_pow)
    assert source.count("2 * p * q") == 1
    namespace = dict(vars(surd))
    exec(source.replace("2 * p * q", "3 * p * q"), namespace)
    monkeypatch.setattr(surd, "_surd_pow", namespace["_surd_pow"])
    u = QuadExt(1, 1, 2)
    assert u**3 != u * u * u
    assert main(["verify", "binet", "--max-n", "3"]) == 1
    assert "witness [binet_fib_lucas n=2 at" in capsys.readouterr().out


# -- root relations ---------------------------------------------------------------


def test_root_relations_concrete_points():
    # (q, s) = (1, 2): alpha = 2, alphabar = -1
    result = check_root_relations(1, 2)
    assert result.passed and result.witness is None
    # (q, s) = (0, 1): alpha = 1, alphabar = -1 in disguise (d = 4)
    assert check_root_relations(0, 1).passed


def test_root_relations_rational_inputs():
    assert check_root_relations(Fraction(3, 2), Fraction(-1, 3)).passed


def _mutated(monkeypatch, name, old, new):
    """Patch surd.<name> with its own source, ``old`` replaced by ``new``."""
    source = _source(getattr(surd, name))
    assert source.count(old) == 1
    namespace = dict(vars(surd))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(surd, name, namespace[name])


def _mutated_cubic(monkeypatch, old, new):
    """Patch surd._cubic_sides with its own source, ``old`` replaced by ``new``."""
    _mutated(monkeypatch, "_cubic_sides", old, new)


def test_cubic_with_a_squared_x_fails_at_every_grid_point(monkeypatch, capsys):
    # x -> x^2 in the right side's x + 3s agrees with the true cubic at x = 0
    # and x = 1, so specializing x misses it at q = 0 and q = 1; the exact
    # comparison fails at every point, on the cubic (step 4).
    _mutated_cubic(monkeypatch, "lead = s * 3 + x\n", "lead = s * 3 + x * x\n")
    results = [check_root_relations(q, s) for q, s in _binet_grid()]
    assert len(results) == 26
    assert all(r.witness is not None and r.witness[0] == 4 for r in results)
    assert main(["verify", "binet", "--max-n", "1"]) == 1
    assert "witness [root_relations q=0, s=-3] index 4:" in capsys.readouterr().out


def test_cubic_with_a_stray_term_fails(monkeypatch):
    _mutated_cubic(monkeypatch, " - s ** 3\n", " - s ** 3 + s ** 4\n")
    result = check_root_relations(1, 2)
    assert result.witness is not None and result.witness[0] == 4


def test_cubic_sides_against_sympy():
    # The two sides expand equal in z, s and x, and their images at x = s^4
    # are the polynomials that _cubic_sides compares.
    sympy = pytest.importorskip("sympy")
    z, s, x = sympy.symbols("z s x")
    lhs = (z - s) * (z**2 - (x + 2 * s) * z + s**2)
    rhs = z**3 - (x + 3 * s) * z**2 + s * (x + 3 * s) * z - s**3
    assert sympy.expand(lhs - rhs) == 0
    for side, built in zip((lhs, rhs), surd._cubic_sides(BiPoly.x(), BiPoly.s(), BiPoly.s() ** 4)):
        terms = sympy.Poly(sympy.expand(side.subs(x, s**4)), z, s).terms()
        assert {k: int(c) for k, c in terms} == dict(built.terms())


# -- root relations decided on integers -------------------------------------------


def _quadext_first_failure(q, s0):
    """The first root-relation step that fails in QuadExt and BiPoly
    arithmetic, or None: the steps as exact comparisons of the algebraic
    values themselves, the reference for the integer decision.  Its roots
    come from ``characteristic_roots`` as imported, which a patch of
    ``surd.characteristic_roots`` leaves as it was; a patch of the integral
    point or the discriminant reaches it."""
    alpha, abar = characteristic_roots(q, s0)
    d = alpha.d
    q, s0 = Fraction(q), Fraction(s0)
    sqrt_d = QuadExt(0, 1, d)
    beta = (sqrt_d + q) * Fraction(1, 2)
    beta_bar = (sqrt_d - q) * Fraction(1, 2)
    zero = QuadExt.from_rational(0, d)
    steps = [
        (alpha, beta),
        (abar, -beta_bar),
        (beta * beta_bar, QuadExt.from_rational(s0, d)),
        (alpha**4 - (q * q + 2 * s0) * alpha**2 + s0 * s0, zero),
        surd._cubic_sides(BiPoly.x(), BiPoly.s(), BiPoly.s() ** 4),
    ]
    return next((i for i, (lhs, rhs) in enumerate(steps) if lhs != rhs), None)


def _root_points():
    """The 26 grid points and 20 seeded rational ones: x0 = 0, perfect-square
    discriminants (d = 4 at (0, 1), d = 9 at (1, 2)), negative ones, and
    non-integral q and s."""
    rng = random.Random(20)
    points = [(0, 1), (1, 2), (1, -1), (0, Fraction(-1, 3)), (Fraction(3, 2), Fraction(-5, 7))]
    while len(points) < 20:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q * q + 4 * s0 != 0:
            points.append((q, s0))
    discriminants = [q * q + 4 * s0 for q, s0 in points]
    assert 4 in discriminants and 9 in discriminants and any(d < 0 for d in discriminants)
    assert any(Fraction(q).denominator > 1 and Fraction(s0).denominator > 1 for q, s0 in points)
    return [*_binet_grid(), *points]


def _skewed_roots(monkeypatch, roots, part, by=Fraction(1, 3)):
    """characteristic_roots with one part (a, b or d) of the roots numbered
    ``roots`` (0 alpha, 1 alphabar) off by ``by``."""
    original = surd.characteristic_roots

    def skewed(q, s0):
        pair = list(original(q, s0))
        for i in roots:
            parts = {"a": pair[i].a, "b": pair[i].b, "d": pair[i].d}
            parts[part] += by
            pair[i] = QuadExt(parts["a"], parts["b"], parts["d"])
        return tuple(pair)

    monkeypatch.setattr(surd, "characteristic_roots", skewed)


def _skewed_discriminant(monkeypatch, part):
    """_discriminant with X (part 0) or D (part 2) one larger: the roots'
    rational parts, or their d, no longer those of (q, s0)."""
    discriminant = surd._discriminant

    def skewed(x0, s0):
        parts = list(discriminant(x0, s0))
        parts[part] += 1
        return tuple(parts)

    monkeypatch.setattr(surd, "_discriminant", skewed)


def _doubled_lam(monkeypatch):
    """The integral point (X, S, 2 lam): the roots come out as
    (X +/- sqrt(D)) / (4 lam), which only a check against q and s0 sees."""
    integral_point = surd._integral_point

    def skewed(x0, s0):
        x, s, lam = integral_point(x0, s0)
        return x, s, 2 * lam

    monkeypatch.setattr(surd, "_integral_point", skewed)


# Each mutation, and the steps it fails first (None: some points pass).  The
# decision reads (X, lam, D) from _discriminant and never the QuadExt roots:
# a skewed part of characteristic_roots' roots (the alpha.* and alphabar.*
# rows, and d shared by both) changes no verdict, while a skewed X fails
# step 0 and a skewed D step 2.
# The power kernel fails step 3 wherever q != 0: 3pq in its squaring alters
# both parts of A^2 and A^4, -2pq only the sqrt part of A^2.  A doubled lam
# halves both parts of each root: step 0 fails wherever q != 0, step 2 at q = 0.
_ROOT_MUTATIONS = {
    "none": (lambda mp: None, {None}),
    "alpha.a": (lambda mp: _skewed_roots(mp, (0,), "a"), {None}),
    "alpha.b": (lambda mp: _skewed_roots(mp, (0,), "b"), {None}),
    "alpha.d": (lambda mp: _skewed_roots(mp, (0,), "d"), {None}),
    "alphabar.a": (lambda mp: _skewed_roots(mp, (1,), "a"), {None}),
    "alphabar.b": (lambda mp: _skewed_roots(mp, (1,), "b"), {None}),
    "alpha.b=2": (lambda mp: _skewed_roots(mp, (0,), "b", Fraction(3, 2)), {None}),
    "alphabar.b=-2": (lambda mp: _skewed_roots(mp, (1,), "b", Fraction(-3, 2)), {None}),
    "alphabar.d": (lambda mp: _skewed_roots(mp, (1,), "d"), {None}),
    "d": (lambda mp: _skewed_roots(mp, (0, 1), "d"), {None}),
    "X": (lambda mp: _skewed_discriminant(mp, 0), {0}),
    "D": (lambda mp: _skewed_discriminant(mp, 2), {2}),
    "pow": (lambda mp: _mutated(mp, "_surd_pow", "2 * p * q", "3 * p * q"), {None, 3}),
    "pow_sign": (lambda mp: _mutated(mp, "_surd_pow", "2 * p * q", "-2 * p * q"), {None, 3}),
    "cubic": (
        lambda mp: _mutated(mp, "_cubic_sides", " - s ** 3\n", " - s ** 3 + s ** 4\n"),
        {4},
    ),
    "lam": (_doubled_lam, {0, 2}),
}


@pytest.mark.parametrize("mutation", list(_ROOT_MUTATIONS))
def test_root_relations_decide_as_the_quadext_steps(monkeypatch, mutation):
    mutate, expected = _ROOT_MUTATIONS[mutation]
    mutate(monkeypatch)
    seen = set()
    for q, s0 in _root_points():
        result = check_root_relations(q, s0)
        index = None if result.witness is None else result.witness[0]
        assert index == _quadext_first_failure(q, s0), (q, s0)
        seen.add(index)
    assert seen == expected


def test_passing_root_relations_build_no_quadext(monkeypatch):
    # The decision runs on the integers of one _discriminant call; only a
    # failing step's witness builds the QuadExt roots.
    built = []
    init = QuadExt.__init__
    monkeypatch.setattr(QuadExt, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    discriminant = surd._discriminant
    calls = []
    monkeypatch.setattr(surd, "_discriminant", lambda *a: calls.append(a) or discriminant(*a))
    points = _root_points()
    assert all(check_root_relations(q, s0).passed for q, s0 in points)
    assert built == []
    assert calls == points


def test_cubic_integers_decode_to_the_bipoly_sides():
    # In signed 8-bit slots the two ints are the sides' coefficients, slot
    # 16a + 4b + c holding z^a s^b x^c, which is z^a s^(b+4c) at x = s^4.
    s = BiPoly.s()
    built = surd._cubic_sides(BiPoly.x(), s, s**4)
    assert surd._CUBIC_POINT == (2**128, 2**32, 2**8)
    for value, side in zip(surd._cubic_sides(*surd._CUBIC_POINT), built):
        digits = poly._digits(value, 8, 64, 10)
        terms = {
            (slot >> 4, (slot >> 2 & 3) + 4 * (slot & 3)): c
            for slot, c in enumerate(digits)
            if c
        }
        assert terms == dict(side.terms())
        assert sum(map(abs, digits)) <= 10


def test_integer_decision_and_witness_disagreeing_raises(monkeypatch):
    # Sides that differ as ints but agree as BiPolys: the witness path finds
    # no failing step, and says so with an explicit raise (python -O too).
    sides = surd._cubic_sides
    monkeypatch.setattr(
        surd, "_cubic_sides", lambda z, s, x: (0, 1) if isinstance(z, int) else sides(z, s, x)
    )
    with pytest.raises(ArithmeticError, match="step 4"):
        check_root_relations(1, 2)


# sha256 of `verify binet --max-n 3` stdout under each mutation, as written
# by the QuadExt and BiPoly step list before the steps were decided on
# integers: the witnesses are byte for byte what they were.
_WITNESS_SHA256 = {
    "pow": "d4327b45257c78b402b271a3a5aa0b8466a922a6910cedddef6450d3ef8cabe3",
    "cubic_x_squared": "f397d08973c32a2d1c927368c85f633c135214ece49e6b46e94d3898e03a9b41",
    "lam": "a3c5314f18db1ab88191f69a2cee9c7914d0353591d7686352c8c1b2adaa54c7",
}


@pytest.mark.parametrize("mutation", list(_WITNESS_SHA256))
def test_witness_text_is_pinned(monkeypatch, capsys, mutation):
    if mutation == "pow":
        _mutated(monkeypatch, "_surd_pow", "2 * p * q", "3 * p * q")
    elif mutation == "lam":
        _doubled_lam(monkeypatch)
    else:
        _mutated_cubic(monkeypatch, "lead = s * 3 + x\n", "lead = s * 3 + x * x\n")
    assert main(["verify", "binet", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _WITNESS_SHA256[mutation]
