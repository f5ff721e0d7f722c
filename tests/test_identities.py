"""Tests for the identity checks, at hand-verified indices plus short sweeps."""

import itertools
import math
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadpoly import identities, poly, sequences, verify
from spreadpoly import (
    BiPoly,
    CheckResult,
    UniPoly,
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
    fibonacci,
    lucas,
    z_polynomial,
)
from spreadpoly import (
    QuadExt,
    binet_fibonacci,
    binet_lucas,
    binet_z,
    coefficient_c,
    expand,
    gf_of,
    spread_z_univariate,
    triangle,
    wildberger_spread,
)


def _all_pass(results):
    for r in results:
        assert r.passed, (r.name, r.range, r.witness)


def test_cassini_base_and_hand_case():
    assert check_cassini(1).passed  # 1 - 0 = (-s)^0
    # n=3: (x^2+s)^2 - x(x^3+2sx) = s^2
    assert check_cassini(3).passed
    _all_pass(check_cassini(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_cassini(0)


def test_z_cassini():
    assert check_z_cassini(1).passed  # both sides vanish
    assert check_z_cassini(2).passed  # x(9s^2x+6sx^2+x^3) = (3sx+x^2)^2
    _all_pass(check_z_cassini(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_z_cassini(0)


def test_lucas_binomial():
    assert check_lucas_binomial(1, "even").passed  # L2 - 2sL0 = x^2 - 2s
    assert check_lucas_binomial(0, "odd").passed  # L1 = x
    _all_pass(
        check_lucas_binomial(n, parity)
        for n in range(21)
        for parity in ("even", "odd")
    )
    with pytest.raises(ValueError):
        check_lucas_binomial(1, "mixed")


def test_z_binomial():
    assert check_z_binomial(1).passed  # Z1 - 2sZ0 = x
    assert check_z_binomial(2).passed  # Z2 - 4sZ1 + 6s^2 Z0 = x^2
    _all_pass(check_z_binomial(n) for n in range(1, 21))


def test_z_binomial_excluded_boundary():
    # at n=0 the stated sum reads 0 = 1, so the index is rejected
    with pytest.raises(ValueError):
        check_z_binomial(0)


def test_symmetry():
    assert check_symmetry(1).passed
    assert check_symmetry(2).passed  # -s^2 Zx(2)(-x/s) rebuilds 4sx + x^2
    _all_pass(check_symmetry(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_symmetry(0)


@pytest.mark.parametrize(
    "n, extra, witness",
    [
        (1, {2: 1}, (1, "x^2 + x", "x")),
        (3, {5: -2}, (3, "-2*x^5 + x^3 - 6*x^2 + 9*x", "x^3 + 6*s*x^2 + 9*s^2*x")),
    ],
)
def test_symmetry_witness_of_a_term_above_degree_n(n, extra, witness):
    # No Z(n) has a term that would rebuild with a negative power of s, so
    # the witness is the two members as given, with no term rendered
    # without its s^(n-k).
    zx = spread_z_univariate(n) + UniPoly(extra)
    assert check_symmetry(n, (zx, z_polynomial(n))).witness == witness


def test_coefficient_forms():
    assert check_coefficient_forms(5).passed  # row (25, 50, 35, 10, 1)
    assert check_coefficient_forms(1).passed
    _all_pass(check_coefficient_forms(n) for n in range(1, 31))


def test_trig_small_n():
    assert check_trig(1).passed  # Z(1) is the identity polynomial
    assert check_trig(2).passed
    _all_pass(check_trig(n) for n in range(1, 11))
    with pytest.raises(ValueError):
        check_trig(0)


def test_trig_deviation_is_bit_identical_to_the_per_angle_eval_float_form():
    # check_trig converts each member's coefficients to doubles once, for all
    # its angles; its worst deviation must be the very double that calling
    # eval_float angle by angle gives.
    for n in range(1, 21):
        zx = spread_z_univariate(n, method="via_l")
        sp = wildberger_spread(n)
        worst = 0.0
        for i in range(1, identities._TRIG_SAMPLES + 1):
            theta = (math.pi / 2) * i / (identities._TRIG_SAMPLES + 1)
            sin2 = math.sin(theta) ** 2
            target = math.sin(n * theta) ** 2
            worst = max(worst, abs(zx.eval_float(4 * sin2) - 4 * target))
            worst = max(worst, abs(sp.eval_float(sin2) - target))
        assert identities._trig_deviation(n).hex() == worst.hex(), n


def test_trig_z2_hand_value():
    # Zx(2)(2) = 8 - 4 = 4 = 4 sin^2(pi/2)
    zx2 = UniPoly({1: 4, 2: -1})
    assert zx2.eval_float(2.0) == pytest.approx(4.0, abs=1e-12)


def test_chebyshev_bala():
    assert check_chebyshev_bala(1).passed  # l1(x+2) - 2 = x
    assert check_chebyshev_bala(2).passed  # (x+2)^2 - 4 = x^2 + 4x
    _all_pass(check_chebyshev_bala(n) for n in range(1, 26))
    with pytest.raises(ValueError):
        check_chebyshev_bala(0)


def test_l_doubling():
    assert check_l_doubling(1).passed  # l2 = l1(x^2 - 2)
    assert check_l_doubling(2).passed  # l4 = (x^2-2)^2 - 2
    _all_pass(check_l_doubling(n) for n in range(1, 26))
    with pytest.raises(ValueError):
        check_l_doubling(0)


def test_failing_comparison_builds_witness():
    result = compare_polynomials("demo", "n=1", 1, BiPoly.x(), BiPoly.s())
    assert not result.passed
    index, lhs, rhs = result.witness
    assert index == 1
    assert lhs == "x"
    assert rhs == "s"


def test_check_result_invariant():
    assert not CheckResult(name="bad", range="n=1", witness=(1, "a", "b")).passed
    assert CheckResult(name="good", range="n=1", witness=None).passed


def test_witness_is_truncated():
    big = BiPoly({(k, 0): 1 for k in range(60)})
    result = compare_polynomials("demo", "n=1", 1, big, BiPoly.zero())
    assert "more terms" in result.witness[1]


_INDEXED = {
    "check_cassini": check_cassini,
    "check_z_cassini": check_z_cassini,
    "check_lucas_binomial": lambda n: check_lucas_binomial(n, "even"),
    "check_z_binomial": check_z_binomial,
    "check_symmetry": check_symmetry,
    "check_coefficient_forms": check_coefficient_forms,
    "check_trig": check_trig,
    "check_chebyshev_bala": check_chebyshev_bala,
    "check_l_doubling": check_l_doubling,
    "binet_fibonacci": lambda n: binet_fibonacci(n, 1, 1),
    "binet_lucas": lambda n: binet_lucas(n, 1, 1),
    "binet_z": lambda n: binet_z(n, 1, 1),
    "triangle": triangle,
    "Triangle.row": lambda n: triangle(3).row(n),
    "coefficient_c_n": lambda n: coefficient_c(n, 1),
    "coefficient_c_k": lambda n: coefficient_c(1, n),
    "expand": lambda n: expand(gf_of("fibonacci"), n),
    "BiPoly.__pow__": lambda n: BiPoly.x() ** n,
    "UniPoly.__pow__": lambda n: UniPoly.x() ** n,
    "QuadExt.__pow__": lambda n: QuadExt(1, 1, 2) ** n,
}


@pytest.mark.parametrize("call", _INDEXED.values(), ids=_INDEXED.keys())
def test_bool_index_rejected(call):
    # bool is an int subclass; an index of True is a caller's mistake, never 1.
    with pytest.raises(ValueError):
        call(True)


# -- decided on integers: mutations, the failure path and the width ------------

SWEEP_N = 9


def _stray(p):
    """p with its top term moved up one x-degree: the same s-degree slot, so
    p's value at (x, s) = (1, 2^W) is unchanged, and only the homogeneity
    guard can tell."""
    (dx, ds), _ = next(p.terms())
    return p + BiPoly.monomial(1, dx + 1, ds) - BiPoly.monomial(1, dx, ds)


def _skew_low(p):
    return p + 1


def _skew_top(p):
    return p + UniPoly({p.degree(): 1})


def _sides(name, n, members, parity=None):
    """The check's name and its pairs of sides as polynomials, built as the
    checks built them before they were decided on integers."""
    if name == "check_cassini":
        before, mid, after = members[n - 1 : n + 2]
        return "cassini", [(mid * mid - before * after, BiPoly.monomial((-1) ** (n - 1), 0, n - 1))]
    if name == "check_z_cassini":
        before, mid, after = members[n - 1 : n + 2]
        inner = mid - BiPoly.monomial(1, 1, n - 1)
        return "z_cassini", [(before * after, inner * inner)]
    if name == "check_lucas_binomial":
        top = 2 * n + (parity == "odd")
        total = BiPoly.zero()
        for j in range(n + 1):
            total = total + BiPoly.monomial((-1) ** j * comb(top, j), 0, j) * members[top - 2 * j]
        rhs = BiPoly.monomial(1, top, 0)
        if parity == "even":
            rhs = rhs + BiPoly.monomial((-1) ** n * comb(top, n), 0, n)
        return f"lucas_binomial_{parity}", [(total, rhs)]
    if name == "check_z_binomial":
        total = BiPoly.zero()
        for j in range(n + 1):
            total = total + BiPoly.monomial((-1) ** j * comb(2 * n, j), 0, j) * members[n - j]
        return "z_binomial", [(total, BiPoly.monomial(1, n, 0))]
    if name == "check_chebyshev_bala":
        t, ln, zx, zb = members
        base = ln.compose(UniPoly({1: 1, 0: 2})) - 2
        return "chebyshev_bala", [
            (t.scale(2), ln.compose(UniPoly({1: 2}))),
            (base, -zx.compose(UniPoly({1: -1}))),
            (base, zb.substitute_s(1)),
        ]
    doubled, ln, zx_l2n, zx_l = members
    return "l_doubling", [(doubled, ln.compose(UniPoly({2: 1, 0: -2}))), (zx_l2n, zx_l)]


def _reference(check, n, *args):
    *parity, members = args
    name, pairs = _sides(check, n, tuple(members), *parity)
    return identities._agree(name, n, pairs)


# The members a check builds for itself when called with n alone.
_ALONE = {
    "check_cassini": lambda n: identities._fib_list(n + 1),
    "check_z_cassini": lambda n: identities._z_list(n + 1),
    "check_lucas_binomial": lambda n, parity: identities._lucas_list(2 * n + (parity == "odd")),
    "check_z_binomial": lambda n: identities._z_list(n),
    "check_chebyshev_bala": lambda n: (
        identities.chebyshev_t(n),
        identities.univariate_l(n),
        identities.spread_z_univariate(n, method="via_l"),
        identities.z_polynomial(n),
    ),
    "check_l_doubling": lambda n: (
        identities.univariate_l(2 * n),
        identities.univariate_l(n),
        identities.spread_z_univariate(n, method="via_l2n"),
        identities.spread_z_univariate(n, method="via_l"),
    ),
}


def _mutating(build, picks, index, mutate):
    """build, with member ``index`` mutated in what the calls that ``picks``
    selects return: a list, a stream, or member n itself."""

    def patched(*args, **options):
        built = build(*args, **options)
        if not picks(*args, **options):
            return built
        if isinstance(built, list):
            return [mutate(p) if k == index else p for k, p in enumerate(built)]
        if isinstance(built, (BiPoly, UniPoly)):
            return mutate(built) if args[0] == index else built
        return (mutate(p) if k == index else p for k, p in enumerate(built))

    return patched


def _every(*_, **__):
    return True


def _family(wanted, wanted_method="recurrence"):
    return lambda last, family, method="recurrence": (family, method) == (wanted, wanted_method)


def _method(wanted):
    return lambda n, method="via_l": method == wanted


# Per mutation: the suite, its check, the mutated member's index and the
# mutation, the member source a sweep reads (in verify) and a lone call reads
# (in identities), each with the calls whose result is mutated, and the n
# that must fail.  l(10) is read as l(2n) at n = 5 only, the l(n) stream of
# a sweep to 9 never reaching it.
_MUTATIONS = {
    "cassini F(5) stray": (
        "cassini", "check_cassini", 5, _stray,
        ("_fib_list", _every), ("_fib_list", _every), {4, 5, 6},
    ),
    "z_cassini Z(5) stray": (
        "z_cassini", "check_z_cassini", 5, _stray,
        ("_z_list", _every), ("_z_list", _every), {4, 5, 6},
    ),
    "lucas_binomial L(5) stray": (
        "lucas_binomial", "check_lucas_binomial", 5, _stray,
        ("_lucas_list", _every), ("_lucas_list", _every), set(range(2, SWEEP_N + 1)),
    ),
    "z_binomial Z(5) stray": (
        "z_binomial", "check_z_binomial", 5, _stray,
        ("_z_list", _every), ("_z_list", _every), set(range(5, SWEEP_N + 1)),
    ),
    "chebyshev l(5) constant": (
        "chebyshev", "check_chebyshev_bala", 5, _skew_low,
        ("_stream", _family("l")), ("univariate_l", _every), {5},
    ),
    "chebyshev Zx(5) top": (
        "chebyshev", "check_chebyshev_bala", 5, _skew_top,
        ("_stream", _family("zx", "via_l")), ("spread_z_univariate", _method("via_l")), {5},
    ),
    "doubling Zx(5) via_l2n constant": (
        "doubling", "check_l_doubling", 5, _skew_low,
        ("_stream", _family("zx", "via_l2n")), ("spread_z_univariate", _method("via_l2n")), {5},
    ),
    "doubling l(10) top": (
        "doubling", "check_l_doubling", 10, _skew_top,
        ("_stream", _family("l")), ("univariate_l", _every), {5},
    ),
}


def _recording(check, calls):
    def recorded(*args):
        calls.append(args)
        return check(*args)

    return recorded


@pytest.mark.parametrize("case", _MUTATIONS.values(), ids=_MUTATIONS.keys())
def test_mutated_member_fails_at_its_n_with_the_polynomial_witness(case, monkeypatch):
    suite, check, index, mutate, (sweep_source, sweep_picks), (alone_source, alone_picks), ns = case
    checked = getattr(identities, check)
    # In a sweep: every check gets the members the (mutated) source streamed,
    # and fails exactly where the polynomials differ, with their witness.
    calls = []
    monkeypatch.setattr(verify, check, _recording(checked, calls))
    monkeypatch.setattr(
        verify, sweep_source, _mutating(getattr(verify, sweep_source), sweep_picks, index, mutate)
    )
    report = verify.SUITES[suite](SWEEP_N)
    expected = tuple(r for r in (_reference(check, *args) for args in calls) if not r.passed)
    assert report.failures == expected
    assert {f.witness[0] for f in report.failures} == ns
    # Called with n alone, with the check's own builders mutated alike.
    monkeypatch.setattr(
        identities,
        alone_source,
        _mutating(getattr(identities, alone_source), alone_picks, index, mutate),
    )
    args = [
        (n, *parity)
        for n in range(1, SWEEP_N + 1)
        for parity in ([("even",), ("odd",)] if check == "check_lucas_binomial" else [()])
    ]
    alone = [(checked(*a), _reference(check, *a, _ALONE[check](*a))) for a in args]
    assert all(result == reference for result, reference in alone)
    assert {result.witness[0] for result, _ in alone if not result.passed} == ns


def test_differing_values_on_equal_polynomials_raise(monkeypatch):
    # A sweep's packing with one value off: the values differ, the
    # polynomials agree, so the integer decision is broken.  An explicit
    # raise, so it also holds under python -O.
    members = [fibonacci(k) for k in range(6)]
    packed = identities._pack(members, (1, 2), lambda sums: identities._cassini_bound(4, sums))
    packed.values[4] += 1
    with pytest.raises(ArithmeticError, match=r"cassini n=4: the values differ"):
        check_cassini(4, packed)
    value_at = identities._value_at
    monkeypatch.setattr(identities, "_value_at", lambda p, point: value_at(p, point) + 1)
    for check in (check_chebyshev_bala, check_l_doubling):
        with pytest.raises(ArithmeticError, match="the values differ"):
            check(3)


# check -> (n, parity, members that stop one short of the highest index the
# check reads at n).  An old-style Cassini window (a(n-1), a(n), a(n+1)) at
# n >= 2 is such a list.
_SHORT = {
    "check_cassini": (3, (), lambda: [fibonacci(2), fibonacci(3)], 4),
    "check_cassini window": (3, (), lambda: [fibonacci(k) for k in (2, 3, 4)], 4),
    "check_z_cassini window": (2, (), lambda: [z_polynomial(k) for k in (1, 2, 3)], 3),
    "check_lucas_binomial even": (3, ("even",), lambda: [lucas(k) for k in range(3)], 6),
    "check_lucas_binomial odd": (3, ("odd",), lambda: [lucas(k) for k in range(7)], 7),
    "check_z_binomial": (3, (), lambda: [z_polynomial(0), z_polynomial(1)], 3),
}


@pytest.mark.parametrize("check", _SHORT, ids=_SHORT)
def test_too_few_members_raise_a_clean_error(check):
    n, parity, build, last = _SHORT[check]
    members = build()
    checked = getattr(identities, check.split()[0])
    message = f"^the check reads member {last}, but was given {len(members)} members$"
    with pytest.raises(ValueError, match=message):
        checked(n, *parity, members)
    # Packed as a sweep packs them, they are still too few.
    weights = (1, 1) if "z_" in check else (1, 2)
    with pytest.raises(ValueError, match=message):
        checked(n, *parity, identities._pack(members, weights, lambda sums: 0))


# check -> (n, parity, its members at n, the member that gets a stray term,
# and the sign of the top member in the left side minus the right).  Cassini
# reads F(1) = 1 at n = 2 and z_cassini is given Z(0) = 1 at n = 1, so that
# each top member enters its identity with a unit coefficient.
_STRAY = {
    "check_cassini": (2, (), lambda: [fibonacci(k) for k in range(4)], 2, -1),
    "check_z_cassini": (1, (), lambda: [BiPoly.one(), z_polynomial(1), z_polynomial(2)], 1, 1),
    "check_lucas_binomial even": (2, ("even",), lambda: [lucas(k) for k in range(5)], 2, 1),
    "check_lucas_binomial odd": (2, ("odd",), lambda: [lucas(k) for k in range(6)], 3, 1),
    "check_z_binomial": (3, (), lambda: [z_polynomial(k) for k in range(4)], 1, 1),
}


@pytest.mark.parametrize("check", _STRAY, ids=_STRAY)
def test_non_homogeneous_members_are_decided_by_their_polynomials(check):
    # A constant added to a member of positive degree leaves it
    # weighted-homogeneous of no degree, so no values are compared: the
    # polynomials decide alone, and an identity that holds passes rather than
    # raising.  One more on the top member breaks it, for the witness that
    # the reference sides give.
    n, parity, build, stray, sign = _STRAY[check]
    name = check.split()[0]
    members = build()
    members[stray] = members[stray] + 7
    _, [(lhs, rhs)] = _sides(name, n, members, *parity)
    members[-1] = members[-1] + sign * (rhs - lhs)
    _, [(lhs, rhs)] = _sides(name, n, members, *parity)
    assert lhs == rhs
    checked = getattr(identities, name)
    assert checked(n, *parity, members).passed
    members[-1] = members[-1] + 1
    result = checked(n, *parity, members)
    assert not result.passed
    assert result == _reference(name, n, *parity, members)


def test_even_lucas_binomial_witness():
    # A skew of L(2) by s keeps it homogeneous, so the values are compared
    # and differ, and the even right side x^(2n) + (-s)^n C(2n, n) goes into
    # the witness.
    for n in (1, 2, 3):
        members = [lucas(k) for k in range(2 * n + 1)]
        members[2] = members[2] + BiPoly.s()
        result = check_lucas_binomial(n, "even", members)
        assert result == _reference("check_lucas_binomial", n, "even", members)
        assert not result.passed and result.witness[0] == n


def test_trig_witness(monkeypatch):
    # Zx(n) one too high deviates by 1 at every angle.
    zx = identities.spread_z_univariate
    monkeypatch.setattr(identities, "spread_z_univariate", lambda n, method: zx(n, method) + 1)
    assert check_trig(4) == CheckResult(
        "trig", "n=4", (4, "max deviation 1.000e+00", "tolerance 1e-09")
    )
    # The tolerance itself is a deviation too large.
    monkeypatch.setattr(identities, "_trig_deviation", lambda n: identities._TRIG_TOL)
    assert check_trig(4).witness == (4, "max deviation 1.000e-09", "tolerance 1e-09")


def test_chebyshev_doubled_t_witness():
    # 2 T(3) + 2 x^2 against l(3)(2x) = 8 x^3 - 6 x: the first pair differs,
    # and its witness shows both sides.
    members = (
        identities.chebyshev_t(3) + UniPoly({2: 1}),
        identities.univariate_l(3),
        identities.spread_z_univariate(3, method="via_l"),
        identities.z_polynomial(3),
    )
    assert check_chebyshev_bala(3, members) == CheckResult(
        "chebyshev_bala", "n=3", (3, "8*x^3 + 2*x^2 - 6*x", "8*x^3 - 6*x")
    )


def _old_chebyshev_bala(members):
    """Every comparison check_chebyshev_bala once made: 2^k divides coefficient
    k of 2 T(n); its halving h gives h(x+2) - 2 = l(n)(x+2) - 2 = -Zx(n)(-x)
    = Z(n)(x, 1); and 2 T(n)(x) = l(n)(2x)."""
    t, ln, zx, zb = members
    doubled = t.scale(2)
    if any(c % 2**k for k, c in doubled.terms()):
        return False
    shifted = UniPoly({1: 1, 0: 2})
    base = UniPoly({k: c // 2**k for k, c in doubled.terms()}).compose(shifted) - 2
    links = [ln.compose(shifted) - 2, -zx.compose(UniPoly({1: -1})), zb.substitute_s(1)]
    return all(base == link for link in links) and doubled == ln.compose(UniPoly({1: 2}))


def _old_symmetry(n, zx, zb):
    """Every comparison check_symmetry once made: Zx(n) = (-1)^(n-1) Z(n)(x, -1),
    and Zx(n) = sum a_k x^k rebuilds Z(n) as -sum a_k (-1)^k s^(n-k) x^k."""
    rebuilt = BiPoly({(k, n - k): -c * (-1) ** k for k, c in zx.terms()})
    return zx == zb.substitute_s(-1).scale((-1) ** (n - 1)) and rebuilt == zb


@st.composite
def _spread_members(draw):
    """n and members (T, l, Zx, Z) that hold every identity of both checks,
    from an integer l of degree n at most with an even constant, each then
    perhaps changed: by a drawn term, or Z by a term times s - 1 or s + 1,
    which Z(x, 1) or Z(x, -1) does not see."""
    n = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    half = draw(small)
    ln = UniPoly({k: draw(small) for k in range(1, n + 1)}) + 2 * half
    t = UniPoly({k: c * 2 ** (k - 1) for k, c in ln.terms() if k}) + half
    zx = 2 - ln.compose(UniPoly({1: -1, 0: 2}))
    zb = BiPoly({(k, n - k): -c * (-1) ** k for k, c in zx.terms()})
    members = [t, ln, zx, zb]
    for index, top in enumerate((n + 1, n + 1, n)):
        if draw(st.booleans()):
            members[index] = members[index] + UniPoly({draw(st.integers(0, top)): draw(small)})
    factor = draw(st.sampled_from([None, BiPoly.one(), BiPoly.s() - 1, BiPoly.s() + 1]))
    if factor is not None:
        j = draw(st.integers(0, n))
        members[3] = members[3] + factor * BiPoly.monomial(draw(small), j, n - j)
    return n, tuple(members)


_T3_PLUS_X2 = (  # coefficient 2 of 2 T(3) + 2 x^2 is not divisible by 2^2
    3,
    (
        sequences.chebyshev_t(3) + UniPoly({2: 1}),
        sequences.univariate_l(3),
        spread_z_univariate(3, "via_l"),
        z_polynomial(3),
    ),
)


@settings(deadline=None, max_examples=200)
@given(_spread_members())
@example(_T3_PLUS_X2)
def test_chebyshev_bala_and_symmetry_decide_as_every_old_comparison(case):
    # Each check dropped comparisons that its others imply: 2 T(n)(x) =
    # l(n)(2x) implies the divisibility and that the halving is l(n), and the
    # rebuilt Z(n) at s = -1 is (-1)^(n-1) Zx(n).  Its verdict must still be
    # that of every comparison it made before.
    n, members = case
    assert check_chebyshev_bala(n, members).passed == _old_chebyshev_bala(members)
    assert check_symmetry(n, members[2:]).passed == _old_symmetry(n, *members[2:])


def _homogeneous(degree, s_weight, coefficient):
    """Integer polynomials weighted-homogeneous of ``degree`` under (1, s_weight)."""
    slots = degree // s_weight + 1
    return st.lists(coefficient, min_size=slots, max_size=slots).map(
        lambda cs: BiPoly({(degree - s_weight * j, j): c for j, c in enumerate(cs)})
    )


def _z_binomial(n):
    """check_z_binomial as data: [(c_j, k_j)] for its left side, the sum of
    c_j s^j Z(k_j) over j, and its right side."""
    terms = [((-1) ** j * comb(2 * n, j), n - j) for j in range(n + 1)]
    return terms, BiPoly.monomial(1, n, 0)


def _lucas_binomial_odd(n):
    top = 2 * n + 1
    terms = [((-1) ** j * comb(top, j), top - 2 * j) for j in range(n + 1)]
    return terms, BiPoly.monomial(1, top, 0)


# family -> (check, its sides as data, s-weight, the bound of the check on a
# list of absolute coefficient sums, those sums for the family's own members)
_LINEAR = {
    "z": (
        check_z_binomial,
        _z_binomial,
        1,
        identities._z_binomial_bound,
        lambda n: [sequences._z_bound(k) for k in range(n + 1)],
    ),
    "lucas odd": (
        lambda n, members: check_lucas_binomial(n, "odd", members),
        _lucas_binomial_odd,
        2,
        lambda n, sums: identities._lucas_binomial_bound(n, 2 * n + 1, sums),
        lambda n: [sequences._lucas_bound(k) for k in range(2 * n + 2)],
    ),
}


def _left(terms, members):
    products = (BiPoly.monomial(c, 0, j) * members[k] for j, (c, k) in enumerate(terms))
    return sum(products, BiPoly.zero())


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(sorted(_LINEAR)), st.integers(1, 5), st.data())
def test_packed_verdict_is_polynomial_equality(family, n, data):
    # Members far above the family's coefficients, the top one solved so the
    # identity holds, then perhaps a carry that vanishes at (1, 2^w) for the
    # width w of the bound on the family's own members: a width taken from
    # that bound, not from the members' coefficient sums, would pass it.
    check, sides, s_weight, bound, family_sums = _LINEAR[family]
    terms, rhs = sides(n)
    (_, top), big = terms[0], st.integers(-(2**200), 2**200)
    members = [data.draw(_homogeneous(k, s_weight, big)) for k in range(top)] + [BiPoly.zero()]
    members[top] = rhs - _left(terms, members)  # its coefficient c_0 is 1
    if data.draw(st.booleans()):
        k = data.draw(st.integers(s_weight, top))
        j = data.draw(st.integers(0, k // s_weight - 1))
        c = data.draw(st.integers(1, 2**64))
        w = poly._slot_width(bound(n, family_sums(n)))
        carry = BiPoly.monomial(c << w, k - s_weight * j, j) - BiPoly.monomial(
            c, k - s_weight * (j + 1), j + 1
        )
        assert carry._packed(w) == 0
        members[k] = members[k] + carry
    holds = _left(terms, members) == rhs
    assert check(n, members).passed == holds
    # The same verdict from a sweep's packing of the members, at the width of
    # the check's own bound, and from one too narrow, which the check repacks.
    weights = (1, s_weight)
    for width_bound in (lambda sums: bound(n, sums), lambda sums: 0):
        assert check(n, identities._pack(members, weights, width_bound)).passed == holds


# check -> (weights, its bound at n on a list of absolute coefficient sums,
# the highest index it reads at n, the weighted degree of member k, and the
# family's recurrence list up to a given index)
_BOUNDS = {
    "check_cassini": (
        (1, 2), identities._cassini_bound, lambda n: n + 1, lambda k: k - 1, sequences._fib_list
    ),
    "check_z_cassini": (
        (1, 1), identities._z_cassini_bound, lambda n: n + 1, lambda k: k, sequences._z_list
    ),
    "check_lucas_binomial even": (
        (1, 2),
        lambda n, sums: identities._lucas_binomial_bound(n, 2 * n, sums),
        lambda n: 2 * n,
        lambda k: k,
        sequences._lucas_list,
    ),
    "check_lucas_binomial odd": (
        (1, 2),
        lambda n, sums: identities._lucas_binomial_bound(n, 2 * n + 1, sums),
        lambda n: 2 * n + 1,
        lambda k: k,
        sequences._lucas_list,
    ),
    "check_z_binomial": (
        (1, 1), identities._z_binomial_bound, lambda n: n, lambda k: k, sequences._z_list
    ),
}


def _abs_sums(members):
    return [sum(abs(c) for _, c in m.terms()) for m in members]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_BOUNDS)), st.integers(1, 4), st.data())
def test_each_bound_holds_every_coefficient_of_the_difference_of_the_sides(check, n, data):
    # Members of the check's degrees with coefficients of both signs, far
    # from the family's own, and zero members, where the right side alone
    # sets the difference: the width of the bound must hold every
    # coefficient of lhs - rhs, or unequal sides could pack to equal values.
    (_, s_weight), bound, last, degree, _ = _BOUNDS[check]
    name, *parity = check.split()
    coefficient = st.integers(-(2**80), 2**80)
    drawn = [data.draw(_homogeneous(degree(k), s_weight, coefficient)) for k in range(last(n) + 1)]
    for members in (drawn, [BiPoly.zero()] * len(drawn)):
        _, [(lhs, rhs)] = _sides(name, n, members, *parity)
        largest = max((abs(c) for _, c in (lhs - rhs).terms()), default=0)
        assert bound(n, _abs_sums(members)) >= largest


@pytest.mark.parametrize("tripled", [False, True], ids=["family", "top member tripled"])
@pytest.mark.parametrize("check", _BOUNDS, ids=_BOUNDS)
def test_a_packing_one_slot_too_narrow_is_repacked(check, tripled, monkeypatch):
    # A sweep's packing 8 bits narrower than the check's own bound needs, the
    # bound's bit length within two bits of that narrow width: the check must
    # not decide at it, but repack once, and give the verdict of its list.
    weights, bound, last, _, family = _BOUNDS[check]
    name, *parity = check.split()
    checked = getattr(identities, name)
    for n in range(2, 40):
        members = family(last(n))
        if tripled:
            members[-1] = 3 * members[-1]
        narrow = identities._pack(members, weights, lambda sums: bound(n, sums) >> 8)
        bits = bound(n, narrow.sums).bit_length()
        if bits - narrow.width in (0, 1):
            break
    else:
        pytest.fail("no n below 40 gives a bound within two bits of the narrow width")
    assert narrow.width == poly._slot_width(bound(n, narrow.sums)) - 8
    expected = checked(n, *parity, members)
    packings = []
    pack = identities._pack
    monkeypatch.setattr(identities, "_pack", lambda *args: packings.append(args) or pack(*args))
    assert checked(n, *parity, narrow) == expected
    assert len(packings) == 1


def _vanishing(k, *roots):
    """x^k (x - r_1) (x - r_2) ...: zero at each root."""
    skew = UniPoly({k: 1})
    for root in roots:
        skew = skew * UniPoly({1: 1, 0: -root})
    return skew


# Per univariate check: the members at n, and for each member a skew that
# vanishes at every point where the check reads that member once X = 2^w.
# chebyshev_bala reads l(n) at X + 2 and at 2X, Zx(n) at -X, and 2 T(n) and
# Z(n)(x, 1) at X; l_doubling reads l(n) at X^2 - 2 and its other members at X.
_UNIVARIATE_SKEWS = {
    "chebyshev_bala": (
        check_chebyshev_bala,
        lambda n: (
            sequences.chebyshev_t(n),
            sequences.univariate_l(n),
            spread_z_univariate(n, "via_l"),
            z_polynomial(n),
        ),
        {
            0: lambda k, X: _vanishing(k, X),
            1: lambda k, X: _vanishing(k, X + 2, 2 * X),
            2: lambda k, X: _vanishing(k, -X),
            3: lambda k, X: BiPoly({(k + 1, 0): 1, (k, 0): -X}),
        },
    ),
    "l_doubling": (
        check_l_doubling,
        lambda n: (
            sequences.univariate_l(2 * n),
            sequences.univariate_l(n),
            spread_z_univariate(n, "via_l2n"),
            spread_z_univariate(n, "via_l"),
        ),
        {
            0: lambda k, X: _vanishing(k, X),
            1: lambda k, X: _vanishing(k, X * X - 2),
            2: lambda k, X: _vanishing(k, X),
            3: lambda k, X: _vanishing(k, X),
        },
    ),
}


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("check", _UNIVARIATE_SKEWS, ids=_UNIVARIATE_SKEWS)
def test_univariate_checks_pack_wider_than_a_skew_that_vanishes(check, n):
    # A member plus a skew that is zero where the check reads it at X = 2^w
    # still satisfies the identity at X = 2^w, so a check that packed at
    # width w would pass.  The skew's coefficients, 2^w and more, enter the
    # bound, so the check's own width is wider than w and it fails, at every
    # w up to 48 bits, past its own width at n = 20 (40 bits).  The skew
    # sits at x^k for k = 0 and for k = 3n, past every member's degree, so
    # that a bound which drops the constant term, or which divides the
    # coefficients by v^k in place of multiplying, misses it.
    checked, members_at, skews = _UNIVARIATE_SKEWS[check]
    members = members_at(n)
    assert checked(n, members).passed
    for w in range(8, 49, 8):
        for (index, skew), k in itertools.product(skews.items(), (0, 3 * n)):
            skewed = list(members)
            skewed[index] = members[index] + skew(k, 1 << w)
            result = checked(n, skewed)
            assert not result.passed and result.witness[0] == n, (w, index, k)


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("skewed", [0, 1], ids=["T(n)", "l(n)"])
def test_chebyshev_bala_packs_at_its_bound_next_to_a_power_of_two(skewed, n, monkeypatch):
    # |2 T(n)| is bounded by |2 T(n)|(1), and |l(n)(x+2) - 2| by |l(n)|(3) + 2,
    # the largest bound for right members.  A constant added to T(n) or to
    # l(n) (neither has one at odd n) makes that member's bound the largest
    # and sets it 0 to 1 above 2^(8m-2), where a bound 4 smaller takes slots
    # 8 bits narrower.  The check must pack at the width of twice that bound,
    # and fail.
    members = [
        sequences.chebyshev_t(n),
        sequences.univariate_l(n),
        spread_z_univariate(n, "via_l"),
        z_polynomial(n),
    ]
    bounds = [identities._abs_at(members[0].scale(2), 1), identities._abs_at(members[1], 3) + 2]
    base = bounds[skewed]
    top = next(k for k in itertools.count(6, 8) if 1 << k > max(bounds))
    target = (1 << top) + (base - (1 << top)) % 2  # T(n) + d moves the bound by 2d
    members[skewed] = members[skewed] + (target - base) // (2 - skewed)
    widths = []
    slot_width = identities._slot_width
    monkeypatch.setattr(
        identities, "_slot_width", lambda b: widths.append(slot_width(b)) or widths[-1]
    )
    result = check_chebyshev_bala(n, members)
    assert not result.passed and result.witness[0] == n
    assert widths == [poly._slot_width(2 * target)] == [poly._slot_width(2 * (target - 4)) + 8]


@pytest.mark.parametrize("off_form", sequences.C_FORMS)
def test_coefficient_forms_compare_the_first_and_the_last_entry(off_form, monkeypatch):
    # One closed form off by one at k = 1 alone, then at k = n alone: the
    # check must compare that entry of the row and fail at it.
    exact = identities.coefficient_c
    for n in range(1, 13):
        for k_off in (1, n):

            def skewed(m, k, form="ratio_binomial", k_off=k_off):
                value = exact(m, k, form)
                return value + 1 if (k, form) == (k_off, off_form) else value

            monkeypatch.setattr(identities, "coefficient_c", skewed)
            result = check_coefficient_forms(n)
            assert not result.passed and result.witness[0] == k_off, (n, k_off)


def test_coefficient_forms_fourth_form_off_at_one_entry(monkeypatch):
    # The fourth form, (n/k) C(n+k-1, 2k-1), decided on ints, with its binomial
    # off by one at (n, k) = (12, 5) alone: only n = 12 fails, at k = 5, and its
    # witness shows that form as the fraction it stands for.
    def skewed(top, bottom):
        return comb(top, bottom) + ((top, bottom) == (16, 9))

    monkeypatch.setattr(identities, "comb", skewed)
    results = {n: check_coefficient_forms(n) for n in range(1, 15)}
    assert [n for n, result in results.items() if not result.passed] == [12]
    assert results[12] == (
        "coefficient_forms",
        "n=12",
        (5, "c(12,5) forms gave ('27456', '137292/5', '27456', '27456')", "a single integer"),
    )
