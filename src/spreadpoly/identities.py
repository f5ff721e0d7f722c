"""Executable checks for the identities tying the polynomial families together.

Every check takes an index n, compares both sides of the identity built from
independent constructions, and returns a CheckResult.  A failing result
carries a witness (the index and both sides rendered in canonical form) so a
regression is immediately inspectable.  Sweeping over n is left to the caller:
a check that reads ladder members also takes them as ``members``, which a
sweep streams once for all n from one generator per route
(``spreadpoly.verify``); called with n alone, the check builds them itself.
The identity body is the same either way.

Each of the six polynomial identities is stated once, as a function of its
members and of the ring operations it needs (``_bivariate``,
``_univariate``).  Run on each side's value at one packing point, that
function decides the check; run on the polynomials, only when the values
differ, it writes the witness of a failure.

* Bivariate (Cassini for F and Z, the binomial sums of L and Z).  F(k) is
  weighted-homogeneous of degree k - 1 and L(k) of degree k under the weights
  (1, 2) of (x, s); Z(k) of degree k under (1, 1).  Each check first confirms
  this of every member it reads (zero members are exempt), so both sides of
  the identity are homogeneous of one degree d, and so is their difference:
  its term of s-degree j has x-degree d - w j, one term per s-degree.  At
  (x, s) = (1, 2^W) the difference is then sum_j c_j 2^(W j), whose digits in
  [-2^(W-1), 2^(W-1)) are unique: once every |c_j| < 2^(W-1), the value is 0
  exactly when the polynomial is.  |c_j| is bounded from the members' own
  absolute coefficient sums, as sum|a| sum|b| bounds every coefficient of a
  product a b, and W is the ``_slot_width`` of that bound.  These four checks
  read members by index, ``members[k]`` being F(k), L(k) or Z(k), and raise
  ValueError when the members stop short of the highest index read.  A sweep
  packs its list once (``_pack``), at the width of its last check's bound,
  and hands that same packing to every check; a check whose own bound does
  not fit that width repacks the members (``_packed_for``).
* Univariate (the Chebyshev/Bala route and l(2n) = l(n)(x^2 - 2)).  Both sides
  are evaluated at X = 2^W by Horner's scheme, each point x + 2, -x, 2x or
  x^2 - 2 a UniPoly applied as the shift-adds of its packed weight.  The
  coefficients of p(x + 2) and p(x^2 - 2) are bounded by |p|(3), those of
  p(-x) and p(2x) by |p|(1) and |p|(2), |p| having p's absolute
  coefficients; with W the width of twice the largest bound, every
  coefficient of a difference fits a slot, so equal values mean equal
  polynomials.

The members are integer polynomials, as every family's are.  When the values
differ, the polynomial comparison builds the witness; if it finds both sides
equal, the integer decision is broken and ArithmeticError is raised.  A
bivariate member that is neither zero nor homogeneous of its degree leaves no
values to compare, and the polynomial comparison decides alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from .poly import BiPoly, UniPoly, _index, _Shifts, _slot_width
from .sequences import (
    _fib_list,
    _lucas_list,
    _sign,
    _z_list,
    chebyshev_t,
    coefficient_c,
    spread_z_univariate,
    univariate_l,
    wildberger_spread,
    z_polynomial,
)

__all__ = [
    "CheckResult",
    "compare_polynomials",
    "check_cassini",
    "check_z_cassini",
    "check_lucas_binomial",
    "check_z_binomial",
    "check_symmetry",
    "check_coefficient_forms",
    "check_trig",
    "check_chebyshev_bala",
    "check_l_doubling",
]

# Failure witnesses truncate both sides to this many terms for readability.
WITNESS_TERM_LIMIT = 40

# The float spot check's sample count and its bound on the deviation.
_TRIG_SAMPLES = 100
_TRIG_TOL = 1e-9

# The points r at which the univariate identities read their members, p(r(x)).
_X_PLUS_2, _MINUS_X, _TWO_X, _X2_MINUS_2 = (
    UniPoly({1: 1, 0: 2}), UniPoly({1: -1}), UniPoly({1: 2}), UniPoly({2: 1, 0: -2})
)


class CheckResult(NamedTuple):
    """Outcome of one identity check.

    A witness is the failing index together with both sides rendered as
    text; a check passed exactly when it has none.
    """

    name: str
    range: str
    witness: tuple[int, str, str] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def failure(name: str, range_text: str, index: int, lhs: str, rhs: str) -> CheckResult:
    return CheckResult(name, range_text, (index, lhs, rhs))


def compare_polynomials(
    name: str,
    range_text: str,
    index: int,
    lhs: BiPoly | UniPoly,
    rhs: BiPoly | UniPoly,
) -> CheckResult:
    """Exact comparison of two polynomials, rendered into a witness on mismatch."""
    if lhs == rhs:
        return CheckResult(name, range_text)
    return failure(
        name,
        range_text,
        index,
        lhs.render(max_terms=WITNESS_TERM_LIMIT),
        rhs.render(max_terms=WITNESS_TERM_LIMIT),
    )


def _agree(
    name: str, n: int, pairs: Iterable[tuple[BiPoly | UniPoly, BiPoly | UniPoly]]
) -> CheckResult:
    """The first failing comparison of the pairs, in order, or a pass."""
    for lhs, rhs in pairs:
        result = compare_polynomials(name, f"n={n}", n, lhs, rhs)
        if not result.passed:
            return result
    return CheckResult(name, f"n={n}")


def _failed(result: CheckResult, compared: bool = True) -> CheckResult:
    """The polynomial route's result for a check whose values differed, or
    for one whose members left no values to compare (``compared`` false)."""
    if result.passed and compared:
        raise ArithmeticError(
            f"{result.name} {result.range}: the values differ but the polynomials agree"
        )
    return result


class _Packed(tuple):
    """Bivariate members that iterate and index as the polynomials themselves
    and carry, for each, its ``weighted_degree`` under ``weights`` (None when
    zero), its absolute coefficient sum and its value at (x, s) = (1, 2^width)."""


def _pack(
    members: Sequence[BiPoly], weights: tuple[int, int], bound: Callable[[list[int]], int]
) -> _Packed:
    """The members packed at the width that ``bound`` of their absolute
    coefficient sums fits."""
    packed = tuple.__new__(_Packed, members)
    packed.weights = weights
    packed.degrees = [m.weighted_degree(*weights) if m else None for m in packed]
    packed.sums = [sum(map(abs, m._terms.values())) for m in packed]
    packed.width = _slot_width(bound(packed.sums))
    packed.values = [m._packed(packed.width) for m in packed]
    return packed


def _packed_for(
    members: Sequence[BiPoly],
    weights: tuple[int, int],
    bound: Callable[[list[int]], int],
    degrees: dict[int, int],
) -> _Packed | None:
    """The members packed at a width that fits ``bound``, a sweep's packing
    when it does, or None when member k is neither zero nor
    weighted-homogeneous of degree ``degrees[k]``.  ValueError when the
    members stop short of the highest index k."""
    last = max(degrees)
    if len(members) <= last:
        raise ValueError(f"the check reads member {last}, but was given {len(members)} members")
    packed = members
    if not (
        isinstance(packed, _Packed)
        and packed.weights == weights
        and bound(packed.sums) < 1 << (packed.width - 1)
    ):
        packed = _pack(members, weights, bound)
    if all(packed.degrees[k] in (None, (d, True)) for k, d in degrees.items()):
        return packed
    return None


def _cassini_bound(n: int, sums: Sequence[int]) -> int:
    return sums[n] ** 2 + sums[n - 1] * sums[n + 1] + 1


def _z_cassini_bound(n: int, sums: Sequence[int]) -> int:
    return sums[n - 1] * sums[n + 1] + (sums[n] + 1) ** 2


def _lucas_binomial_bound(n: int, top: int, sums: Sequence[int]) -> int:
    return sum(comb(top, j) * sums[top - 2 * j] for j in range(n + 1)) + 1 + comb(top, n)


def _z_binomial_bound(n: int, sums: Sequence[int]) -> int:
    return sum(comb(2 * n, j) * sums[n - j] for j in range(n + 1)) + 1


def _abs_at(p: UniPoly, v: int) -> int:
    """|p|(v): p with its coefficients made absolute, at x = v."""
    return sum(abs(c) * v**k for (k, _), c in p._terms.items())


def _value_at(p: UniPoly, point: _Shifts) -> int:
    """p at the int that the packed weight ``point`` stands for, by Horner's
    scheme on shift-adds."""
    terms = p._terms
    acc = 0
    for k in range(max(terms, default=(-1, 0))[0], -1, -1):
        acc = point.add_to(terms.get((k, 0), 0), acc)
    return acc


def _bivariate(
    name: str, n: int, members: Sequence[BiPoly], weights: tuple[int, int],
    bound: Callable[[list[int]], int], degrees: dict[int, int], sides: Callable[..., tuple],
) -> CheckResult:
    """The check of the identity ``sides(a, s, x)``, its two sides from the
    members a, the products s(c, p, j) = c p s^j and the powers x(k) = x^k:
    decided on the packed values, where s^j is a shift by W j and x is 1, and
    built from the polynomials when those differ or cannot be compared."""
    packed = _packed_for(members, weights, bound, degrees)
    if packed is not None:
        width = packed.width
        lhs, rhs = sides(packed.values, lambda c, p, j: c * p << width * j, lambda k: 1)
        if lhs == rhs:
            return CheckResult(name, f"n={n}")
    pair = sides(
        members, lambda c, p, j: BiPoly.monomial(c, 0, j) * p, lambda k: BiPoly.monomial(1, k, 0)
    )
    return _failed(_agree(name, n, [pair]), packed is not None)


def check_cassini(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """F(n)^2 - F(n-1)*F(n+1) = (-s)^(n-1), exactly; members[k] is F(k), k <= n + 1
    at least, as in the binomial checks (no longer the window around F(n))."""
    _index(n, 1)
    return _bivariate(
        "cassini", n, members or _fib_list(n + 1), (1, 2), lambda sums: _cassini_bound(n, sums),
        {n - 1: n - 2, n: n - 1, n + 1: n},
        lambda a, s, x: (a[n] * a[n] - a[n - 1] * a[n + 1], s(_sign(n - 1), 1, n - 1)),
    )


def check_z_cassini(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """Z(n-1)*Z(n+1) = (Z(n) - s^(n-1)*x)^2, exactly; members[k] is Z(k), k <= n + 1
    at least, as in the binomial checks (no longer the window around Z(n))."""
    _index(n, 1)
    return _bivariate(
        "z_cassini", n, members or _z_list(n + 1), (1, 1), lambda sums: _z_cassini_bound(n, sums),
        {n - 1: n - 1, n: n, n + 1: n + 1},
        lambda a, s, x: (a[n - 1] * a[n + 1], (a[n] - s(1, x(1), n - 1)) ** 2),
    )


def check_lucas_binomial(n: int, parity: str, members: Sequence[BiPoly] = ()) -> CheckResult:
    """Alternating binomial sums of Lucas polynomials collapse to powers of x.

    even:  sum_j (-s)^j C(2n, j)   L(2n-2j)   = x^(2n) + (-s)^n C(2n, n)
    odd:   sum_j (-s)^j C(2n+1, j) L(2n+1-2j) = x^(2n+1)

    members[k] is L(k), for k up to at least the top index 2n or 2n+1.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _index(n)
    top = 2 * n if parity == "even" else 2 * n + 1
    return _bivariate(
        f"lucas_binomial_{parity}", n, members or _lucas_list(top), (1, 2),
        lambda sums: _lucas_binomial_bound(n, top, sums),
        {k: k for k in range(top, top - 2 * n - 1, -2)},
        lambda a, s, x: (
            sum(s(_sign(j) * comb(top, j), a[top - 2 * j], j) for j in range(n + 1)),
            x(top) + (s(_sign(n) * comb(top, n), 1, n) if parity == "even" else 0),
        ),
    )


def check_z_binomial(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """sum_j (-s)^j C(2n, j) Z(n-j) = x^n, exactly; members[k] is Z(k), k <= n at least.

    Holds for n >= 1.  At n = 0 the left side is Z(0) = 0 while the right is
    x^0 = 1, so that boundary index is excluded rather than reinterpreted.
    """
    _index(n, 1)
    return _bivariate(
        "z_binomial", n, members or _z_list(n), (1, 1), lambda sums: _z_binomial_bound(n, sums),
        {k: k for k in range(n + 1)},
        lambda a, s, x: (
            sum(s(_sign(j) * comb(2 * n, j), a[n - j], j) for j in range(n + 1)),
            x(n),
        ),
    )


def check_symmetry(n: int, members: Sequence[UniPoly | BiPoly] = ()) -> CheckResult:
    """The univariate and two-variable spread polynomials determine each other.

    First: Zx(n) = (-1)^(n-1) * Z(n)(x, -1) as polynomials in x.  Second,
    coefficient-wise: if Zx(n) = sum a_k x^k then -sum a_k (-1)^k s^(n-k) x^k
    must rebuild Z(n)(x, s).  members: (Zx(n) via_l, Z(n) by its recurrence).
    """
    _index(n, 1)
    zx, zb = members or (spread_z_univariate(n, method="via_l"), z_polynomial(n))

    specialized = zb.substitute_s(-1).scale(_sign(n - 1))
    rebuilt = BiPoly._trusted({(k, n - k): -c * _sign(k) for (k, _), c in zx._terms.items()})
    return _agree("symmetry", n, [(zx, specialized), (rebuilt, zb)])


def check_coefficient_forms(n: int) -> CheckResult:
    """All four closed forms of the triangle entries c(n, k) agree for k = 1..n."""
    _index(n, 1)
    for k in range(1, n + 1):
        ratio_a = coefficient_c(n, k, form="ratio_binomial")
        ratio_b = Fraction(n, k) * comb(n + k - 1, 2 * k - 1)
        total = coefficient_c(n, k, form="sum_binomials")
        product = coefficient_c(n, k, form="product")
        values = (ratio_a, ratio_b, total, product)
        if any(v != ratio_a for v in values):
            return failure(
                "coefficient_forms",
                f"n={n}",
                k,
                f"c({n},{k}) forms gave {tuple(str(v) for v in values)}",
                "a single integer",
            )
    return CheckResult("coefficient_forms", f"n={n}")


def _trig_deviation(n: int) -> float:
    """The largest deviation of Zx(n) and S(n) from the trigonometric
    property over the sample angles.  Each member is evaluated exactly at
    each double sin^2 t (or 4 sin^2 t) and rounded once, as ``eval_float``
    does; its coefficients are read once, for all the angles."""
    zx = spread_z_univariate(n, method="via_l")._at_double()
    sp = wildberger_spread(n)._at_double()
    worst = 0.0
    for i in range(1, _TRIG_SAMPLES + 1):
        theta = (math.pi / 2) * i / (_TRIG_SAMPLES + 1)
        sin2 = math.sin(theta) ** 2
        target = math.sin(n * theta) ** 2
        worst = max(worst, abs(zx(4 * sin2) - 4 * target))
        worst = max(worst, abs(sp(sin2) - target))
    return worst


def check_trig(n: int) -> CheckResult:
    """Floating-point spot check of the defining trigonometric property.

    Zx(n)(4 sin^2 t) should equal 4 sin^2(n t) and S(n)(sin^2 t) should equal
    sin^2(n t) over _TRIG_SAMPLES angles spread through (0, pi/2).  Each side
    is a double: the polynomial's exact value at the double sin^2 t (or
    4 sin^2 t), rounded once, and ``math.sin`` squared.  They must agree to
    within _TRIG_TOL.  Rounding enters only through the doubles t, sin^2 t
    and sin^2(n t) and the one rounding of each value, never through
    cancellation, so the check is not limited to small n; the suite sweeps
    n <= 20, its stated scope.
    """
    _index(n, 1)
    worst = _trig_deviation(n)
    if worst < _TRIG_TOL:
        return CheckResult("trig", f"n={n}")
    return failure("trig", f"n={n}", n, f"max deviation {worst:.3e}", f"tolerance {_TRIG_TOL:g}")


def _univariate(name: str, n: int, bound: int, sides: Callable[..., list]) -> CheckResult:
    """The check of the identity ``sides(at)``, its pairs of sides from members
    p, each read as at(p) = p or at(p, r) = p(r(x)): decided on the values at
    X = 2^W, W the width of twice ``bound``, where r(X) is a packed weight,
    built once per point r that the check reads, and built from the
    polynomials when those differ."""
    width = _slot_width(2 * bound)
    weights: dict[int, _Shifts] = {}  # by id(r), built at the first read at r

    def at(p: UniPoly, r: UniPoly | None = None) -> int:
        if r is None:
            return p._packed(width)
        if id(r) not in weights:
            weights[id(r)] = r._shifts(width)
        return _value_at(p, weights[id(r)])

    pairs = sides(at)
    if all(lhs == rhs for lhs, rhs in pairs):
        return CheckResult(name, f"n={n}")
    return _failed(_agree(name, n, sides(lambda p, r=None: p if r is None else p.compose(r))))


def check_chebyshev_bala(n: int, members: Sequence[UniPoly | BiPoly] = ()) -> CheckResult:
    """The Chebyshev route to the same polynomials.

    2*T(n)((x+2)/2) - 2, l(n)(x+2) - 2, -Zx(n)(-x) and Z(n)(x, 1) are all the
    same polynomial, and 2*T(n)(x) = l(n)(2x) links the two ladders.
    members: (T(n), l(n), Zx(n) via_l, Z(n) by its recurrence).
    """
    _index(n, 1)
    t, ln, zx, zb = members or (
        chebyshev_t(n), univariate_l(n), spread_z_univariate(n, method="via_l"), z_polynomial(n)
    )

    # 2 T(n)((x+2)/2) is q(x+2), q having coefficient k of 2 T(n) over 2^k: on
    # integers when 2^k divides it, which 2 T(n)(y/2) = l(n)(y) requires.
    doubled = t.scale(2)
    if any(c % (1 << k) for (k, _), c in doubled._terms.items()):
        lhs = doubled.render(max_terms=WITNESS_TERM_LIMIT)
        return failure("chebyshev_bala", f"n={n}", n, lhs, "coefficient k divisible by 2^k")
    halved = UniPoly._trusted({(k, 0): c >> k for (k, _), c in doubled._terms.items()})
    at_1 = zb.substitute_s(1)
    bound = max(
        _abs_at(halved, 3) + 2,
        _abs_at(ln, 3) + 2,
        _abs_at(zx, 1),
        _abs_at(at_1, 1),
        _abs_at(doubled, 1),
        _abs_at(ln, 2),
    )

    def sides(at: Callable[..., UniPoly | int]) -> list[tuple]:
        base = at(halved, _X_PLUS_2) - 2
        links = (at(ln, _X_PLUS_2) - 2, -at(zx, _MINUS_X), at(at_1))
        return [(base, link) for link in links] + [(at(doubled), at(ln, _TWO_X))]

    return _univariate("chebyshev_bala", n, bound, sides)


def check_l_doubling(n: int, members: Sequence[UniPoly] = ()) -> CheckResult:
    """l(2n)(x) = l(n)(x^2 - 2), plus the square-root form of Zx it justifies.

    members: (l(2n), l(n), Zx(n) via_l2n, Zx(n) via_l).
    """
    _index(n, 1)
    doubled, ln, zx_l2n, zx_l = members or (
        univariate_l(2 * n),
        univariate_l(n),
        spread_z_univariate(n, method="via_l2n"),
        spread_z_univariate(n, method="via_l"),
    )
    bound = max(_abs_at(doubled, 1), _abs_at(ln, 3), _abs_at(zx_l2n, 1), _abs_at(zx_l, 1))
    return _univariate(
        "l_doubling", n, bound,
        lambda at: [(at(doubled), at(ln, _X2_MINUS_2)), (at(zx_l2n), at(zx_l))],
    )
