"""Executable checks for the identities tying the polynomial families together.

Every check takes an index n, compares both sides of the identity built from
independent constructions, and returns a CheckResult.  A failing result
carries a witness (the index and both sides rendered in canonical form) so a
regression is immediately inspectable.  Sweeping over n is left to the caller:
a check that reads ladder members also takes them as ``members``, which a
sweep streams once for all n from one generator per route
(``spreadpoly.verify``); called with n alone, the check builds them itself.
The identity body is the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .poly import BiPoly, UniPoly, _index
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


@dataclass(frozen=True)
class CheckResult:
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


def check_cassini(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """F(n)^2 - F(n-1)*F(n+1) = (-s)^(n-1), exactly; members (F(n-1), F(n), F(n+1))."""
    _index(n, 1)
    before, mid, after = members or _fib_list(n + 1)[n - 1 :]
    lhs = mid * mid - before * after
    rhs = BiPoly.monomial(_sign(n - 1), 0, n - 1)
    return compare_polynomials("cassini", f"n={n}", n, lhs, rhs)


def check_z_cassini(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """Z(n-1)*Z(n+1) = (Z(n) - s^(n-1)*x)^2, exactly; members (Z(n-1), Z(n), Z(n+1))."""
    _index(n, 1)
    before, mid, after = members or _z_list(n + 1)[n - 1 :]
    lhs = before * after
    inner = mid - BiPoly.monomial(1, 1, n - 1)
    return compare_polynomials("z_cassini", f"n={n}", n, lhs, inner * inner)


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
    lucas_polys = members or _lucas_list(top)
    total = BiPoly.zero()
    for j in range(n + 1):
        total = total + BiPoly.monomial(_sign(j) * comb(top, j), 0, j) * lucas_polys[top - 2 * j]
    if parity == "even":
        rhs = BiPoly.monomial(1, top, 0) + BiPoly.monomial(_sign(n) * comb(top, n), 0, n)
    else:
        rhs = BiPoly.monomial(1, top, 0)
    return compare_polynomials(f"lucas_binomial_{parity}", f"n={n}", n, total, rhs)


def check_z_binomial(n: int, members: Sequence[BiPoly] = ()) -> CheckResult:
    """sum_j (-s)^j C(2n, j) Z(n-j) = x^n, exactly; members[k] is Z(k), k <= n at least.

    Holds for n >= 1.  At n = 0 the left side is Z(0) = 0 while the right is
    x^0 = 1, so that boundary index is excluded rather than reinterpreted.
    """
    _index(n, 1)
    z = members or _z_list(n)
    total = BiPoly.zero()
    for j in range(n + 1):
        total = total + BiPoly.monomial(_sign(j) * comb(2 * n, j), 0, j) * z[n - j]
    return compare_polynomials("z_binomial", f"n={n}", n, total, BiPoly.monomial(1, n, 0))


def check_symmetry(n: int, members: Sequence[UniPoly | BiPoly] = ()) -> CheckResult:
    """The univariate and two-variable spread polynomials determine each other.

    First: Zx(n) = (-1)^(n-1) * Z(n)(x, -1) as polynomials in x.  Second,
    coefficient-wise: if Zx(n) = sum a_k x^k then -sum a_k (-1)^k s^(n-k) x^k
    must rebuild Z(n)(x, s).  members: (Zx(n) via_l, Z(n) by its recurrence).
    """
    _index(n, 1)
    zx, zb = members or (spread_z_univariate(n, method="via_l"), z_polynomial(n))

    specialized = zb.substitute_s(-1).scale(_sign(n - 1))
    rebuilt = BiPoly({(k, n - k): -c * _sign(k) for k, c in zx.terms()})
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


def check_trig(n: int) -> CheckResult:
    """Floating-point spot check of the defining trigonometric property.

    Zx(n)(4 sin^2 t) should equal 4 sin^2(n t) and S(n)(sin^2 t) should equal
    sin^2(n t); both are evaluated by Horner in doubles over _TRIG_SAMPLES
    angles spread through (0, pi/2) and must agree to within _TRIG_TOL.
    Coefficient growth makes doubles meaningless much past n = 20, so
    callers sweep small n only.
    """
    _index(n, 1)
    zx = spread_z_univariate(n, method="via_l")
    sp = wildberger_spread(n)
    worst = 0.0
    for i in range(1, _TRIG_SAMPLES + 1):
        theta = (math.pi / 2) * i / (_TRIG_SAMPLES + 1)
        sin2 = math.sin(theta) ** 2
        target = math.sin(n * theta) ** 2
        worst = max(worst, abs(zx.eval_float(4 * sin2) - 4 * target))
        worst = max(worst, abs(sp.eval_float(sin2) - target))
    if worst < _TRIG_TOL:
        return CheckResult("trig", f"n={n}")
    return failure("trig", f"n={n}", n, f"max deviation {worst:.3e}", f"tolerance {_TRIG_TOL:g}")


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
    if any(c % (1 << k) for k, c in doubled.terms()):
        lhs = doubled.render(max_terms=WITNESS_TERM_LIMIT)
        return failure("chebyshev_bala", f"n={n}", n, lhs, "coefficient k divisible by 2^k")
    shifted = UniPoly({1: 1, 0: 2})
    base, *links = (
        UniPoly({k: c >> k for k, c in doubled.terms()}).compose(shifted) - 2,
        ln.compose(shifted) - 2,
        -zx.compose(UniPoly({1: -1})),
        zb.substitute_s(1),
    )
    pairs = [(base, link) for link in links] + [(doubled, ln.compose(UniPoly({1: 2})))]
    return _agree("chebyshev_bala", n, pairs)


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
    pairs = [(doubled, ln.compose(UniPoly({2: 1, 0: -2}))), (zx_l2n, zx_l)]
    return _agree("l_doubling", n, pairs)
