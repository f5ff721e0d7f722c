"""Constructors for the polynomial families, each by every route available.

The point of offering several methods per family is cross-validation: the
constructions are algebraically equivalent but computationally unrelated, so
agreement between them is a strong correctness oracle.  Every method here is
seeded only from its own base cases and never borrows results from a sibling
method.

Families:

* F(n)(x, s), L(n)(x, s): the two-variable Fibonacci and Lucas polynomials,
  a(n) = x*a(n-1) + s*a(n-2) with seeds (0, 1) and (2, x).
* Z(n)(x, s): the two-variable spread polynomials, with five constructions.
* l(n)(x) = L(n)(x, -1), Zx(n) = the univariate normalized spread polynomial,
  S(n) = Wildberger's spread polynomial, T(n) = Chebyshev (first kind).
* c(n, k): the integer coefficient triangle of Z(n) (OEIS A156308), by three
  closed forms.

Point values (the ``*_at`` functions) take a route of their own that never
builds a polynomial: one doubling kernel for the pair (F(n), F(n+1)) at a
rational point, seeded only from F(0) = 0, F(1) = 1,

  F(2k) = F(k) (2 F(k+1) - x F(k)),   F(2k+1) = F(k+1)^2 + s F(k)^2,

which costs O(log n) products.  Every family follows by an exact identity:
L(n) = 2 F(n+1) - x F(n), Z(n)(x, s) = L(n)(x+2s, -s^2) - 2 s^n,
l(n)(x) = L(n)(x, -1), T(n)(x) = L(n)(2x, -1) / 2,
Zx(n)(x) = (-1)^(n-1) Z(n)(x, -1) and S(n)(x) = Zx(n)(4x) / 4.  No step
divides by the discriminant x^2 + 4s, so every rational point works.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .poly import BiPoly, Rat, UniPoly, _coeff, _index

__all__ = [
    "Triangle",
    "fibonacci",
    "lucas",
    "z_polynomial",
    "coefficient_c",
    "triangle",
    "univariate_l",
    "spread_z_univariate",
    "wildberger_spread",
    "chebyshev_t",
    "fibonacci_at",
    "lucas_at",
    "z_at",
    "univariate_l_at",
    "spread_z_univariate_at",
    "wildberger_spread_at",
    "chebyshev_t_at",
    "point_bits_bound",
    "FIBONACCI_METHODS",
    "LUCAS_METHODS",
    "Z_METHODS",
    "ZX_METHODS",
    "C_FORMS",
]

FIBONACCI_METHODS = ("recurrence", "closed")
LUCAS_METHODS = ("recurrence", "closed", "from_fib")
Z_METHODS = ("recurrence", "closed", "via_lucas", "via_fib", "parity")
ZX_METHODS = ("via_l", "via_l2n", "from_bivariate")
C_FORMS = ("ratio_binomial", "sum_binomials", "product")


def _check_method(method: str, allowed: tuple[str, ...]) -> str:
    if method not in allowed:
        raise ValueError(f"unknown method {method!r}; expected one of {allowed}")
    return method


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# -- shared recurrence passes -------------------------------------------------


def _fib_list(m: int) -> list[BiPoly]:
    """F(0)..F(m) by the defining recurrence."""
    seq = [BiPoly.zero(), BiPoly.one()]
    x, s = BiPoly.x(), BiPoly.s()
    for _ in range(max(m - 1, 0)):
        seq.append(x * seq[-1] + s * seq[-2])
    return seq[: m + 1]


def _lucas_list(m: int) -> list[BiPoly]:
    """L(0)..L(m) by the defining recurrence."""
    seq = [BiPoly.constant(2), BiPoly.x()]
    x, s = BiPoly.x(), BiPoly.s()
    for _ in range(max(m - 1, 0)):
        seq.append(x * seq[-1] + s * seq[-2])
    return seq[: m + 1]


def _z_list(m: int) -> list[BiPoly]:
    """Z(0)..Z(m) by the third-order recurrence, seeded from the first terms.

    Z(n+3) = (x+3s) Z(n+2) - s(x+3s) Z(n+1) + s^3 Z(n), with seeds
    Z(0) = 0, Z(1) = x, Z(2) = 4sx + x^2.
    """
    seq = [
        BiPoly.zero(),
        BiPoly.x(),
        BiPoly({(1, 1): 4, (2, 0): 1}),
    ]
    a = BiPoly({(1, 0): 1, (0, 1): 3})  # x + 3s
    b = BiPoly.s() * a
    c = BiPoly.monomial(1, 0, 3)
    for _ in range(max(m - 2, 0)):
        seq.append(a * seq[-1] - b * seq[-2] + c * seq[-3])
    return seq[: m + 1]


def _negate_s(p: BiPoly) -> BiPoly:
    """The substitution s -> -s."""
    return BiPoly._trusted({(dx, ds): c * _sign(ds) for (dx, ds), c in p._terms.items()})


# -- bivariate families -------------------------------------------------------


def fibonacci(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable Fibonacci polynomial F(n)(x, s).

    ``recurrence`` iterates F(n) = x F(n-1) + s F(n-2) from F(0) = 0,
    F(1) = 1.  ``closed`` sums C(n-1-k, k) s^k x^(n-1-2k) directly.
    """
    n = _index(n)
    method = _check_method(method, FIBONACCI_METHODS)
    if method == "recurrence":
        return _fib_list(n)[n]
    if n == 0:
        return BiPoly.zero()
    return BiPoly(
        {(n - 1 - 2 * k, k): comb(n - 1 - k, k) for k in range((n - 1) // 2 + 1)}
    )


def lucas(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable Lucas polynomial L(n)(x, s).

    ``recurrence`` iterates the same recurrence as fibonacci from L(0) = 2,
    L(1) = x.  ``closed`` sums (n/(n-k)) C(n-k, k) s^k x^(n-2k); the n = 0
    entry is the constant 2 (the weight n/(n-k) is 0/0 there).  ``from_fib``
    uses L(n) = F(n+1) + s F(n-1) and therefore needs n >= 1.
    """
    n = _index(n)
    method = _check_method(method, LUCAS_METHODS)
    if method == "recurrence":
        return _lucas_list(n)[n]
    if method == "from_fib":
        if n == 0:
            raise ValueError("from_fib references F(n-1) and needs n >= 1")
        fib = _fib_list(n + 1)
        return fib[n + 1] + BiPoly.s() * fib[n - 1]
    if n == 0:
        return BiPoly.constant(2)
    return BiPoly(
        {
            (n - 2 * k, k): Fraction(n, n - k) * comb(n - k, k)
            for k in range(n // 2 + 1)
        }
    )


def z_polynomial(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable spread polynomial Z(n)(x, s), by any of five routes.

    recurrence
        Z(n+3) = (x+3s) Z(n+2) - s(x+3s) Z(n+1) + s^3 Z(n) from the seeds
        Z(0) = 0, Z(1) = x, Z(2) = 4sx + x^2.
    closed
        sum_k c(n, k) s^(n-k) x^k over the coefficient triangle.
    via_lucas
        L(2n)(y, s) with y^2 -> x, minus 2 s^n.
    via_fib
        x * F(n)(u, -s)^2 with u^2 -> x + 4s.
    parity
        odd n: L(n)(y, s)^2 with y^2 -> x;
        even n: (x + 4s) * F(n)(y, s)^2 with y^2 -> x.
    """
    n = _index(n)
    method = _check_method(method, Z_METHODS)
    if method == "recurrence":
        return _z_list(n)[n]
    if method == "closed":
        return BiPoly(
            {(k, n - k): coefficient_c(n, k, form="ratio_binomial") for k in range(1, n + 1)}
        )
    if method == "via_lucas":
        doubled = _lucas_list(2 * n)[2 * n]
        return doubled.halve_degrees() - BiPoly.monomial(2, 0, n)
    if method == "via_fib":
        flipped = _negate_s(_fib_list(n)[n])
        squared = flipped * flipped
        return BiPoly.x() * squared.even_substitute(
            BiPoly({(1, 0): 1, (0, 1): 4})
        )
    # parity
    if n % 2:
        odd = _lucas_list(n)[n]
        return (odd * odd).halve_degrees()
    even = _fib_list(n)[n]
    return BiPoly({(1, 0): 1, (0, 1): 4}) * (even * even).halve_degrees()


# -- the coefficient triangle -------------------------------------------------


def coefficient_c(n: int, k: int, form: str = "ratio_binomial") -> int:
    """The integer coefficient of s^(n-k) x^k in Z(n), for 1 <= k <= n.

    Three independent closed forms:

    * ratio_binomial: (n/k) C(n+k-1, n-k), computed as an exact rational and
      checked to be integral.
    * sum_binomials:  C(n+k, 2k) + C(n+k-1, 2k).
    * product:        (2/(2k)!) n^2 (n^2 - 1^2) ... (n^2 - (k-1)^2).
    """
    if _index(k, 1, "k") > _index(n, 1, "n"):
        raise ValueError(f"need 1 <= k <= n, got n={n!r}, k={k!r}")
    form = _check_method(form, C_FORMS)
    if form == "ratio_binomial":
        value = Fraction(n, k) * comb(n + k - 1, n - k)
    elif form == "sum_binomials":
        value = Fraction(comb(n + k, 2 * k) + comb(n + k - 1, 2 * k))
    else:
        numerator = 2 * n * n
        for i in range(1, k):
            numerator *= n * n - i * i
        value = Fraction(numerator, factorial(2 * k))
    if value.denominator != 1:
        raise ArithmeticError(f"c({n},{k}) came out non-integral: {value}")
    return value.numerator


@dataclass(frozen=True)
class Triangle:
    """Rows 1..N of the coefficient triangle c(n, k), k = 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, has {len(row)}")

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= len(self.rows):
            raise ValueError(f"row index {n} outside 1..{len(self.rows)}")
        return self.rows[n - 1]


def triangle(N: int) -> Triangle:
    """The coefficient triangle for n = 1..N."""
    _index(N, 1, "N")
    return Triangle(
        rows=tuple(
            tuple(coefficient_c(n, k) for k in range(1, n + 1)) for n in range(1, N + 1)
        )
    )


# -- univariate families ------------------------------------------------------


def univariate_l(n: int) -> UniPoly:
    """l(n)(x) = L(n)(x, -1), by specializing the two-variable Lucas polynomial."""
    n = _index(n)
    return lucas(n, method="recurrence").substitute_s(-1)


def spread_z_univariate(n: int, method: str = "via_l") -> UniPoly:
    """The normalized univariate spread polynomial Zx(n), by three routes.

    via_l
        2 - l(n)(2 - x).
    via_l2n
        (-1)^(n-1) * (l(2n)(y) with y^2 -> x, minus 2*(-1)^n).
    from_bivariate
        (-1)^(n-1) * Z(n)(x, -1), with Z(n) built through the squared
        Fibonacci route so this path exercises the x F(n)^2(sqrt(x-4))
        closed form directly.
    """
    n = _index(n)
    method = _check_method(method, ZX_METHODS)
    if method == "via_l":
        composed = univariate_l(n).compose(UniPoly({1: -1, 0: 2}))
        return 2 - composed
    if method == "via_l2n":
        halved = univariate_l(2 * n).halve_degrees()
        return (halved - 2 * _sign(n)).scale(_sign(n - 1))
    return z_polynomial(n, method="via_fib").substitute_s(-1).scale(_sign(n - 1))


def wildberger_spread(n: int) -> UniPoly:
    """Wildberger's spread polynomial S(n)(x) = Zx(n)(4x) / 4.

    The division by 4 always clears: the result is integer-coefficient,
    which is checked (ArithmeticError otherwise).
    """
    n = _index(n)
    rescaled = spread_z_univariate(n, method="via_l").compose(UniPoly({1: 4}))
    result = rescaled.scale(Fraction(1, 4))
    if not result.is_integral():
        raise ArithmeticError(f"S({n}) came out non-integral")
    return result


def chebyshev_t(n: int) -> UniPoly:
    """Chebyshev polynomial of the first kind, T(n+1) = 2x T(n) - T(n-1)."""
    n = _index(n)
    seq = [UniPoly.one(), UniPoly.x()]
    two_x = UniPoly({1: 2})
    for _ in range(max(n - 1, 0)):
        seq.append(two_x * seq[-1] - seq[-2])
    return seq[n] if n < 2 else seq[-1]


# -- point values by Lucas-sequence doubling ----------------------------------


def _fib_pair(n: int, x: int, s: int) -> tuple[int, int]:
    """(F(n), F(n+1)) at an integer point, doubling from F(0) = 0, F(1) = 1."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - x * a), b * b + s * a * a
        if bit == "1":
            a, b = b, x * b + s * a
    return a, b


def _integral_point(x0: Rat, s0: Rat) -> tuple[int, int, int]:
    """(X, S, lam) with X = lam x0 and S = lam^2 s0 both integers.

    F(n) and L(n) are weighted-homogeneous (x of weight 1, s of weight 2), so
    F(n)(x0, s0) = F(n)(X, S) / lam^(n-1) and L(n)(x0, s0) = L(n)(X, S) / lam^n:
    the kernel runs on integers and one fraction is reduced at the end.
    """
    x, s = Fraction(_coeff(x0)), Fraction(_coeff(s0))
    lam = x.denominator * s.denominator
    return x.numerator * s.denominator, s.numerator * x.denominator**2 * s.denominator, lam


def fibonacci_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """F(n)(x0, s0) by the doubling kernel, without building F(n)."""
    n = _index(n)
    x, s, lam = _integral_point(x0, s0)
    if n == 0:
        return Fraction(0)
    return Fraction(_fib_pair(n, x, s)[0], lam ** (n - 1))


def lucas_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """L(n)(x0, s0) = 2 F(n+1) - x0 F(n), from the doubling kernel."""
    n = _index(n)
    x, s, lam = _integral_point(x0, s0)
    f, g = _fib_pair(n, x, s)
    return Fraction(2 * g - x * f, lam**n)


def z_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """Z(n)(x0, s0) = L(n)(x0 + 2 s0, -s0^2) - 2 s0^n."""
    s0 = Fraction(_coeff(s0))
    return lucas_at(n, _coeff(x0) + 2 * s0, -s0 * s0) - 2 * s0**n


def univariate_l_at(n: int, x0: Rat) -> Fraction:
    """l(n)(x0) = L(n)(x0, -1)."""
    return lucas_at(n, x0, -1)


def spread_z_univariate_at(n: int, x0: Rat) -> Fraction:
    """Zx(n)(x0) = (-1)^(n-1) Z(n)(x0, -1)."""
    return z_at(n, x0, -1) * _sign(n - 1)


def wildberger_spread_at(n: int, x0: Rat) -> Fraction:
    """S(n)(x0) = Zx(n)(4 x0) / 4."""
    return spread_z_univariate_at(n, 4 * _coeff(x0)) / 4


def chebyshev_t_at(n: int, x0: Rat) -> Fraction:
    """T(n)(x0) = L(n)(2 x0, -1) / 2."""
    return lucas_at(n, 2 * _coeff(x0), -1) / 2


def _log2_height(v: Rat) -> int:
    """ceil(log2(max(|numerator|, denominator))) of a rational."""
    v = Fraction(_coeff(v))
    return (max(abs(v.numerator), v.denominator) - 1).bit_length()


def point_bits_bound(n: int, x0: Rat, s0: Rat = 0) -> int:
    """An upper bound on the bit length of the numerator and of the denominator
    of any family's n-th member evaluated at (x0, s0), from n and the sizes
    of x0 and s0 alone (univariate families take s0 = 0).

    Every member is a polynomial of x-degree and s-degree at most n whose
    absolute coefficients sum to less than 2^(4n+2) (S(n), whose coefficients
    are those of Zx(n) times up to 4^(n-1), grows fastest).  Over the common
    denominator b^n d^n of x0 = a/b and s0 = c/d, the numerator is below
    2^(4n+2) max(|a|, b)^n max(|c|, d)^n and the denominator at most
    max(|a|, b)^n max(|c|, d)^n.
    """
    n = _index(n)
    return n * (4 + _log2_height(x0) + _log2_height(s0)) + 2
