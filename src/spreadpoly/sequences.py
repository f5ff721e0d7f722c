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
  closed forms per entry (``coefficient_c``, the oracle) and by whole rows.

The ``closed`` routes of F, L and Z and ``triangle`` run their rows by exact
ratios (``poly._c_row``, ``poly._fib_lucas_row``): each entry is the one
before times a small num/den, the division checked.  They share no code with
``coefficient_c`` or with any ladder.

Each recurrence route is a ladder, data (seeds, weights) for a(k) = w0 a(k-1)
+ w1 a(k-2) + ..., run by one generator that holds only the last len(seeds)
members, so no route keeps a list.  Two ladders run loops of their own: the
Z[sqrt(D)] ladder of via_fib, whose weights alternate with the parity of k,
steps two members per loop (``_fib_surds``), and the Z recurrence, whose
three weights share the factor x+3s, steps Z(k) = (x+3s) (Z(k-1) - s
Z(k-2)) + s^3 Z(k-3) (``_z_ladder``), 7 big-int passes where the three
weights take 10.  A route runs its ladder on packed ints
(Kronecker substitution): a member packs as its value at (x, s) = (1, 2^W),
one W-bit slot per s-degree, and T(n) as its value at x = 2^W; weights act as
shifts (``poly._Shifts``).  A step adds each weighted member straight into one
running total, a coefficient of +1 or -1 as an add or a subtract, so it builds
no product per weight and no separate sum.  No information is lost: F(n) and
L(n) are weighted-homogeneous with dx + 2 ds = n - 1 and n, Z(n) with
dx + ds = n, so the s-degree of a term fixes its x-degree.

A single-n builder and a sweep's stream (``_stream``) run the same route
(``_ROUTES``): the builder at the width of member n, reading member n alone,
the stream at the width of the last member its sweep reads, reading each.
The lists that sweeps and checks index (``_fib_list``, ``_lucas_list``,
``_z_list``) are the F, L and Z ``recurrence`` streams, not a second ladder.

Substitution is a change of evaluation point.  A packed member is a value,
so a substitution that follows the ladder is folded into the point the ladder
runs at, and no builder runs Horner:

* parity: y^2 -> x (halve_degrees) changes nothing at y = x = 1, so Z(n)(1,
  2^W) is L(n)(1, 2^W)^2 for odd n and (1 + 4 * 2^W) F(n)(1, 2^W)^2 for
  even n, with W from Z(n)'s bound.  The builder steps only the ladder it
  reads; a sweep reads both parities, so it steps both.
* via_fib: u^2 -> x + 4s makes u = sqrt(D), D = 1 + 4 * 2^W at (1, 2^W).
  The x-degrees of F(n) share one parity, so F(n)(sqrt(D), -s) is an int
  c(n) at odd n and c(n) sqrt(D) at even n, and the flipped Fibonacci ladder
  runs on c(n) alone, D and -s as shift-adds.  Z(n)(1, 2^W) is c(n)^2 at odd
  n and D c(n)^2 at even n, read as parity reads L(n) and F(n).  Zx
  from_bivariate runs the same ladder at (x, s) = (2^W, -1), where D = 2^W -
  4, and shifts by W for the factor x.
* l, Z via_lucas and Zx via_l2n: s -> -1 and y^2 -> x move and sign the
  digits of packed L(n) or L(2n), so each member is read straight from them,
  its terms built once: no polynomial in between.
* Zx via_l runs the l ladder at x = 2 - 2^W, and S at x = 2 - 4 * 2^W:
  S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4, with the division by 4 checked.
  The coefficients of S(n) are those of Z(n) times 4^(k-1) in absolute
  value, so their sum is Z(n)(4, 1) / 4 = (L(n)(6, -1) - 2) / 4.

Width lemma.  The coefficients of F, L and Z are nonnegative, so their
absolute values sum to the value at (1, 1): F(n)(1, 1), L(n)(1, 1) and
Z(n)(1, 1) = L(n)(3, -1) - 2.  F(n)(x, -s) has the coefficients of F(n) up
to sign, and T(n)(x) = L(n)(2x, -1) / 2 has absolute coefficients summing to
L(n)(2, 1) / 2.  Each sum A comes from the doubling kernel below in O(log n)
products.  Every |coefficient| is at most A, so with A < 2^(W-1) the digits
of the packed value in [-2^(W-1), 2^(W-1)), which are unique, are the
coefficients.  W is the least multiple of 8 above the bit length of A.

Point values (the ``*_at`` functions) take a route of their own that never
builds a polynomial: one doubling kernel returns (F(n), L(n)) at an integer
point.  Seeded only from F(0) = 0, F(1) = 1, it doubles the pair
(F(n), F(n+1)),

  F(2k) = F(k) (2 F(k+1) - x F(k)),   F(2k+1) = F(k+1)^2 + s F(k)^2,

in O(log n) products, and ends with L(n) = 2 F(n+1) - x F(n).  Its callers
scale on plain ints, read straight from each point's numerator and
denominator (an int's denominator is 1): a rational point runs at its
integral point (X, S) = (lam x0, lam^2 s0), where F(n)(x0, s0) =
F(n)(X, S) lam / lam^n and L(n)(x0, s0) = L(n)(X, S) / lam^n.  Every other
family follows by an exact identity, Z(n)(x, s) = L(n)(x+2s, -s^2) - 2 s^n,
l(n)(x) = L(n)(x, -1), T(n)(x) = L(n)(2x, -1) / 2, Zx(n)(x) = (-1)^(n-1)
Z(n)(x, -1) and S(n)(x) = Zx(n)(4x) / 4, folded into the ints before any
division: Z(n) is homogeneous of degree n, so Zx(n)(x) = Z(n)(-x, 1) / -1
and S(n)(x) = Z(n)(-4x, 1) / -4, the sign and the 4 a scale of the point
and of the denominator, and T's 2 doubles X and its denominator.  So each
value is one fraction, built once and reduced once.  No step divides by the
discriminant x^2 + 4s, so every rational point works.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import partial
from itertools import count, islice, repeat
from math import comb, factorial
from operator import neg
from typing import Iterable, Iterator, NamedTuple

from .poly import (
    P,
    BiPoly,
    Rat,
    UniPoly,
    _c_row,
    _coeff,
    _digits,
    _fib_lucas_row,
    _index,
    _Shifts,
    _slot_width,
)

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


# -- recurrence ladders -------------------------------------------------------

# A ladder is (seeds, weights): past the seeds, a(k) = w0 a(k-1) + w1 a(k-2) + ...
_X, _S = BiPoly.x(), BiPoly.s()
_FIB = ((BiPoly.zero(), BiPoly.one()), (_X, _S))
_LUCAS = ((BiPoly.constant(2), _X), (_X, _S))
_Z_FACTOR = _X + 3 * _S
_Z = ((BiPoly.zero(), _X, _X * _X + 4 * _S * _X), (_Z_FACTOR, -_S * _Z_FACTOR, _S**3))
_CHEBYSHEV = ((UniPoly.one(), UniPoly.x()), (UniPoly({1: 2}), UniPoly({0: -1})))


def _ladder(seeds: tuple[int, ...], weights: tuple[_Shifts, ...]) -> Iterator[int]:
    """a(0), a(1), ... of one ladder, holding only the last len(seeds) members.
    A step adds every term by ``_Shifts.add_to`` from 0, copying no first term."""
    window = deque(seeds, maxlen=len(seeds))
    yield from seeds
    while True:
        total = 0
        for w, a in zip(weights, reversed(window)):
            total = w.add_to(total, a)
        window.append(total)
        yield total


def _packed_ladder(ladder: tuple[tuple[P, ...], tuple[P, ...]], width: int) -> Iterator[int]:
    """A ladder run on ints: its seeds packed and its weights as shifts, in
    ``width``-bit slots."""
    seeds, weights = ladder
    return _ladder(tuple(a._packed(width) for a in seeds), tuple(w._shifts(width) for w in weights))


def _z_ladder(width: int) -> Iterator[int]:
    """Z(0), Z(1), ... packed: the recurrence of ``_Z`` with its shared factor
    pulled out, Z(k) = (x+3s) (Z(k-1) - s Z(k-2)) + s^3 Z(k-3), in 7 big-int
    passes per step where its three weights take 10."""
    seeds, (factor, *_) = _Z
    a, b, c = (z._packed(width) for z in seeds)
    factor = factor._shifts(width)
    yield from (a, b, c)
    while True:
        a, b, c = b, c, factor.add_to(a << 3 * width, c - (b << width))
        yield c


# The sum of the absolute coefficients of member n (the width lemma above).
def _fib_bound(n: int) -> int:
    return _doubling(n, 1, 1)[0]


def _lucas_bound(n: int) -> int:
    return _doubling(n, 1, 1)[1]


def _z_bound(n: int) -> int:
    return _doubling(n, 3, -1)[1] - 2


def _chebyshev_bound(n: int) -> int:
    return _doubling(n, 2, 1)[1] // 2


def _s_bound(n: int) -> int:
    return (_doubling(n, 6, -1)[1] - 2) // 4


# -- substitutions as evaluation points ----------------------------------------


def _fib_surds(d: _Shifts, t: _Shifts) -> Iterator[int]:
    """c(n) for n = 0, 1, ..., where F(n)(sqrt(D), t) is c(n) at odd n and
    c(n) sqrt(D) at even n: the x-degrees of F(n) share one parity.  So the
    Fibonacci ladder in Z[sqrt(D)] runs on its nonzero part alone, c(n) =
    D c(n-1) + t c(n-2) at odd n and c(n-1) + t c(n-2) at even n, with D and
    t packed weights."""
    even, odd = 0, 1
    while True:
        yield even
        yield odd
        even = t.add_to(odd, even)
        odd = t.add_to(d * even, odd)


def _lift(width: int) -> _Shifts:
    """x + 4s at (1, 2^W)."""
    return _Shifts({0: 1, width + 2: 1})


def _x_minus_4(width: int) -> _Shifts:
    """x - 4 at x = 2^W."""
    return _Shifts({0: -4, width: 1})


def _l_at(x: _Shifts) -> Iterator[int]:
    """l(n) = L(n)(x, -1) for n = 0, 1, ..., at the int point that the packed
    weight x stands for."""
    return _ladder((2, x * 1), (x, _Shifts({0: -1})))


# -- routes: one packed ladder each ---------------------------------------------

# A route is (first, ladder, bound, member).  ladder(W) yields the states of
# members first, first + 1, ... in W-bit slots, each step cheap; bound(n) is
# the sum of member n's absolute coefficients; member(state, W, bound(n), n),
# one of the steps below, reads member n back, and raises ArithmeticError when
# bound(n) does not fit W.
_lucas_unpacked = partial(BiPoly._unpacked, s_weight=2)  # L(n), or L(2n) at degree 2n
_z_unpacked = partial(BiPoly._unpacked, s_weight=1)


def _fib_unpacked(value: int, width: int, bound: int, n: int) -> BiPoly:
    """F(n) from its packed value."""
    return BiPoly._unpacked(value, width, bound, n - 1, 2)


def _lucas_from_fib(width: int) -> Iterator[int]:
    """L(n) = F(n+1) + s F(n-1) for n = 1, 2, ..., packed: F(n+1) plus F(n-1)
    shifted up one s-slot, from one F ladder, holding only F(n-1) and F(n)."""
    fib = _packed_ladder(_FIB, width)
    before, middle = next(fib), next(fib)
    for after in fib:
        yield after + (before << width)
        before, middle = middle, after


def _z_via_lucas(value: int, width: int, bound: int, n: int) -> BiPoly:
    """Z(n) from packed L(2n), whose digit c_i is its coefficient of s^i
    x^(2n-2i): c_i at s^i x^(n-i), and c_n - 2 at s^n."""
    digits = _digits(value, width, n + 1, bound)
    digits[n] -= 2
    return BiPoly._zipped(range(n, -1, -1), count(), digits)


def _parity_ladder(width: int, n: int | None = None) -> Iterator[int]:
    """L(k) at odd k and F(k) at even k, packed, for k = 0, 1, ...: the member
    that Z(k) reads.  A sweep reads both parities, so both ladders run; member
    n alone (``n`` given) runs only the ladder of its parity."""
    if n is not None:
        return _packed_ladder((_FIB, _LUCAS)[n % 2], width)
    pairs = zip(_packed_ladder(_FIB, width), _packed_ladder(_LUCAS, width))
    return (pair[k % 2] for k, pair in enumerate(pairs))


def _z_from_parity(value: int, width: int, bound: int, n: int) -> BiPoly:
    """Z(n)(1, 2^W) = value^2 at odd n and (x + 4s) value^2 at even n, the one
    reader of two routes: ``parity``, whose value is packed L(n) at odd n and
    packed F(n) at even n, and ``via_fib``, whose value is c(n) of
    ``_fib_surds`` at D = x + 4s, t = -s, as Z(n) = x F(n)(sqrt(D), -s)^2."""
    return _z_unpacked(value**2 if n % 2 else _lift(width) * value**2, width, bound, n)


def _l_from_lucas(value: int, width: int, bound: int, n: int) -> UniPoly:
    """l(n) = L(n)(x, -1) from packed L(n), whose digit c_i is its
    coefficient of s^i x^(n-2i): (-1)^i c_i at x^(n-2i)."""
    digits = _digits(value, width, n // 2 + 1, bound)
    digits[1::2] = map(neg, digits[1::2])
    return UniPoly._zipped(range(n, -1, -2), repeat(0), digits)


def _zx_from_l(value: int, width: int, bound: int, n: int) -> UniPoly:
    """Zx(n)(2^W) = 2 - l(n)(2 - 2^W)."""
    return UniPoly._unpacked(2 - value, width, bound, n)


def _zx_via_l2n(value: int, width: int, bound: int, n: int) -> UniPoly:
    """Zx(n) = (-1)^(n-1) (l(2n)(y) - 2 (-1)^n) with y^2 -> x, from packed
    L(2n), whose digit c_i is its coefficient of s^i x^(2n-2i):
    (-1)^(n+i+1) c_i at x^(n-i) for i < n, and 2 - c_n at x^0."""
    digits = _digits(value, width, n + 1, bound)
    digits[n] -= 2
    digits[n % 2 :: 2] = map(neg, digits[n % 2 :: 2])
    return UniPoly._zipped(range(n, -1, -1), repeat(0), digits)


def _zx_from_surd(c: int, width: int, bound: int, n: int) -> UniPoly:
    """Zx(n)(2^W) = (-1)^(n-1) 2^W F(n)(sqrt(D), 1)^2 at D = x - 4, from c(n)
    of ``_fib_surds``: 2^W c^2 at odd n and -2^W D c^2 at even n."""
    square = c * c
    value = square if n % 2 else -(_x_minus_4(width) * square)
    return UniPoly._unpacked(value << width, width, bound, n)


def _s_from_l(value: int, width: int, bound: int, n: int) -> UniPoly:
    """S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4, the division by 4 checked."""
    quarter, rest = divmod(2 - value, 4)
    if rest:
        raise ArithmeticError(f"S({n}) came out non-integral")
    return UniPoly._unpacked(quarter, width, bound, n)


def _lucas_evens(width: int) -> Iterator[int]:
    """L(0), L(2), L(4), ... packed."""
    return islice(_packed_ladder(_LUCAS, width), 0, None, 2)


_ROUTES = {
    ("fibonacci", "recurrence"): (0, partial(_packed_ladder, _FIB), _fib_bound, _fib_unpacked),
    ("lucas", "recurrence"): (0, partial(_packed_ladder, _LUCAS), _lucas_bound, _lucas_unpacked),
    ("lucas", "from_fib"): (1, _lucas_from_fib, _lucas_bound, _lucas_unpacked),
    ("z", "recurrence"): (0, _z_ladder, _z_bound, _z_unpacked),
    ("z", "via_lucas"): (0, _lucas_evens, lambda n: _lucas_bound(2 * n), _z_via_lucas),
    ("z", "via_fib"): (
        0, lambda w: _fib_surds(_lift(w), _Shifts({w: -1})), _z_bound, _z_from_parity
    ),
    ("z", "parity"): (0, _parity_ladder, _z_bound, _z_from_parity),
    ("zx", "via_l"): (0, lambda w: _l_at(_Shifts({0: 2, w: -1})), _z_bound, _zx_from_l),
    ("zx", "via_l2n"): (0, _lucas_evens, lambda n: _lucas_bound(2 * n), _zx_via_l2n),
    ("zx", "from_bivariate"): (
        0, lambda w: _fib_surds(_x_minus_4(w), _Shifts({0: 1})), _z_bound, _zx_from_surd
    ),
    ("l", "recurrence"): (0, partial(_packed_ladder, _LUCAS), _lucas_bound, _l_from_lucas),
    ("t", "recurrence"): (
        0, partial(_packed_ladder, _CHEBYSHEV), _chebyshev_bound, UniPoly._unpacked
    ),
    ("s", "via_l"): (0, lambda w: _l_at(_Shifts({0: 2, w + 2: -1})), _s_bound, _s_from_l),
}


def _built(family: str, method: str, n: int) -> BiPoly | UniPoly:
    """Member n of a route: its ladder run at member n's slot width, and
    member n alone read back.  ``parity`` runs one of its two ladders."""
    first, ladder, bound, member = _ROUTES[family, method]
    top = bound(n)
    width = _slot_width(top)
    states = ladder(width, n) if method == "parity" else ladder(width)
    return member(next(islice(states, n - first, None)), width, top, n)


def _stream(last: int, family: str, method: str = "recurrence") -> Iterator[BiPoly | UniPoly]:
    """Members 0, 1, 2, ... of one route, for a sweep that reads up to member
    ``last``: the route's ladder, from its own seeds, at member ``last``'s
    slot width.  Each member is read with its own bound, so one past ``last``
    that outgrows the width raises ArithmeticError, never a wrong polynomial.
    A closed route runs its builder at each n.  ``lucas`` ``from_fib`` starts
    at n = 1, as L(0) has no F(-1).
    """
    build = {"fibonacci": fibonacci, "lucas": lucas, "z": z_polynomial}.get(family)
    if method == "closed" and build:
        return (build(k, method) for k in count())
    if (family, method) not in _ROUTES:
        raise ValueError(f"no route {method!r} for {family!r}")
    first, ladder, bound, member = _ROUTES[family, method]
    width = _slot_width(bound(last))
    return (member(state, width, bound(n), n) for n, state in enumerate(ladder(width), first))


# -- member lists: the recurrence routes, as sweeps and checks read them ------


def _fib_list(m: int) -> list[BiPoly]:
    """F(0)..F(m): the members of the ``recurrence`` route that ``gen`` runs."""
    return list(islice(_stream(m, "fibonacci"), m + 1))


def _lucas_list(m: int) -> list[BiPoly]:
    """L(0)..L(m): the members of the ``recurrence`` route that ``gen`` runs."""
    return list(islice(_stream(m, "lucas"), m + 1))


def _z_list(m: int) -> list[BiPoly]:
    """Z(0)..Z(m): the members of the ``recurrence`` route that ``gen`` runs."""
    return list(islice(_stream(m, "z"), m + 1))


# -- bivariate families -------------------------------------------------------


def fibonacci(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable Fibonacci polynomial F(n)(x, s).

    ``recurrence`` iterates F(n) = x F(n-1) + s F(n-2) from F(0) = 0,
    F(1) = 1.  ``closed`` sums C(n-1-k, k) s^k x^(n-1-2k) by row ratios.
    """
    n = _index(n)
    method = _check_method(method, FIBONACCI_METHODS)
    if method == "recurrence":
        return _built("fibonacci", method, n)
    return BiPoly._zipped(range(n - 1, -1, -2), count(), _fib_lucas_row(n, n - 1))


def lucas(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable Lucas polynomial L(n)(x, s).

    ``recurrence`` iterates the same recurrence as fibonacci from L(0) = 2,
    L(1) = x.  ``closed`` sums (n/(n-k)) C(n-k, k) s^k x^(n-2k) by row
    ratios; the n = 0 entry is the constant 2 (the weight n/(n-k) is 0/0
    there).  ``from_fib`` uses L(n) = F(n+1) + s F(n-1) and therefore needs
    n >= 1.
    """
    n = _index(n)
    method = _check_method(method, LUCAS_METHODS)
    if method == "from_fib" and n == 0:
        raise ValueError("from_fib references F(n-1) and needs n >= 1")
    if method != "closed":
        return _built("lucas", method, n)
    if n == 0:
        return BiPoly.constant(2)
    return BiPoly._zipped(range(n, -1, -2), count(), _fib_lucas_row(n, n))


def z_polynomial(n: int, method: str = "recurrence") -> BiPoly:
    """The two-variable spread polynomial Z(n)(x, s), by any of five routes.

    recurrence
        Z(n+3) = (x+3s) Z(n+2) - s(x+3s) Z(n+1) + s^3 Z(n) from the seeds
        Z(0) = 0, Z(1) = x, Z(2) = 4sx + x^2.
    closed
        sum_k c(n, k) s^(n-k) x^k, row n of the triangle by row ratios.
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
    if method == "closed":
        return BiPoly._zipped(count(1), range(n - 1, -1, -1), _c_row(n))
    return _built("z", method, n)


# -- the coefficient triangle -------------------------------------------------


def coefficient_c(n: int, k: int, form: str = "ratio_binomial") -> int:
    """The integer coefficient of s^(n-k) x^k in Z(n), for 1 <= k <= n.

    The per-entry oracle of ``check_coefficient_forms``: ``gen`` and
    ``triangle`` run whole rows instead.  Three independent closed forms:

    * ratio_binomial: n C(n+k-1, n-k) / k.
    * sum_binomials:  C(n+k, 2k) + C(n+k-1, 2k).
    * product:        2 n^2 (n^2 - 1^2) ... (n^2 - (k-1)^2) / (2k)!.

    All three run on ints; a division that leaves a remainder raises
    ArithmeticError.
    """
    if _index(k, 1, "k") > _index(n, 1, "n"):
        raise ValueError(f"need 1 <= k <= n, got n={n!r}, k={k!r}")
    form = _check_method(form, C_FORMS)
    if form == "sum_binomials":
        return comb(n + k, 2 * k) + comb(n + k - 1, 2 * k)
    if form == "ratio_binomial":
        numerator, divisor = n * comb(n + k - 1, n - k), k
    else:
        numerator, divisor = 2 * n * n, factorial(2 * k)
        for i in range(1, k):
            numerator *= n * n - i * i
    value, rest = divmod(numerator, divisor)
    if rest:
        raise ArithmeticError(f"c({n},{k}) came out non-integral: {numerator}/{divisor}")
    return value


_Rows = tuple[tuple[int, ...], ...]


class _TriangleRows(NamedTuple):
    rows: _Rows


class Triangle(_TriangleRows):
    """Rows 1..N of the coefficient triangle c(n, k), k = 1..n."""

    __slots__ = ()

    def __new__(cls, rows: _Rows) -> Triangle:
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, has {len(row)}")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, iterable: Iterable[_Rows]) -> Triangle:
        # _replace builds through _make, so it is checked as well.
        return cls(*iterable)

    def row(self, n: int) -> tuple[int, ...]:
        if _index(n, 1, "row index") > len(self.rows):
            raise ValueError(f"row index {n} outside 1..{len(self.rows)}")
        return self.rows[n - 1]


def triangle(N: int) -> Triangle:
    """The coefficient triangle for n = 1..N, each row by row ratios."""
    _index(N, 1, "N")
    return Triangle(rows=tuple(tuple(_c_row(n)) for n in range(1, N + 1)))


# -- univariate families ------------------------------------------------------


def univariate_l(n: int) -> UniPoly:
    """l(n)(x) = L(n)(x, -1), read from packed L(n): its digit c_i, the
    coefficient of s^i x^(n-2i), gives (-1)^i c_i at x^(n-2i)."""
    return _built("l", "recurrence", _index(n))


def spread_z_univariate(n: int, method: str = "via_l") -> UniPoly:
    """The normalized univariate spread polynomial Zx(n), by three routes.

    via_l
        2 - l(n)(2 - x).
    via_l2n
        (-1)^(n-1) * (l(2n)(y) with y^2 -> x, minus 2*(-1)^n).
    from_bivariate
        (-1)^(n-1) * Z(n)(x, -1) = (-1)^(n-1) * x F(n)(sqrt(x - 4), 1)^2,
        the via_fib route of Z(n) at s = -1.

    via_l and from_bivariate run their ladders at x = 2^W (see the module
    docstring); via_l2n reads each coefficient of Zx(n) straight from a
    digit of packed L(2n), its sign set and the constant 2 - c_n.
    """
    n = _index(n)
    return _built("zx", _check_method(method, ZX_METHODS), n)


def wildberger_spread(n: int) -> UniPoly:
    """Wildberger's spread polynomial S(n)(x) = Zx(n)(4x) / 4.

    Built as S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4.  The division by 4
    always clears, which is checked (ArithmeticError otherwise).
    """
    return _built("s", "via_l", _index(n))


def chebyshev_t(n: int) -> UniPoly:
    """Chebyshev polynomial of the first kind, T(n+1) = 2x T(n) - T(n-1)."""
    return _built("t", "recurrence", _index(n))


# -- point values by Lucas-sequence doubling ----------------------------------


def _doubling(n: int, x: int, s: int) -> tuple[int, int]:
    """(F(n), L(n)) at an integer point: the pair (F(n), F(n+1)) by doubling
    from F(0) = 0, F(1) = 1, then L(n) = 2 F(n+1) - x F(n)."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - x * a), b * b + s * a * a
        if bit == "1":
            a, b = b, x * b + s * a
    return a, 2 * b - x * a


def _integral_point(x0: Rat, s0: Rat) -> tuple[int, int, int]:
    """(X, S, lam) with X = lam x0 and S = lam^2 s0 both integers, read from
    the numerators and denominators of x0 and s0 (an int's denominator is 1).

    F(n) and L(n) are weighted-homogeneous (x of weight 1, s of weight 2), so
    F(n)(x0, s0) = F(n)(X, S) / lam^(n-1) and L(n)(x0, s0) = L(n)(X, S) / lam^n:
    the kernel runs on integers, and the caller's result is the only fraction.
    """
    x, s = _coeff(x0), _coeff(s0)
    b, d = x.denominator, s.denominator
    return x.numerator * d, s.numerator * b * b * d, b * d


def fibonacci_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """F(n)(x0, s0) = F(n)(X, S) lam / lam^n, by the doubling kernel at the
    integral point, without building F(n)."""
    n = _index(n)
    x, s, lam = _integral_point(x0, s0)
    return Fraction(_doubling(n, x, s)[0] * lam, lam**n)


def lucas_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """L(n)(x0, s0) = L(n)(X, S) / lam^n, by the doubling kernel at the
    integral point."""
    n = _index(n)
    x, s, lam = _integral_point(x0, s0)
    return Fraction(_doubling(n, x, s)[1], lam**n)


def _z_at(n: int, x0: Rat, s0: Rat, scale: int = 1) -> Fraction:
    """Z(n)(scale x0, s0) / scale, as one fraction.  Z(n) is homogeneous of
    degree n, so with scale x0 = X/m and s0 = S/m it is Z(n)(X, S) / m^n, and
    Z(n)(X, S) = L(n)(X + 2S, -S^2) - 2 S^n runs the kernel at an integer
    point; the division by the scale joins m^n in the denominator."""
    s0, x0 = _coeff(s0), _coeff(x0)
    m, n = x0.denominator * s0.denominator, _index(n)
    x, s = scale * x0.numerator * s0.denominator, s0.numerator * x0.denominator
    return Fraction(_doubling(n, x + 2 * s, -s * s)[1] - 2 * s**n, scale * m**n)


def z_at(n: int, x0: Rat, s0: Rat) -> Fraction:
    """Z(n)(x0, s0) = L(n)(x0 + 2 s0, -s0^2) - 2 s0^n, by the doubling kernel
    at an integer point (``_z_at``)."""
    return _z_at(n, x0, s0)


def univariate_l_at(n: int, x0: Rat) -> Fraction:
    """l(n)(x0) = L(n)(x0, -1)."""
    return lucas_at(n, x0, -1)


def spread_z_univariate_at(n: int, x0: Rat) -> Fraction:
    """Zx(n)(x0) = (-1)^(n-1) Z(n)(x0, -1) = -Z(n)(-x0, 1), as Z(n) is
    homogeneous of degree n: the sign is the scale -1."""
    return _z_at(n, x0, 1, -1)


def wildberger_spread_at(n: int, x0: Rat) -> Fraction:
    """S(n)(x0) = Zx(n)(4 x0) / 4 = Z(n)(-4 x0, 1) / -4: the scale -4."""
    return _z_at(n, x0, 1, -4)


def chebyshev_t_at(n: int, x0: Rat) -> Fraction:
    """T(n)(x0) = L(n)(2 x0, -1) / 2 = L(n)(2 X, S) / (2 lam^n), with (X, S,
    lam) the integral point of (x0, -1)."""
    x, s, lam = _integral_point(x0, -1)
    return Fraction(_doubling(_index(n), 2 * x, s)[1], 2 * lam**n)


def _log2_height(v: Rat) -> int:
    """ceil(log2(max(|numerator|, denominator))) of a rational."""
    v = _coeff(v)
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
