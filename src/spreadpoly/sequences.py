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

The ``closed`` routes of F, L and Z, ``triangle`` and the builders of l, T
and S run rows by exact ratios (``rows``): each entry is the one before times
a small num/den, the division checked.  They share no code with
``coefficient_c`` or with any ladder.  So ``gen`` runs a row for l, T and S,
and their ladders remain routes (``_ROUTES``), run by the sweeps' streams and
by the single-n ``_built``; the ``closed_rows`` suite compares each with its
row.

Each recurrence route is a ladder, data (seeds, weights) for a(k) = w0 a(k-1)
+ w1 a(k-2) + ..., run by a generator that holds only the last len(seeds)
members, so no route keeps a list.  The two-term ladders (F, L, T and l) run
one loop (``_ladder``).  Three run loops of their own: the Z[sqrt(D)] ladder
of via_fib, whose weights alternate with the parity of k, steps two members
per loop (``_fib_surds``); the Z recurrence, whose three weights share the
factor x+3s, steps Z(k) = (x+3s) (Z(k-1) - s Z(k-2)) + s^3 Z(k-3)
(``_z_ladder``), 7 big-int passes where the three weights take 10; and L
from_fib steps F and reads L(n) = F(n+1) + s F(n-1) from the same window
(``_lucas_from_fib``).  A route runs its ladder on packed ints
(Kronecker substitution): a member packs as its value at (x, s) = (1, 2^W),
one W-bit slot per s-degree, and T(n) as its value at x = 2^W; weights act as
shifts (``poly._Shifts``).  A step adds each weighted member straight into one
running total, a coefficient of +1 or -1 as an add or a subtract, so it builds
no product per weight and no separate sum.  No information is lost: F(n) and
L(n) are weighted-homogeneous with dx + 2 ds = n - 1 and n, Z(n) with
dx + ds = n, so the s-degree of a term fixes its x-degree.

A single-n builder and a sweep's stream (``_stream``) run the same route
(``_ROUTES``) through the same code.  The builder runs its ladder in blocks of
members (``_blocks``), one per 100 members and at most 8, each in the slots
of the route's bound at the block's last member, so early members do not pay
for the width of member n.  At each block's end the live window, the two or
three states a step reads, is repacked into the next block's slots by one
byte-padding pass (``poly._repacked``), and member n alone is read back.  The
stream runs in one block, at the width of the last member its sweep reads,
reading each.
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
coefficients.  W is the least multiple of 8 above the bit length of A.  Past
member 1 no bound falls, so the bound at a block's last member also holds
the members before it in the window, and through it every repacked state has
a stated digit bound that the block's width covers: F, L and Z their own;
T its signed bound, through the bias; the parity ladders F(k) and L(k) below
Z(k)(1, 1); the l ladders through the member they read, Zx(k) = 2 - l and
S(k) = (2 - l) / 4; ``_fib_surds``' c(k) below Z(k)(1, 1) (its docstring).

Point values (the ``*_at`` functions and ``point_bits_bound``) never build a
polynomial: they run the doubling kernel of ``points``, imported here for
the width bounds and re-exported.
"""

from __future__ import annotations

from functools import partial
from itertools import count, islice, repeat
from math import comb, factorial
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .points import (
    _doubling,
    chebyshev_t_at,
    fibonacci_at,
    lucas_at,
    point_bits_bound,
    spread_z_univariate_at,
    univariate_l_at,
    wildberger_spread_at,
    z_at,
)
from .poly import (
    P,
    BiPoly,
    UniPoly,
    _digits,
    _index,
    _repacked,
    _Shifts,
    _slot_width,
)
from .rows import _c_row, _fib_lucas_row, _l_row, _s_row, _t_row

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
_LIFT = _X + 4 * _S  # D = x + 4s of via_fib at (1, 2^W), with t = -s
_X_MINUS_4 = UniPoly({0: -4, 1: 1})  # D = x - 4 of Zx from_bivariate at x = 2^W, t = 1

# Blocks (stop, width, bound): a ladder steps its members up to member stop
# (on without end when stop is None) in width-bit slots, and bound holds every
# digit of every state that it leaves in its window at stop.
_Blocks = Sequence[tuple[int | None, int, int]]


def _spans(blocks: _Blocks, k: int) -> Iterator[tuple]:
    """Each block of a ladder whose next member is k, as (width, steps, old):
    steps runs over the indices of the members that the block steps, k to
    its stop or on without end, and old is the (width, bound) of the block
    before, from whose slots the window moves (None in the first block)."""
    old = None
    for stop, width, bound in blocks:
        yield width, count(k) if stop is None else range(k, stop + 1), old
        k, old = stop and stop + 1, (width, bound)


def _ladder(at: Callable[[int], tuple], blocks: _Blocks, move: Callable) -> Iterator[int]:
    """a(0), a(1), ... of a two-term ladder, a(k) = w0 a(k-1) + w1 a(k-2),
    holding only a(k-2) and a(k-1), run in ``blocks``: at(W) is its two seeds
    packed in W-bit slots and (w0, w1) as shifts there.  A step adds both
    terms by ``_Shifts.add_to``, copying no first term.  A block after the
    first moves the window into its own slots, move(window, width, bound,
    new), and rebuilds the weights."""
    for width, steps, old in _spans(blocks, 2):
        seeds, (w0, w1) = at(width)
        if old:
            a, b = move((a, b), *old, width)
        else:
            a, b = seeds
            yield from seeds
        for _ in steps:
            a, b = b, w1.add_to(w0 * b, a)
            yield b


def _packed_ladder(ladder: tuple[tuple[P, ...], tuple[P, ...]], blocks: _Blocks) -> Iterator[int]:
    """A ladder run on ints: in each block its seeds packed and its weights
    as shifts, in that block's slots."""
    seeds, weights = ladder

    def at(width: int) -> tuple:
        return [a._packed(width) for a in seeds], [w._shifts(width) for w in weights]

    return _ladder(at, blocks, _repacked)


def _z_ladder(blocks: _Blocks) -> Iterator[int]:
    """Z(0), Z(1), ... packed: the recurrence of ``_Z`` with its shared factor
    pulled out, Z(k) = (x+3s) (Z(k-1) - s Z(k-2)) + s^3 Z(k-3), in 7 big-int
    passes per step where its three weights take 10, run in ``blocks``."""
    seeds, (factor, *_) = _Z
    a, b, c = (z._packed(blocks[0][1]) for z in seeds)
    yield from (a, b, c)
    for width, steps, old in _spans(blocks, 3):
        if old:
            a, b, c = _repacked((a, b, c), *old, width)
        shifts = factor._shifts(width)
        for _ in steps:
            a, b, c = b, c, shifts.add_to(a << 3 * width, c - (b << width))
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


def _fib_surds(d: P, t: P, blocks: _Blocks) -> Iterator[int]:
    """c(n) for n = 0, 1, ..., where F(n)(sqrt(D), t) is c(n) at odd n and
    c(n) sqrt(D) at even n: the x-degrees of F(n) share one parity.  So the
    Fibonacci ladder in Z[sqrt(D)] runs on its nonzero part alone, c(n) =
    D c(n-1) + t c(n-2) at odd n and c(n-1) + t c(n-2) at even n, with D and
    t packed weights.  It steps two members at a time, so every stop of its
    ``blocks`` but the last is odd.

    c(n) is a polynomial in the one packed variable, s for D = x + 4s and
    t = -s, x for D = x - 4 and t = 1, whose absolute coefficients sum to at
    most F(n)(sqrt(5), 1), the same sum with every sign +: with r = (3 +
    sqrt(5))/2 that is (r^n - (-1/r)^n) / 3, below Z(n)(1, 1) = r^n + r^-n -
    2 for n >= 1.  So the route's bound, Z(n)'s, holds the window's digits."""
    even, odd = 0, 1
    yield from (even, odd)
    for width, steps, old in _spans(blocks, 2):
        if old:
            even, odd = _repacked((even, odd), *old, width)
        dw, tw = d._shifts(width), t._shifts(width)
        for _ in islice(steps, 0, None, 2):
            even = tw.add_to(odd, even)
            yield even
            odd = tw.add_to(dw * even, odd)
            yield odd


def _l_at(shift: int, blocks: _Blocks) -> Iterator[int]:
    """l(n) = L(n)(x, -1) for n = 0, 1, ..., at x = 2 - 2^(W + shift): the
    value 2 - M(n)(2^W) 2^shift, with M = Zx at shift 0 and M = S at shift 2
    (the module docstring).  A block moves its window through M, whose
    digits the route's bound holds."""

    def at(width: int) -> tuple:
        x = _Shifts({0: 2, width + shift: -1})
        return (2, x * 1), (x, _Shifts({0: -1}))

    def move(window: Sequence[int], *slots: int) -> list[int]:
        return [2 - (m << shift) for m in _repacked([(2 - v) >> shift for v in window], *slots)]

    return _ladder(at, blocks, move)


# -- routes: one packed ladder each ---------------------------------------------

# A route is (first, ladder, bound, member).  ladder(blocks) yields the states
# of members first, first + 1, ..., each in the W-bit slots of its block, each
# step cheap; bound(n) is the sum of member n's absolute coefficients, and at
# a block's stop it bounds every digit of the states the window holds there;
# member(state, W, bound(n), n), one of the steps below, reads member n back,
# and raises ArithmeticError when bound(n) does not fit W.
_lucas_unpacked = partial(BiPoly._unpacked, s_weight=2)  # L(n), or L(2n) at degree 2n
_z_unpacked = partial(BiPoly._unpacked, s_weight=1)


def _fib_unpacked(value: int, width: int, bound: int, n: int) -> BiPoly:
    """F(n) from its packed value."""
    return BiPoly._unpacked(value, width, bound, n - 1, 2)


def _lucas_from_fib(blocks: _Blocks) -> Iterator[int]:
    """L(n) = F(n+1) + s F(n-1) for n = 1, 2, ..., packed: F(n+1) plus F(n-1)
    shifted up one s-slot, from one F ladder (``_FIB``), holding only F(n-1)
    and F(n).  Its window at L(n), F(n) and F(n+1), has digits up to
    F(n+1)(1, 1) <= L(n)(1, 1), the route's bound."""
    seeds, weights = _FIB
    before, middle = (a._packed(blocks[0][1]) for a in seeds)
    for width, steps, old in _spans(blocks, 1):
        if old:
            before, middle = _repacked((before, middle), *old, width)
        x, s = (w._shifts(width) for w in weights)
        for _ in steps:
            after = s.add_to(x * middle, before)
            yield s.add_to(after, before)
            before, middle = middle, after


def _z_via_lucas(value: int, width: int, bound: int, n: int) -> BiPoly:
    """Z(n) from packed L(2n), whose digit c_i is its coefficient of s^i
    x^(2n-2i): c_i at s^i x^(n-i), and c_n - 2 at s^n."""
    digits = _digits(value, width, n + 1, bound)
    digits[n] -= 2
    return BiPoly._zipped(range(n, -1, -1), count(), digits)


def _parity_ladder(blocks: _Blocks, n: int | None = None) -> Iterator[int]:
    """L(k) at odd k and F(k) at even k, packed, for k = 0, 1, ...: the member
    that Z(k) reads.  A sweep reads both parities, so both ladders run; member
    n alone (``n`` given) runs only the ladder of its parity.  Past k = 1,
    F(k)(1, 1) and L(k)(1, 1) are below Z(k)(1, 1), the route's bound."""
    if n is not None:
        return _packed_ladder((_FIB, _LUCAS)[n % 2], blocks)
    pairs = zip(_packed_ladder(_FIB, blocks), _packed_ladder(_LUCAS, blocks))
    return (pair[k % 2] for k, pair in enumerate(pairs))


def _z_from_parity(value: int, width: int, bound: int, n: int) -> BiPoly:
    """Z(n)(1, 2^W) = value^2 at odd n and (x + 4s) value^2 at even n, the one
    reader of two routes: ``parity``, whose value is packed L(n) at odd n and
    packed F(n) at even n, and ``via_fib``, whose value is c(n) of
    ``_fib_surds`` at D = x + 4s, t = -s, as Z(n) = x F(n)(sqrt(D), -s)^2."""
    return _z_unpacked(value**2 if n % 2 else _LIFT._shifts(width) * value**2, width, bound, n)


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
    value = square if n % 2 else -(_X_MINUS_4._shifts(width) * square)
    return UniPoly._unpacked(value << width, width, bound, n)


def _s_from_l(value: int, width: int, bound: int, n: int) -> UniPoly:
    """S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4, the division by 4 checked."""
    quarter, rest = divmod(2 - value, 4)
    if rest:
        raise ArithmeticError(f"S({n}) came out non-integral")
    return UniPoly._unpacked(quarter, width, bound, n)


def _lucas_evens(blocks: _Blocks) -> Iterator[int]:
    """L(0), L(2), L(4), ... packed: the block of member n ends at L(2n)."""
    doubled = [(stop and 2 * stop, width, bound) for stop, width, bound in blocks]
    return islice(_packed_ladder(_LUCAS, doubled), 0, None, 2)


_ROUTES = {
    ("fibonacci", "recurrence"): (0, partial(_packed_ladder, _FIB), _fib_bound, _fib_unpacked),
    ("lucas", "recurrence"): (0, partial(_packed_ladder, _LUCAS), _lucas_bound, _lucas_unpacked),
    ("lucas", "from_fib"): (1, _lucas_from_fib, _lucas_bound, _lucas_unpacked),
    ("z", "recurrence"): (0, _z_ladder, _z_bound, _z_unpacked),
    ("z", "via_lucas"): (0, _lucas_evens, lambda n: _lucas_bound(2 * n), _z_via_lucas),
    ("z", "via_fib"): (0, partial(_fib_surds, _LIFT, -_S), _z_bound, _z_from_parity),
    ("z", "parity"): (0, _parity_ladder, _z_bound, _z_from_parity),
    ("zx", "via_l"): (0, lambda blocks: _l_at(0, blocks), _z_bound, _zx_from_l),
    ("zx", "via_l2n"): (0, _lucas_evens, lambda n: _lucas_bound(2 * n), _zx_via_l2n),
    ("zx", "from_bivariate"): (
        0, partial(_fib_surds, _X_MINUS_4, UniPoly.one()), _z_bound, _zx_from_surd
    ),
    ("l", "recurrence"): (0, partial(_packed_ladder, _LUCAS), _lucas_bound, _l_from_lucas),
    ("t", "recurrence"): (
        0, partial(_packed_ladder, _CHEBYSHEV), _chebyshev_bound, UniPoly._unpacked
    ),
    ("s", "via_l"): (0, lambda blocks: _l_at(2, blocks), _s_bound, _s_from_l),
}


# Member n of a route runs in one block per _SPAN members, at most _PARTS.
# Measured in-process on every route: below n = 200 the repacks cost about as
# much as the narrower slots save, and past 8 blocks little is left to save.
_SPAN, _PARTS = 100, 8


def _blocks(n: int, bound: Callable[[int], int]) -> _Blocks:
    """The blocks that member n of a route runs in: n // ``_SPAN`` of about
    equal length, at least one and at most ``_PARTS``, each at the slot width
    of the route's bound at its stop, the last on past n.  The schedule comes
    from n and the bound alone.  Every stop but the last is odd, so that
    ``_fib_surds`` steps whole pairs within a block."""
    parts = max(1, min(n // _SPAN, _PARTS))
    stops = [n * i // parts | 1 for i in range(1, parts)]
    tops = map(bound, [*stops, n])
    return [(stop, _slot_width(top), top) for stop, top in zip([*stops, None], tops)]


def _built(family: str, method: str, n: int) -> BiPoly | UniPoly:
    """Member n of a route: its ladder run in the ``_blocks`` of member n, so
    that early members take narrower slots than member n's, and member n
    alone read back at the last block's width.  ``parity`` runs one of its two
    ladders."""
    first, ladder, bound, member = _ROUTES[family, method]
    blocks = _blocks(n, bound)
    _, width, top = blocks[-1]
    states = ladder(blocks, n) if method == "parity" else ladder(blocks)
    return member(next(islice(states, n - first, None)), width, top, n)


def _stream(last: int, family: str, method: str = "recurrence") -> Iterator[BiPoly | UniPoly]:
    """Members 0, 1, 2, ... of one route, for a sweep that reads up to member
    ``last``: the route's ladder, from its own seeds, in one block at member
    ``last``'s slot width.  Each member is read with its own bound, so one past ``last``
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
    top = bound(last)
    width = _slot_width(top)
    states = ladder([(None, width, top)])
    return (member(state, width, bound(n), n) for n, state in enumerate(states, first))


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
    """l(n)(x) = L(n)(x, -1): (-1)^k n/(n-k) C(n-k, k) at x^(n-2k), by row
    ratios (``rows._l_row``), the route ``gen`` runs.  The ladder, packed L(n)
    read from its signed digits, remains a route (``_ROUTES``): the sweeps
    stream it and the ``closed_rows`` suite compares it with this row."""
    n = _index(n)
    return UniPoly._zipped(range(n, -1, -2), repeat(0), _l_row(n))


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

    Built by row ratios (``rows._s_row``), the route ``gen`` runs: n/k
    C(n+k-1, 2k-1) (-4)^(k-1) at x^k, each division checked
    (ArithmeticError otherwise).  The ladder remains a route (``_ROUTES``):
    S(n)(2^W) = (2 - l(n)(2 - 4 * 2^W)) / 4, the division by 4 checked, which
    the sweeps stream and the ``closed_rows`` suite compares with this row.
    """
    n = _index(n)
    return UniPoly._zipped(count(1), repeat(0), _s_row(n))


def chebyshev_t(n: int) -> UniPoly:
    """Chebyshev polynomial of the first kind, T(n+1) = 2x T(n) - T(n-1).

    Built by row ratios (``rows._t_row``), the route ``gen`` runs: l(n)'s
    row times 2^(n-2k-1) at x^(n-2k).  The ladder of that recurrence, packed
    at x = 2^W, remains a route (``_ROUTES``), which the sweeps stream and the
    ``closed_rows`` suite compares with this row.
    """
    n = _index(n)
    return UniPoly._zipped(range(n, -1, -2), repeat(0), _t_row(n))
