"""Exact sparse polynomials over the rationals, in the variables (x, s) and in x alone.

Coefficients are exact rationals: plain ``int`` while a value is integral,
``fractions.Fraction`` otherwise.  The two representations compare and hash
identically, so polynomial equality is plain dict equality and nothing ever
rounds, apart from ``UniPoly.eval_float``: the exact value at a double, rounded
once.

Polynomials are immutable value objects.  Canonical form stores no zero
coefficients, and iteration/rendering order is fixed (descending degree in x,
then descending degree in s), so equal polynomials always render to the same
string.

``BiPoly`` and ``UniPoly`` share one sparse ring implementation that keys
terms by ``(deg_x, deg_s)``; a ``UniPoly`` stores its terms as ``(k, 0)``.
Both evaluate through one body, and ``compose`` and ``even_substitute`` are
one Horner pass in x.  Every product runs one loop (``_add_product``), which
adds p q into a term map, or subtracts it: ``gf.expand`` builds each series
coefficient in one map through it.  Only the public constructors validate
their input.  Operation results are canonical by construction and skip those
checks.

Beneath the ring sits a packing kernel for integer polynomials (Kronecker
substitution): a ``UniPoly`` packs as its value at x = 2^W, a ``BiPoly`` as
its value at (x, s) = (1, 2^W), one W-bit slot per degree in x or in s.  A
weight packs as ``_Shifts``, whose one step adds weight * a into a running
total by shifts, adds, subtracts and small products; a product weight * a
starts from its first term, so it copies nothing that it does not shift or
scale.  Unpacking reads signed slots back with a bias, in linear time, and
raises ArithmeticError rather than return digits that may not be the
coefficients.  The digits, or a row, become the terms in one pass
(``_zipped``), zeros dropped and nothing validated again.

Whole rows of integer coefficients (of F, L and Z) run by exact ratios
(``_ratio_row``): each entry is the one before times a small num/den, and a
division that leaves a remainder raises ArithmeticError.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import count, repeat
from typing import Callable, Collection, Iterable, Iterator, Mapping, TypeVar

__all__ = [
    "Rat",
    "OddDegreeError",
    "ZeroPolynomialError",
    "BiPoly",
    "UniPoly",
]

Rat = int | Fraction
Key = tuple[int, int]
P = TypeVar("P", bound="_SparsePoly")


class OddDegreeError(ValueError):
    """A square-root substitution hit a term of odd degree.

    The callers that halve exponents only ever do so on polynomials that are
    even in the substituted variable; seeing this error means the input was
    not one of those.
    """


class ZeroPolynomialError(ValueError):
    """A degree-based operation was applied to the zero polynomial."""


def _coeff(c: object) -> Rat:
    """Validate and normalize a coefficient: integral Fractions become ints."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(
        f"coefficient must be an exact rational (int or Fraction), got {type(c).__name__}"
    )


def _index(value: object, least: int = 0, what: str = "index") -> int:
    """The guard on every index, exponent and size argument: ``value`` itself
    when it is an int (never a bool) of at least ``least``, else ValueError."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def _canonical(terms: Mapping[Key, object]) -> dict[Key, Rat]:
    """Validate raw ``{(deg_x, deg_s): c}`` input and drop zero coefficients."""
    data: dict[Key, Rat] = {}
    for (dx, ds), raw in terms.items():
        c = _coeff(raw)
        if c:
            data[_index(dx, what="exponent"), _index(ds, what="exponent")] = c
    return data


def _scaled_powers(v: Rat, degrees: Collection[int]) -> tuple[dict[int, int], int]:
    """The powers of v = num/den over one denominator: ``({e: num^e den^(top-e)},
    den^top)`` for the given degrees, top the largest, so v^e = table[e] / den^top.
    Only the degrees asked for are built, so a sparse polynomial of high degree
    costs no more than its own terms."""
    num, den = v.numerator, v.denominator
    top = max(degrees)
    return {e: num**e * den ** (top - e) for e in degrees}, den**top


def _slot_width(bound: int) -> int:
    """The least multiple of 8 bits W with bound < 2^(W-1): slots that hold any
    coefficient of absolute value at most bound, each a whole number of bytes."""
    return (bound.bit_length() + 8) // 8 * 8


def _digits(value: int, width: int, slots: int, bound: int) -> list[int]:
    """The signed digits c_0, ..., c_(slots-1) of value = sum c_j 2^(width j),
    given |c_j| <= bound for every j.

    Digits in [-2^(width-1), 2^(width-1)) are unique, so they are the c_j once
    bound < 2^(width-1).  Adding 2^(width-1) to every slot (the bias) makes
    each digit a plain byte-aligned field, read in one pass.  ArithmeticError
    when the bound does not fit the width or the value does not fit the slots.
    """
    if width < 8 or width % 8 or bound >= 1 << (width - 1):
        raise ArithmeticError(f"coefficients up to {bound} do not fit {width}-bit slots")
    size, half = width // 8, 1 << (width - 1)
    biased = value + int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    if biased < 0 or biased >> (width * slots):
        raise ArithmeticError(f"value does not fit {slots} slots of {width} bits")
    data = memoryview(biased.to_bytes(size * slots, "little"))
    return [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]


def _ratio_row(first: int, steps: Iterable[tuple[int, int]]) -> Iterator[int]:
    """``first``, then each entry as the one before times num/den, for each
    (num, den) in ``steps``: a row of integer coefficients at one small
    product and one exact division per entry.  ArithmeticError when a
    division leaves a remainder."""
    entry = first
    yield entry
    for num, den in steps:
        entry, rest = divmod(entry * num, den)
        if rest:
            raise ArithmeticError(f"row entry times {num}/{den} came out non-integral")
        yield entry


def _c_row(n: int) -> Iterator[int]:
    """c(n, 1), ..., c(n, n) for n >= 1, the coefficients of Z(n) (OEIS A156308):
    c(n, 1) = n^2 and c(n, k+1) = c(n, k) (n-k)(n+k) / ((2k+1)(2k+2))."""
    return _ratio_row(n * n, (((n - k) * (n + k), (2 * k + 1) * (2 * k + 2)) for k in range(1, n)))


def _fib_lucas_row(n: int, top: int) -> Iterator[int]:
    """The coefficients r(k) of s^k x^(top-2k), k = 0, 1, ..., of F(n) at
    top = n - 1, C(n-1-k, k), and of L(n) at top = n >= 1, n/(n-k) C(n-k, k):
    r(0) = 1 and r(k+1) = r(k) j (j-1) / ((k+1)(n-1-k)) at j = top - 2k."""
    steps = zip(range(top, 1, -2), range(1, n))
    return _ratio_row(1, ((j * (j - 1), i * (n - i)) for j, i in steps))


class _Shifts:
    """A packed weight sum_j c_j 2^(shift_j), applied to a packed int a as
    sum_j c_j (a << shift_j): linear in a, where one big-int product by the
    weight's value would be a lopsided multiply.

    ``add_to`` is the one step: it adds weight * a into a running total, so a
    ladder step, the Z[sqrt(D)] ladder and a Horner step build no product per
    weight and no separate sum.  ``weight * a``, the first term of a ladder
    step, starts its total from its first term rather than adding that term
    to 0, which would copy it: the weight x of F and L, packed as 1, gives a
    itself."""

    __slots__ = ("_pairs",)

    def __init__(self, slot_sums: Mapping[int, int]) -> None:
        self._pairs = tuple((c, shift) for shift, c in slot_sums.items() if c)

    def add_to(self, total: int, a: int) -> int:
        """total + weight * a, every term added into the one running total: a
        coefficient of +1 or -1 is an add or a subtract, and shift 0 no shift."""
        for c, shift in self._pairs:
            term = a << shift if shift else a
            total = total + term if c == 1 else total - term if c == -1 else total + c * term
        return total

    def __mul__(self, a: int) -> int:
        """weight * a: ``add_to`` from 0, except that a term met while the
        total is still 0 becomes the total (times c), not an add to 0."""
        total = 0
        for c, shift in self._pairs:
            term = a << shift if shift else a
            if total:
                total = total + term if c == 1 else total - term if c == -1 else total + c * term
            else:
                total = term if c == 1 else c * term
        return total

    __rmul__ = __mul__


def _add_product(
    acc: dict[Key, Rat], p: _SparsePoly, q: _SparsePoly, sign: int = 1
) -> dict[Key, Rat]:
    """acc + sign p q, added into the term map acc term by term (zeros are left
    for ``_trusted`` to drop): the ring's one product loop, and a subtract at
    sign -1."""
    if len(p) > len(q):
        p, q = q, p
    for (ax, asdeg), ac in p._terms.items():
        ac *= sign
        for (bx, bs), bc in q._terms.items():
            key = (ax + bx, asdeg + bs)
            acc[key] = acc.get(key, 0) + ac * bc
    return acc


class _SparsePoly:
    """The ring shared by BiPoly and UniPoly.

    Terms live in a map ``{(deg_x, deg_s): coefficient}``; zero coefficients
    are never stored, so the zero polynomial is the empty map.  Operations
    accept only operands of the same class (or exact rational scalars) and
    return new instances in canonical form.
    """

    __slots__ = ("_terms",)
    _SLOT = 0  # the key position a packed slot stands for: x-degree here

    def __init_subclass__(cls) -> None:
        # The shared operators, bound in each class's own namespace so that
        # per-class instrumentation (perfbench/tracer.py) finds each of them there.
        for name in "__add__ __radd__ __sub__ __rsub__ __neg__ __mul__ __rmul__ render".split():
            setattr(cls, name, getattr(_SparsePoly, name))

    @classmethod
    def _trusted(cls: type[P], terms: Mapping[Key, Rat]) -> P:
        """Wrap the terms an operation built, without validating them.

        The keys must already be valid exponent pairs and the values exact
        rationals.  Zero coefficients are dropped and integral Fractions,
        which rational arithmetic produces, become ints, so every result is
        canonical.
        """
        poly = object.__new__(cls)
        poly._terms = {
            key: c if type(c) is int or c.denominator != 1 else c.numerator
            for key, c in terms.items()
            if c
        }
        return poly

    @classmethod
    def _zipped(cls: type[P], xs: Iterable[int], ss: Iterable[int], coeffs: Iterable[int]) -> P:
        """The integer polynomial with coefficient c at (dx, ds) for the zipped
        dx, ds and c, zeros dropped: a row, or the digits of a packed value,
        wrapped in one pass without validation."""
        poly = object.__new__(cls)
        poly._terms = {(dx, ds): c for dx, ds, c in zip(xs, ss, coeffs) if c}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls: type[P]) -> P:
        return cls._trusted({})

    @classmethod
    def one(cls: type[P]) -> P:
        return cls._trusted({(0, 0): 1})

    @classmethod
    def x(cls: type[P]) -> P:
        return cls._trusted({(1, 0): 1})

    @classmethod
    def constant(cls: type[P], c: Rat) -> P:
        return cls._trusted({(0, 0): _coeff(c)})

    # -- inspection --------------------------------------------------------

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(isinstance(c, int) for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------

    def _combine(self: P, other: P | Rat, op: Callable[[Rat, Rat], Rat]) -> P:
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = op(acc.get(key, 0), c)
        return self._trusted(acc)

    def __add__(self: P, other: P | Rat) -> P:
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self: P, other: P | Rat) -> P:
        return self._combine(other, operator.sub)

    def __rsub__(self: P, other: Rat) -> P:
        return -self + other

    def __neg__(self: P) -> P:
        return self._trusted({key: -c for key, c in self._terms.items()})

    def __mul__(self: P, other: P | Rat) -> P:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._trusted(_add_product({}, self, other))

    __rmul__ = __mul__

    def scale(self: P, c: Rat) -> P:
        c = _coeff(c)
        return self._trusted({key: v * c for key, v in self._terms.items()})

    def __pow__(self: P, k: int) -> P:
        result = self.one()
        for _ in range(_index(k, what="exponent")):
            result = result * self
        return result

    def halve_degrees(self: P) -> P:
        """Replace x^(2k) by x^k; degrees in s pass through.

        Raises OddDegreeError unless every term has even degree in x.
        """
        for dx, _ in self._terms:
            if dx % 2:
                raise OddDegreeError(
                    f"term with x-degree {dx} is odd; polynomial is not even in x"
                )
        return self._trusted({(dx // 2, ds): c for (dx, ds), c in self._terms.items()})

    # -- evaluation and substitution ----------------------------------------

    def _evaluate(self, x0: Rat, s0: Rat) -> Fraction:
        """Exact value of the polynomial at the rational point (x0, s0).

        The sum runs over one common denominator, on integers for integral
        coefficients, and one fraction is reduced at the end.
        """
        x0 = _coeff(x0)
        s0 = _coeff(s0)
        if not self._terms:
            return Fraction(0)
        px, den_x = _scaled_powers(x0, {dx for dx, _ in self._terms})
        ps, den_s = _scaled_powers(s0, {ds for _, ds in self._terms})
        return Fraction(self._term_sum(px, ps), den_x * den_s)

    def _term_sum(self, px: Mapping[int, int], ps: Mapping[int, int]) -> Rat:
        """sum c px[dx] ps[ds] over the terms: the value at (x0, s0) times
        den_x den_s, given ``_scaled_powers`` tables of x0 and s0 that cover
        every degree.  A caller that evaluates many polynomials at one point
        builds the tables once."""
        return sum(c * px[dx] * ps[ds] for (dx, ds), c in self._terms.items())

    def _horner(self: P, r: P) -> P:
        """p(r, s) by Horner's scheme in x: the terms are grouped by x-degree into
        rows, polynomials in s, and x^k becomes r^k one degree gap at a time."""
        rows: dict[int, dict[Key, Rat]] = {}
        for (dx, ds), c in self._terms.items():
            rows.setdefault(dx, {})[0, ds] = c
        if not rows:
            return self.zero()
        degrees = sorted(rows, reverse=True)
        power = functools.cache(r.__pow__)  # each distinct gap r^g is built once
        acc = self._trusted(rows[degrees[0]])
        for prev, cur in zip(degrees, degrees[1:]):
            acc = acc * power(prev - cur) + self._trusted(rows[cur])
        return acc * power(degrees[-1]) if degrees[-1] else acc

    # -- packing -------------------------------------------------------------

    def _slot_sums(self, width: int) -> dict[int, int]:
        """{shift: sum of the coefficients packed into the slot at that shift}."""
        sums: dict[int, int] = {}
        for key, c in self._terms.items():
            shift = width * key[self._SLOT]
            sums[shift] = sums.get(shift, 0) + c
        return sums

    def _packed(self, width: int) -> int:
        """This integer polynomial as one int, in slots of ``width`` bits."""
        return sum(c << shift for shift, c in self._slot_sums(width).items())

    def _shifts(self, width: int) -> _Shifts:
        """This integer polynomial as a weight on ints packed in ``width``-bit slots."""
        return _Shifts(self._slot_sums(width))

    # -- comparison and rendering --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash as that scalar too.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def render(self, max_terms: int | None = None) -> str:
        """Canonical text form, e.g. ``x^3 + 6*s*x^2 + 9*s^2*x``.

        Descending x-degree then descending s-degree; coefficient 1 and
        exponent 1 are elided; signs are explicit.  ``max_terms`` truncates
        long polynomials for display, to at least one term.
        """
        keys = sorted(self._terms, reverse=True)
        shown = len(keys) if max_terms is None else _index(max_terms, 1, "max_terms")
        out: list[str] = []
        for dx, ds in keys[:shown]:
            c = self._terms[dx, ds]
            parts = []
            if ds > 0:
                parts.append("s" if ds == 1 else f"s^{ds}")
            if dx > 0:
                parts.append("x" if dx == 1 else f"x^{dx}")
            mag = abs(c)
            if mag != 1 or not parts:
                parts.insert(0, str(mag))
            body = "*".join(parts)
            if out:
                out.append(f"- {body}" if c < 0 else f"+ {body}")
            else:
                out.append(f"-{body}" if c < 0 else body)
        if len(keys) > shown:
            out.append(f"+ ... ({len(keys) - shown} more terms)")
        return " ".join(out) or "0"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render(max_terms=12)})"


class BiPoly(_SparsePoly):
    """A sparse polynomial in the commuting variables x and s.

    Terms live in a map ``{(deg_x, deg_s): coefficient}``; zero coefficients
    are never stored, so the zero polynomial is the empty map.  All operations
    return new instances in canonical form.
    """

    __slots__ = ()
    _SLOT = 1  # packed at (x, s) = (1, 2^W): one slot per s-degree

    def __init__(self, terms: Mapping[Key, Rat] | None = None) -> None:
        self._terms = _canonical(terms) if terms else {}

    evaluate = _SparsePoly._evaluate

    # -- constructors ------------------------------------------------------

    @classmethod
    def s(cls) -> BiPoly:
        return cls._trusted({(0, 1): 1})

    @classmethod
    def monomial(cls, c: Rat, deg_x: int, deg_s: int) -> BiPoly:
        return cls({(deg_x, deg_s): c})

    @classmethod
    def _unpacked(cls, value: int, width: int, bound: int, degree: int, s_weight: int) -> BiPoly:
        """The polynomial packed as ``value`` in ``width``-bit slots, given that
        every term has weight dx + s_weight * ds = degree and every absolute
        coefficient is at most bound: slot ds holds the term of x-degree
        degree - s_weight * ds."""
        xs = range(degree, -1, -s_weight)
        return cls._zipped(xs, count(), _digits(value, width, len(xs), bound))

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Key, Rat]]:
        """Yield ((deg_x, deg_s), coefficient) in canonical order."""
        for key in sorted(self._terms, reverse=True):
            yield key, self._terms[key]

    def coefficient(self, deg_x: int, deg_s: int) -> Rat:
        return self._terms.get((deg_x, deg_s), 0)

    # -- evaluation and substitution ----------------------------------------

    def substitute_s(self, s0: Rat) -> UniPoly:
        """Specialize s to a rational, leaving a polynomial in x alone."""
        s0 = _coeff(s0)
        acc: dict[Key, Rat] = {}
        for (dx, ds), c in self._terms.items():
            acc[dx, 0] = acc.get((dx, 0), 0) + c * s0**ds
        return UniPoly._trusted(acc)

    def even_substitute(self, q: BiPoly) -> BiPoly:
        """Replace each factor x^(2k) by q^k; degrees in s pass through.

        Every term must have even degree in x, otherwise OddDegreeError is
        raised: the substitution stands in for x -> sqrt(q), which only
        lands back in the ring when the polynomial is even in x.
        """
        if not isinstance(q, BiPoly):
            raise TypeError("substitution target must be a BiPoly")
        return self.halve_degrees()._horner(q)

    def weighted_degree(self, w_x: int, w_s: int) -> tuple[int, bool]:
        """Max term weight under weights (w_x, w_s), and whether all terms share it."""
        _index(w_x, 1, "weight")
        _index(w_s, 1, "weight")
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        weights = {w_x * dx + w_s * ds for dx, ds in self._terms}
        return max(weights), len(weights) == 1


class UniPoly(_SparsePoly):
    """A sparse polynomial in the single variable x over the rationals."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Rat] | None = None) -> None:
        self._terms = _canonical({(k, 0): c for k, c in coeffs.items()}) if coeffs else {}

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Rat]]:
        """Yield (degree, coefficient) in descending degree order."""
        for key in sorted(self._terms, reverse=True):
            yield key[0], self._terms[key]

    def coefficient(self, degree: int) -> Rat:
        return self._terms.get((degree, 0), 0)

    @classmethod
    def _unpacked(cls, value: int, width: int, bound: int, degree: int) -> UniPoly:
        """The polynomial of degree at most ``degree`` packed as ``value`` in
        ``width``-bit slots, given that every absolute coefficient is at most bound."""
        return cls._zipped(count(), repeat(0), _digits(value, width, degree + 1, bound))

    def degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(self._terms)[0]

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, x0: Rat) -> Fraction:
        """Exact value at the rational x0, over one common denominator."""
        return self._evaluate(x0, 0)

    def eval_float(self, x: float) -> float:
        """The value at the double x, correctly rounded: exact at x itself,
        rounded once.  OverflowError when that value is past the double
        range; a non-finite x raises as ``float.as_integer_ratio`` does
        (OverflowError for an infinity, ValueError for nan)."""
        return self._at_double()(x)

    def _at_double(self) -> Callable[[float], float]:
        """This polynomial as a function of a double, its coefficients read
        once: Horner's scheme on ints at x = num/2^e, each coefficient shifted
        by e per degree in place of a power of the denominator, and one
        correctly rounded int/int division by the common denominator."""
        terms = self._terms
        scale = math.lcm(*(c.denominator for c in terms.values()))
        top = max(terms, default=(0, 0))[0]
        coeffs = [int(terms.get((k, 0), 0) * scale) for k in range(top, -1, -1)]

        def at(x: float) -> float:
            num, den = float(x).as_integer_ratio()
            e = den.bit_length() - 1
            acc = 0
            for k, c in enumerate(coeffs):
                acc = acc * num + (c << e * k)
            return acc / (scale << e * top)

        return at

    def compose(self, r: UniPoly) -> UniPoly:
        """Exact polynomial composition p(r(x)), by Horner's scheme."""
        if not isinstance(r, UniPoly):
            raise TypeError("composition target must be a UniPoly")
        return self._horner(r)
