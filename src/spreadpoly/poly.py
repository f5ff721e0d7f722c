"""Exact sparse polynomials over the rationals, in the variables (x, s) and in x alone.

Coefficients are exact rationals: plain ``int`` while a value is integral,
``fractions.Fraction`` otherwise.  The two representations compare and hash
identically, so polynomial equality is plain dict equality and nothing ever
rounds.

Polynomials are immutable value objects.  Canonical form stores no zero
coefficients, and iteration/rendering order is fixed (descending degree in x,
then descending degree in s), so equal polynomials always render to the same
string.

``BiPoly`` and ``UniPoly`` share one sparse ring implementation that keys
terms by ``(deg_x, deg_s)``; a ``UniPoly`` stores its terms as ``(k, 0)``.
Only the public constructors validate their input.  Operation results are
canonical by construction and skip those checks.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping, TypeVar, Union

__all__ = [
    "Rat",
    "OddDegreeError",
    "ZeroPolynomialError",
    "BiPoly",
    "UniPoly",
]

Rat = Union[int, Fraction]
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
    if isinstance(c, bool):
        return int(c)
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
            data[(_index(dx, what="exponent"), _index(ds, what="exponent"))] = c
    return data


def _scaled_powers(v: Rat, degrees: set[int]) -> tuple[dict[int, int], int]:
    """The powers of v = num/den over one denominator: ``({e: num^e den^(top-e)},
    den^top)`` for the given degrees, top the largest, so v^e = table[e] / den^top.
    Only the degrees asked for are built, so a sparse polynomial of high degree
    costs no more than its own terms."""
    num, den = v.numerator, v.denominator
    top = max(degrees)
    return {e: num**e * den ** (top - e) for e in degrees}, den**top


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant for doubles


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


class _SparsePoly:
    """The ring shared by BiPoly and UniPoly.

    Terms live in a map ``{(deg_x, deg_s): coefficient}``; zero coefficients
    are never stored, so the zero polynomial is the empty map.  Operations
    accept only operands of the same class (or exact rational scalars) and
    return new instances in canonical form.
    """

    __slots__ = ("_terms",)

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

    def __bool__(self) -> bool:
        return bool(self._terms)

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
        return (-self) + other

    def __neg__(self: P) -> P:
        return self._trusted({key: -c for key, c in self._terms.items()})

    def __mul__(self: P, other: P | Rat) -> P:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[Key, Rat] = {}
        for (ax, asdeg), ac in a.items():
            for (bx, bs), bc in b.items():
                key = (ax + bx, asdeg + bs)
                acc[key] = acc.get(key, 0) + ac * bc
        return self._trusted(acc)

    __rmul__ = __mul__

    def scale(self: P, c: Rat) -> P:
        c = _coeff(c)
        return self._trusted({key: v * c for key, v in self._terms.items()})

    def __pow__(self: P, k: int) -> P:
        _index(k, what="exponent")
        result = self.one()
        for _ in range(k):
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
        long polynomials for display.
        """
        if not self._terms:
            return "0"
        keys = sorted(self._terms, reverse=True)
        truncated = 0
        if max_terms is not None and len(keys) > max_terms:
            truncated = len(keys) - max_terms
            keys = keys[:max_terms]
        out: list[str] = []
        for dx, ds in keys:
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
        if truncated:
            out.append(f"+ ... ({truncated} more terms)")
        return " ".join(out)

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

    def __init__(self, terms: Mapping[Key, Rat] | None = None) -> None:
        self._terms = _canonical(terms) if terms else {}

    # The shared operators, bound in this class's own namespace so that
    # per-class instrumentation (perfbench/tracer.py) finds each of them here.
    __add__ = __radd__ = _SparsePoly.__add__
    __sub__ = _SparsePoly.__sub__
    __rsub__ = _SparsePoly.__rsub__
    __neg__ = _SparsePoly.__neg__
    __mul__ = __rmul__ = _SparsePoly.__mul__
    render = _SparsePoly.render

    # -- constructors ------------------------------------------------------

    @classmethod
    def s(cls) -> BiPoly:
        return cls._trusted({(0, 1): 1})

    @classmethod
    def monomial(cls, c: Rat, deg_x: int, deg_s: int) -> BiPoly:
        return cls({(deg_x, deg_s): c})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Key, Rat]]:
        """Yield ((deg_x, deg_s), coefficient) in canonical order."""
        for key in sorted(self._terms, reverse=True):
            yield key, self._terms[key]

    def coefficient(self, deg_x: int, deg_s: int) -> Rat:
        return self._terms.get((deg_x, deg_s), 0)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, x0: Rat, s0: Rat) -> Fraction:
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
        total = sum(c * px[dx] * ps[ds] for (dx, ds), c in self._terms.items())
        return Fraction(total, den_x * den_s)

    def substitute_s(self, s0: Rat) -> UniPoly:
        """Specialize s to a rational, leaving a polynomial in x alone."""
        s0 = _coeff(s0)
        acc: dict[Key, Rat] = {}
        for (dx, ds), c in self._terms.items():
            key = (dx, 0)
            acc[key] = acc.get(key, 0) + c * s0**ds
        return UniPoly._trusted(acc)

    def even_substitute(self, q: BiPoly) -> BiPoly:
        """Replace each factor x^(2k) by q^k; degrees in s pass through.

        Every term must have even degree in x, otherwise OddDegreeError is
        raised: the substitution stands in for x -> sqrt(q), which only
        lands back in the ring when the polynomial is even in x.
        """
        if not isinstance(q, BiPoly):
            raise TypeError("substitution target must be a BiPoly")
        halved = self.halve_degrees()
        if not halved._terms:
            return BiPoly.zero()
        # q^k by repeated multiplication, built once per power needed.
        powers = [BiPoly.one()]
        for _ in range(max(k for k, _ in halved._terms)):
            powers.append(powers[-1] * q)
        acc: dict[Key, Rat] = {}
        for (k, ds), c in halved._terms.items():
            for (qx, qs), qc in powers[k]._terms.items():
                key = (qx, qs + ds)
                acc[key] = acc.get(key, 0) + c * qc
        return BiPoly._trusted(acc)

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

    # The shared operators, bound in this class's own namespace so that
    # per-class instrumentation (perfbench/tracer.py) finds each of them here.
    __add__ = __radd__ = _SparsePoly.__add__
    __sub__ = _SparsePoly.__sub__
    __rsub__ = _SparsePoly.__rsub__
    __neg__ = _SparsePoly.__neg__
    __mul__ = __rmul__ = _SparsePoly.__mul__
    render = _SparsePoly.render

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Rat]]:
        """Yield (degree, coefficient) in descending degree order."""
        for key in sorted(self._terms, reverse=True):
            yield key[0], self._terms[key]

    def coefficient(self, degree: int) -> Rat:
        return self._terms.get((degree, 0), 0)

    def degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(self._terms)[0]

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, x0: Rat) -> Fraction:
        """Exact value at the rational x0, over one common denominator."""
        x0 = _coeff(x0)
        if not self._terms:
            return Fraction(0)
        px, den = _scaled_powers(x0, {k for k, _ in self._terms})
        return Fraction(sum(c * px[k] for (k, _), c in self._terms.items()), den)

    def eval_float(self, x: float) -> float:
        """Double-precision value by the compensated Horner scheme.

        These polynomials have huge alternating coefficients but small values
        on the interval of interest, so naive Horner loses most digits to
        cancellation.  Compensated Horner tracks the rounding error of every
        step with error-free transformations (all in doubles) and folds it
        back in at the end, which behaves like evaluating in twice the
        working precision.
        """
        if not self._terms:
            return 0.0
        acc = 0.0
        compensation = 0.0
        for k in range(self.degree(), -1, -1):
            p, err_prod = _two_prod(acc, x)
            acc, err_sum = _two_sum(p, float(self._terms.get((k, 0), 0)))
            compensation = compensation * x + (err_prod + err_sum)
        return acc + compensation

    def compose(self, r: UniPoly) -> UniPoly:
        """Exact polynomial composition p(r(x)), by Horner's scheme."""
        if not isinstance(r, UniPoly):
            raise TypeError("composition target must be a UniPoly")
        if not self._terms:
            return UniPoly.zero()
        degrees = sorted((k for k, _ in self._terms), reverse=True)
        power = functools.cache(r.__pow__)  # each distinct gap r^g is built once
        acc = UniPoly.constant(self._terms[degrees[0], 0])
        for prev, cur in zip(degrees, degrees[1:]):
            acc = acc * power(prev - cur) + self._terms[cur, 0]
        return acc * power(degrees[-1])
