"""Exact arithmetic in Q(sqrt(d)) and the Binet-style closed forms built on it.

An element is a + b*sqrt(d) with rational a, b and a per-element rational
discriminant d.  Nothing is ever approximated: sqrt(d)*sqrt(d) reduces to d
symbolically, so the closed forms for the Fibonacci, Lucas, and spread
families can be compared against polynomial evaluation with exact equality.

d is deliberately not normalized (no square-free reduction): an element with
d = 9 simply behaves like a rational in disguise, and negative d works the
same way since the arithmetic never orders elements.

Powers run on integers.  With d = N/M, an element is (A + B sqrt(D)) / m for
integers A, B, m and D = N M (sqrt(D) = M sqrt(d)); ``**`` squares and
multiplies (A, B) in Z[sqrt(D)] and divides by m^n once, instead of reducing
a fraction after every product.  The result keeps the same, unnormalized d
and equals what repeated ``*`` gives.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import CheckResult, failure
from .poly import BiPoly, Rat, _coeff, _index

__all__ = [
    "DiscriminantMismatch",
    "DegenerateDiscriminant",
    "QuadExt",
    "characteristic_roots",
    "binet_fibonacci",
    "binet_lucas",
    "binet_z",
    "check_root_relations",
]


class DiscriminantMismatch(ValueError):
    """Arithmetic was attempted between elements of different Q(sqrt(d))."""


class DegenerateDiscriminant(ValueError):
    """The characteristic roots coincide (x^2 + 4s = 0), so the closed forms
    that divide by their difference do not apply."""


class QuadExt:
    """An element a + b*sqrt(d) of the quadratic extension Q(sqrt(d)).

    Immutable.  Mixed arithmetic with ints and Fractions promotes the scalar
    into the same field; mixing two different discriminants raises
    DiscriminantMismatch.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: Rat, b: Rat, d: Rat) -> None:
        self._a = _coeff(a)
        self._b = _coeff(b)
        self._d = _coeff(d)

    @classmethod
    def from_rational(cls, c: Rat, d: Rat) -> QuadExt:
        return cls(c, 0, d)

    @property
    def a(self) -> Rat:
        return self._a

    @property
    def b(self) -> Rat:
        return self._b

    @property
    def d(self) -> Rat:
        return self._d

    def is_rational(self) -> bool:
        return self._b == 0

    def rational_part(self) -> Fraction:
        return Fraction(self._a)

    def conj(self) -> QuadExt:
        return QuadExt(self._a, -self._b, self._d)

    def norm(self) -> Rat:
        """a^2 - b^2*d, always rational."""
        return self._a * self._a - self._b * self._b * self._d

    def _coerce(self, other: object) -> QuadExt | None:
        if isinstance(other, QuadExt):
            if other._d != self._d:
                raise DiscriminantMismatch(
                    f"cannot mix sqrt({self._d}) with sqrt({other._d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.from_rational(other, self._d)
        return None

    def __add__(self, other: QuadExt | Rat) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a + o._a, self._b + o._b, self._d)

    __radd__ = __add__

    def __sub__(self, other: QuadExt | Rat) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a - o._a, self._b - o._b, self._d)

    def __rsub__(self, other: Rat) -> QuadExt:
        return (-self) + other

    def __neg__(self) -> QuadExt:
        return QuadExt(-self._a, -self._b, self._d)

    def __mul__(self, other: QuadExt | Rat) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self._a * o._a + self._b * o._b * self._d,
            self._a * o._b + self._b * o._a,
            self._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadExt | Rat) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError(
                "division by an element of norm zero in Q(sqrt(d))"
            )
        inv = Fraction(1, 1) / Fraction(n)
        return (self * o.conj()) * QuadExt.from_rational(inv, self._d)

    def __rtruediv__(self, other: Rat) -> QuadExt:
        return QuadExt.from_rational(other, self._d) / self

    def __pow__(self, n: int) -> QuadExt:
        """The integer kernel of the module docstring, with m = den(a) den(b) M,
        A = a m and B = b m / M: (A + B sqrt(D))^n = P + Q sqrt(D), and the
        result is P/m^n + (Q M/m^n) sqrt(d)."""
        _index(n, what="exponent")
        a, b, d = self._a, self._b, self._d
        big_m = d.denominator
        m = a.denominator * b.denominator * big_m
        big_d = d.numerator * big_m
        divisor = m**n
        p, q = 1, 0
        base_p = a.numerator * b.denominator * big_m
        base_q = b.numerator * a.denominator
        while n:
            if n & 1:
                p, q = p * base_p + q * base_q * big_d, p * base_q + q * base_p
            n >>= 1
            if n:
                base_p, base_q = (
                    base_p * base_p + base_q * base_q * big_d,
                    2 * base_p * base_q,
                )
        return QuadExt(Fraction(p, divisor), Fraction(q * big_m, divisor), d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        sign = "+" if self._b >= 0 else "-"
        mag = self._b if self._b >= 0 else -self._b
        factor = "" if mag == 1 else f"{mag}*"
        return f"{self._a} {sign} {factor}sqrt({self._d})"

    def __repr__(self) -> str:
        return f"QuadExt({self._a!r}, {self._b!r}, d={self._d!r})"


def characteristic_roots(x0: Rat, s0: Rat) -> tuple[QuadExt, QuadExt]:
    """The two roots (x0 +/- sqrt(x0^2 + 4*s0)) / 2 of z^2 - x0*z - s0."""
    x0 = Fraction(x0)
    s0 = Fraction(s0)
    d = x0 * x0 + 4 * s0
    if d == 0:
        raise DegenerateDiscriminant(
            f"the discriminant ({x0})^2 + 4*({s0}) vanishes; the roots coincide"
        )
    half = Fraction(1, 2)
    root = QuadExt(x0 * half, half, d)
    return root, root.conj()


def _rational(n: int, value: QuadExt) -> Fraction:
    """The rational value of a closed form whose sqrt parts must cancel."""
    if not value.is_rational():
        raise ArithmeticError(f"sqrt component failed to cancel at n={n}")
    return value.rational_part()


def binet_fibonacci(n: int, x0: Rat, s0: Rat) -> Fraction:
    """(g^n - gbar^n) / (g - gbar) for the characteristic roots g, gbar.

    Exact; the sqrt parts always cancel, which is checked (ArithmeticError
    otherwise).
    """
    _index(n)
    g, gbar = characteristic_roots(x0, s0)
    return _rational(n, (g**n - gbar**n) / (g - gbar))


def binet_lucas(n: int, x0: Rat, s0: Rat) -> Fraction:
    """g^n + gbar^n for the characteristic roots g, gbar.  Exact."""
    _index(n)
    g, gbar = characteristic_roots(x0, s0)
    return _rational(n, g**n + gbar**n)


def binet_z(n: int, q: Rat, s0: Rat) -> Fraction:
    """alpha^(2n) + alphabar^(2n) - 2*s0^n, evaluated at x = q^2.  Exact.

    alpha, alphabar = (q +/- sqrt(q^2 + 4*s0)) / 2 are the characteristic
    roots at (q, s0): restricting x to a rational square, with sqrt(x) read
    as q, keeps everything inside a single quadratic extension, where general
    x would need a second, nested square root.
    """
    _index(n)
    alpha, abar = characteristic_roots(q, s0)
    return _rational(n, alpha ** (2 * n) + abar ** (2 * n) - 2 * Fraction(s0) ** n)


def _cubic_sides(x0: Rat) -> tuple[BiPoly, BiPoly]:
    """Both sides of (z - s)(z^2 - (x+2s)z + s^2) = z^3 - (x+3s)z^2 + s(x+3s)z - s^3,
    with z as the first BiPoly variable, s as the second, and x specialized to x0."""
    z = BiPoly.x()
    s = BiPoly.s()
    quad = z * z - (s * 2 + x0) * z + s * s
    lhs = (z - s) * quad
    lead = s * 3 + x0
    rhs = z**3 - lead * (z * z) + s * lead * z - s**3
    return lhs, rhs


def check_root_relations(q: Rat, s0: Rat) -> CheckResult:
    """Verify the root identities tying the two Binet parameterizations together.

    At x = q^2 (so both square roots are rational or share one sqrt(d)):
    the roots of z^2 - sqrt(x+4s)*z + s coincide with (alpha, -alphabar),
    their product is s, alpha^2 solves z^2 - (x+2s)z + s^2 = 0, and the
    factorization of the cubic with roots alpha^2, alphabar^2, s holds as a
    polynomial identity.

    The cubic factorization is linear in x, so verifying it with z and s
    symbolic at two distinct x values proves it identically in x; the given
    x0 = q^2 is checked as well for the concrete report.
    """
    alpha, abar = characteristic_roots(q, s0)
    d = alpha.d
    q = Fraction(q)
    s0 = Fraction(s0)
    x0 = q * q
    name = "root_relations"
    rng = f"q={q}, s={s0}"

    sqrt_d = QuadExt(0, 1, d)
    beta = (sqrt_d + q) * Fraction(1, 2)
    beta_bar = (sqrt_d - q) * Fraction(1, 2)

    steps: list[tuple[object, object]] = [
        (alpha, beta),
        (abar, -beta_bar),
        (beta * beta_bar, QuadExt.from_rational(s0, d)),
        (
            alpha**4 - (x0 + 2 * s0) * alpha**2 + QuadExt.from_rational(s0 * s0, d),
            QuadExt.from_rational(0, d),
        ),
    ]
    for x_value in (0, 1, x0):
        steps.append(_cubic_sides(x_value))

    for index, (lhs, rhs) in enumerate(steps):
        if lhs != rhs:
            return failure(name, rng, index, str(lhs), str(rhs))
    return CheckResult(name, rng)
