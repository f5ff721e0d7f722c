"""Exact arithmetic in Q(sqrt(d)) and the Binet-style closed forms built on it.

An element is a + b*sqrt(d) with rational a, b and a per-element rational
discriminant d.  Nothing is ever approximated: sqrt(d)*sqrt(d) reduces to d
symbolically, so the closed forms for the Fibonacci, Lucas, and spread
families can be compared against polynomial evaluation with exact equality.

d is deliberately not normalized (no square-free reduction): an element with
d = 9 simply behaves like a rational in disguise, and negative d works the
same way since the arithmetic never orders elements.

Powers run on integers, in one square-and-multiply kernel on Z[sqrt(D)]
(``_surd_pow``), and divide once.  ``**`` writes an element, with d = N/M, as
(A + B sqrt(D)) / m for integers A, B, m and D = N M; its result keeps d and
equals what repeated ``*`` gives.  Each closed form is one power of X + sqrt(D)
at the integral point (X, S) = (lam x0, lam^2 s0), D = X^2 + 4S, whose
integer parts (``_binet``) the public forms divide once; the power of its
conjugate, taken on its own, checks that the sqrt parts cancel.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import CheckResult, failure
from .poly import BiPoly, Rat, _coeff, _index
from .sequences import _integral_point

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
        """``_surd_pow`` of (A, B) = (a m, b m / M) with m = den(a) den(b) M,
        read back as P/m^n + (Q M/m^n) sqrt(d)."""
        _index(n, what="exponent")
        a, b, d = self._a, self._b, self._d
        big_m = d.denominator
        base = a.numerator * b.denominator * big_m, b.numerator * a.denominator
        p, q = _surd_pow(*base, d.numerator * big_m, n)
        divisor = (a.denominator * b.denominator * big_m) ** n
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


def _surd_pow(p: int, q: int, big_d: int, n: int) -> tuple[int, int]:
    """(P, Q) with (p + q sqrt(D))^n = P + Q sqrt(D): square and multiply in Z[sqrt(D)]."""
    big_p, big_q = 1, 0
    while n:
        if n & 1:
            big_p, big_q = big_p * p + big_q * q * big_d, big_p * q + big_q * p
        n >>= 1
        if n:
            p, q = p * p + q * q * big_d, 2 * p * q
    return big_p, big_q


def _discriminant(x0: Rat, s0: Rat) -> tuple[int, int, int]:
    """(X, lam, D = X^2 + 4S) at the integral point (X, S) of (x0, s0); D != 0."""
    x, s, lam = _integral_point(x0, s0)
    if x * x + 4 * s == 0:
        raise DegenerateDiscriminant(
            f"the discriminant ({Fraction(x0)})^2 + 4*({Fraction(s0)}) vanishes; the roots coincide"
        )
    return x, lam, x * x + 4 * s


def characteristic_roots(x0: Rat, s0: Rat) -> tuple[QuadExt, QuadExt]:
    """The two roots (x0 +/- sqrt(x0^2 + 4*s0)) / 2 of z^2 - x0*z - s0."""
    x, lam, big_d = _discriminant(x0, s0)
    root = QuadExt(Fraction(x, 2 * lam), Fraction(1, 2), Fraction(big_d, lam * lam))
    return root, root.conj()


def _binet(n: int, x: int, big_d: int) -> tuple[int, int]:
    """(P, Q) with (X + sqrt(D))^n = P + Q sqrt(D), for the X and D = X^2 + 4S
    of an integral point (X, S).  (X - sqrt(D))^n is a power of its own; unless
    its parts are (P, -Q), the sqrt parts failed to cancel (ArithmeticError).

    The roots at (x0, s0) are g, gbar = (X +/- sqrt(D)) / (2 lam), and
    g - gbar = sqrt(D) / lam, so F(n) = (g^n - gbar^n) / (g - gbar) is
    2 Q lam / (2 lam)^n and L(n) = g^n + gbar^n is 2 P / (2 lam)^n."""
    p, q = _surd_pow(x, 1, big_d, n)
    if _surd_pow(x, -1, big_d, n) != (p, -q):
        raise ArithmeticError(f"sqrt component failed to cancel at n={n}")
    return p, q


def binet_fibonacci(n: int, x0: Rat, s0: Rat) -> Fraction:
    """(g^n - gbar^n) / (g - gbar) for the characteristic roots g, gbar: one
    integer power at the integral point (``_binet``).  Exact."""
    n = _index(n)
    x, lam, big_d = _discriminant(x0, s0)
    return Fraction(2 * _binet(n, x, big_d)[1] * lam, (2 * lam) ** n)


def binet_lucas(n: int, x0: Rat, s0: Rat) -> Fraction:
    """g^n + gbar^n for the characteristic roots g, gbar, as ``binet_fibonacci``."""
    n = _index(n)
    x, lam, big_d = _discriminant(x0, s0)
    return Fraction(2 * _binet(n, x, big_d)[0], (2 * lam) ** n)


def binet_z(n: int, q: Rat, s0: Rat) -> Fraction:
    """alpha^(2n) + alphabar^(2n) - 2*s0^n, evaluated at x = q^2.  Exact.

    alpha, alphabar = (q +/- sqrt(q^2 + 4*s0)) / 2 are the characteristic
    roots at (q, s0): restricting x to a rational square, with sqrt(x) read
    as q, keeps everything inside a single quadratic extension, where general
    x would need a second, nested square root.  The sum is binet_lucas(2n).
    """
    n = _index(n)
    x, lam, big_d = _discriminant(q, s0)
    return Fraction(2 * _binet(2 * n, x, big_d)[0], (2 * lam) ** (2 * n)) - 2 * Fraction(s0) ** n


# The integer point of the cubic check: z^a s^b x^c |-> 2^(8 (16a + 4b + c)).
_CUBIC_POINT = (1 << 128, 1 << 32, 1 << 8)


def _cubic_sides(
    z: int | BiPoly, s: int | BiPoly, x: int | BiPoly
) -> tuple[int | BiPoly, int | BiPoly]:
    """Both sides of (z - s)(z^2 - (x+2s)z + s^2) = z^3 - (x+3s)z^2 + s(x+3s)z - s^3
    at (z, s, x): ints at ``_CUBIC_POINT`` to decide the identity, BiPolys at
    (z, s, s^4) to write its witness.

    Every exponent of z, s and x in either side is at most 3, so at the
    integer point each monomial z^a s^b x^c lands in its own 8-bit slot,
    number 16a + 4b + c.  Each side's absolute coefficients sum to at most
    10, so every coefficient of lhs - rhs is at most 20 < 2^7 in absolute
    value and is read back as a signed slot: the two ints are equal exactly
    when the sides are equal identically in z, s and x.  For the same reason
    (no s-degree reaches 4) z^a s^b x^c |-> z^a s^(b+4c) is one-to-one on
    their terms, so the BiPoly images at x = s^4 are equal exactly then too.
    """
    lhs = (z - s) * (z * z - (s * 2 + x) * z + s * s)
    lead = s * 3 + x
    rhs = z**3 - lead * (z * z) + s * lead * z - s**3
    return lhs, rhs


def check_root_relations(q: Rat, s0: Rat) -> CheckResult:
    """Verify the root identities tying the two Binet parameterizations together.

    At x = q^2 (so both square roots are rational or share one sqrt(d)):
    the roots of z^2 - sqrt(x+4s)*z + s coincide with (alpha, -alphabar),
    their product is s, and alpha^2 solves z^2 - (x+2s)z + s^2 = 0.  Last,
    the cubic with roots alpha^2, alphabar^2 and s factors as
    (z - s)(z^2 - (x+2s)z + s^2); that identity does not depend on the point,
    and one exact comparison (``_cubic_sides``) proves it in z, s and x.

    Every step is decided on integers from one ``_discriminant`` call, steps
    0-2 against the inputs q and s0 by cross-multiplying numerators and
    denominators.  Take (X, lam, D) from ``_discriminant`` and S = (D -
    X^2)/4.  The roots that ``characteristic_roots`` builds are (X +/-
    sqrt(D))/(2 lam), in Q(sqrt(d)) with d = D/lam^2, so:

    0-1. the roots equal (q +/- sqrt(d))/2: X = lam q; their sqrt parts are
         +/-1/2 over the one d by construction, so steps 0 and 1 are this
         one comparison, and a failure is step 0;
    2.   (beta beta_bar = s0) d - q^2 = 4 s0, that is D = lam^2 (q^2 + 4 s0);
    3.   once steps 0-2 hold, S = lam^2 s0: the roots scaled by 2 lam are
         X +/- sqrt(D), and A = 2 lam alpha = X + sqrt(D) is an integer pair
         in Z[sqrt(D)].  The step is alpha^4 - (x + 2s) alpha^2 + s^2 = 0
         times (2 lam)^4, that is A^4 - 4 (X^2 + 2S) A^2 + 16 S^2 = 0, powers
         by ``_surd_pow``;
    4.   the cubic's sides at the integer point ``_CUBIC_POINT``.

    A passing call builds no ``QuadExt`` and no ``Fraction``.  Only a failing
    step builds ``characteristic_roots``, takes the steps again in
    ``QuadExt`` arithmetic and builds ``BiPoly`` sides, to write its witness
    (``_root_relations_witness``).
    """
    x, lam, big_d = _discriminant(q, s0)
    qn, qd, sn, sd = q.numerator, q.denominator, s0.numerator, s0.denominator
    big_s = (big_d - x * x) // 4
    p2, q2 = _surd_pow(x, 1, big_d, 2)
    p4, q4 = _surd_pow(x, 1, big_d, 4)
    lead = 4 * (x * x + 2 * big_s)
    lhs, rhs = _cubic_sides(*_CUBIC_POINT)
    holds = {
        0: x * qd == qn * lam,
        2: big_d * qd * qd * sd == lam * lam * (qn * qn * sd + 4 * sn * qd * qd),
        3: p4 - lead * p2 + 16 * big_s * big_s == 0 and q4 == lead * q2,
        4: lhs == rhs,
    }
    rng = f"q={_coeff(q)}, s={_coeff(s0)}"
    if all(holds.values()):
        return CheckResult("root_relations", rng)
    return _root_relations_witness(q, s0, next(i for i, ok in holds.items() if not ok))


def _root_relations_witness(q: Rat, s0: Rat, index: int) -> CheckResult:
    """The failure of ``check_root_relations`` at step ``index``, its witness
    written from the steps in ``QuadExt`` and ``BiPoly`` arithmetic.  Unless
    these find step ``index`` the first to fail, the two decisions disagree
    (ArithmeticError)."""
    alpha, abar = characteristic_roots(q, s0)
    d = alpha.d
    q, s0 = Fraction(q), Fraction(s0)
    x0 = q * q
    rng = f"q={q}, s={s0}"

    sqrt_d = QuadExt(0, 1, d)
    beta = (sqrt_d + q) * Fraction(1, 2)
    beta_bar = (sqrt_d - q) * Fraction(1, 2)
    s = BiPoly.s()

    steps: list[tuple[object, object]] = [
        (alpha, beta),
        (abar, -beta_bar),
        (beta * beta_bar, QuadExt.from_rational(s0, d)),
        (
            alpha**4 - (x0 + 2 * s0) * alpha**2 + QuadExt.from_rational(s0 * s0, d),
            QuadExt.from_rational(0, d),
        ),
        _cubic_sides(BiPoly.x(), s, s**4),
    ]
    first = next((i for i, (lhs, rhs) in enumerate(steps) if lhs != rhs), None)
    if first != index:
        raise ArithmeticError(
            f"root_relations at {rng}: decided on integers, step {index} fails first;"
            f" in QuadExt and BiPoly arithmetic, step {first}"
        )
    lhs, rhs = steps[index]
    return failure("root_relations", rng, index, str(lhs), str(rhs))
