"""Point values of every family, by Lucas-sequence doubling.

The point evaluators (the ``*_at`` functions) take a route of their own
that never builds a polynomial: one doubling kernel returns (F(n), L(n)) at
an integer point.  Seeded only from F(0) = 0, F(1) = 1, it doubles the pair
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

``sequences`` imports the kernel for its width bounds (the sum of a member's
absolute coefficients is its value at an integer point) and re-exports the
evaluators, so its ``__all__`` and the package's hold them.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Rat, _coeff, _index

__all__ = [
    "fibonacci_at",
    "lucas_at",
    "z_at",
    "univariate_l_at",
    "spread_z_univariate_at",
    "wildberger_spread_at",
    "chebyshev_t_at",
    "point_bits_bound",
]


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
