"""Formal power-series expansion of the rational generating functions.

Each family's generating function is a ratio N(z)/D(z) of polynomials in z
whose coefficients are themselves polynomials in (x, s).  Because D has
constant term 1, the series coefficients satisfy the division-free linear
recurrence a(n) = N(n) - sum_{j>=1} D(j) * a(n-j), so the expansion is exact
and serves as an oracle that is independent of the direct constructors.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import BiPoly, _add_product, _index

__all__ = ["MalformedGF", "RationalGF", "GF_KINDS", "gf_of", "expand"]

GF_KINDS = ("fibonacci", "lucas", "z_shifted")


class MalformedGF(ValueError):
    """The denominator's constant term is not 1, so the series recurrence
    would need division."""


class RationalGF(NamedTuple):
    """A rational function N(z)/D(z) with BiPoly coefficients.

    ``numerator[j]`` and ``denominator[j]`` are the coefficients of z^j.
    The expansion recurrence requires denominator[0] == 1.
    """

    numerator: tuple[BiPoly, ...]
    denominator: tuple[BiPoly, ...]


def gf_of(kind: str) -> RationalGF:
    """The generating function of a family.

    fibonacci:  z / (1 - x z - s z^2)
    lucas:      (2 - x z) / (1 - x z - s z^2)
    z_shifted:  x (1 + s z) / (1 - (x+3s) z + s (x+3s) z^2 - s^3 z^3),
                whose z^n coefficient is Z(n+1).
    """
    x, s, one = BiPoly.x(), BiPoly.s(), BiPoly.one()
    if kind == "fibonacci":
        return RationalGF(
            numerator=(BiPoly.zero(), one),
            denominator=(one, -x, -s),
        )
    if kind == "lucas":
        return RationalGF(
            numerator=(BiPoly.constant(2), -x),
            denominator=(one, -x, -s),
        )
    if kind == "z_shifted":
        lead = x + s.scale(3)
        return RationalGF(
            numerator=(x, s * x),
            denominator=(one, -lead, s * lead, -BiPoly.monomial(1, 0, 3)),
        )
    raise ValueError(f"unknown generating function {kind!r}; expected one of {GF_KINDS}")


def expand(gf: RationalGF, N: int) -> list[BiPoly]:
    """Coefficients a(0)..a(N) of the formal series N(z)/D(z), exactly.

    Each a(n) = N(n) - sum_j D(j) a(n-j) is added into one term map, a copy of
    N(n), by the product loop that BiPoly multiplication runs, so the series
    stays in dict arithmetic and shares no step with the packed ladders.
    """
    _index(N, what="N")
    if not gf.denominator or gf.denominator[0] != BiPoly.one():
        raise MalformedGF("denominator must have constant term 1")
    if not all(isinstance(p, BiPoly) for p in (*gf.numerator, *gf.denominator)):
        raise TypeError("generating function coefficients must be BiPoly")
    out: list[BiPoly] = []
    for n in range(N + 1):
        acc = dict(gf.numerator[n]._terms) if n < len(gf.numerator) else {}
        for j in range(1, min(n, len(gf.denominator) - 1) + 1):
            _add_product(acc, gf.denominator[j], out[n - j], -1)
        out.append(BiPoly._trusted(acc))
    return out
