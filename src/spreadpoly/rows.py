"""Closed rows: the coefficients of one member, each by exact ratio.

A row starts at its first coefficient, and each entry after it is the one
before times a small num/den, the division checked (``_ratio_row``): one
small product and one exact division per entry.  The rows are hypergeometric
in (n, k), closed forms that share no code with ``coefficient_c`` or with
any ladder:

* c(n, k), row n of the triangle and the coefficients of Z(n) (``_c_row``);
* F(n) and L(n) (``_fib_lucas_row``), the ``closed`` routes;
* l(n) = L(n)(x, -1), T(n) = l(n)(2x) / 2 and S(n), Wildberger's spread
  polynomial (``_l_row``, ``_t_row``, ``_s_row``).

``gen`` and ``triangle`` run these rows.  For l, T and S the public builders
run the row, and each family's packed ladder stays a route of its own
(``sequences._ROUTES``): the sweeps stream it, and the ``closed_rows`` suite
compares it with the row at every n.
"""

from __future__ import annotations

from typing import Iterable, Iterator


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


def _fib_lucas_row(n: int, top: int, first: int = 1, ratio: int = 1) -> Iterator[int]:
    """The coefficients r(k) of s^k x^(top-2k), k = 0, 1, ..., of F(n) at
    top = n - 1, C(n-1-k, k), and of L(n) at top = n >= 1, n/(n-k) C(n-k, k):
    r(0) = 1 and r(k+1) = r(k) j (j-1) / ((k+1)(n-1-k)) at j = top - 2k.
    ``first`` scales the row and ``ratio`` divides each step, for the rows of
    l and T."""
    steps = zip(range(top, 1, -2), range(1, n))
    return _ratio_row(first, ((j * (j - 1), ratio * i * (n - i)) for j, i in steps))


def _l_row(n: int) -> Iterator[int]:
    """The coefficients of x^n, x^(n-2), ... in l(n) = L(n)(x, -1): (-1)^k
    n/(n-k) C(n-k, k) at x^(n-2k), L(n)'s row with every step negated, and
    l(0) = 2."""
    return _fib_lucas_row(n, n, 1 if n else 2, -1)


def _t_row(n: int) -> Iterator[int]:
    """The coefficients of x^n, x^(n-2), ... in T(n) = l(n)(2x) / 2: l(n)'s
    row times 2^(n-2k-1), so it starts at 2^(n-1) and steps by -j (j-1) /
    (4 (k+1)(n-k-1)) at j = n - 2k, and T(0) = 1."""
    return _fib_lucas_row(n, n, 1 << max(n - 1, 0), -4)


def _s_row(n: int) -> Iterator[int]:
    """The coefficients of x, x^2, ..., x^n in S(n), (-4)^(k-1) c(n, k) =
    n/k C(n+k-1, 2k-1) (-4)^(k-1) at x^k (Goh and Wildberger, arXiv:0911.1025):
    n^2, then times -2 (n+k)(n-k) / ((k+1)(2k+1)).  At n = 0 the row is the
    one entry 0, so S(0) = 0."""
    return _ratio_row(n * n, ((-2 * (n + k) * (n - k), (k + 1) * (2 * k + 1)) for k in range(1, n)))
