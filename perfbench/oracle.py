"""Expected CLI output, computed without importing spreadpoly.

Every family has a closed form for its coefficients, so the benchmark can
check each ``gen``, ``eval``, ``triangle`` and ``series`` op against an
answer derived independently of the program under test.  ``verify`` ops are
checked by their exit code and their ``all PASS`` summary line.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from workloads import BIVARIATE


def c(n: int, k: int) -> int:
    """Coefficient of s^(n-k) x^k in Z(n) (OEIS A156308)."""
    return comb(n + k, 2 * k) + comb(n + k - 1, 2 * k)


def _lucas_coeff(n: int, k: int) -> int:
    """Coefficient of s^k x^(n-2k) in L(n): n/(n-k) C(n-k, k)."""
    return comb(n - k, k) + comb(n - k - 1, k - 1) if k else 1


# Index 0 of each family, where the closed forms below have an empty sum
# or a 0/0 weight.
_AT_ZERO: dict[str, dict] = {
    "F": {}, "L": {(0, 0): 2}, "Z": {}, "l": {0: 2}, "Zx": {}, "S": {}, "T": {0: 1},
}


def coefficients(family: str, n: int) -> dict:
    """{(deg_x, deg_s): c} for F, L, Z; {deg_x: c} for the univariate families."""
    if n == 0:
        return dict(_AT_ZERO[family])
    if family == "F":
        return {(n - 1 - 2 * k, k): comb(n - 1 - k, k) for k in range((n + 1) // 2)}
    if family == "L":
        return {(n - 2 * k, k): _lucas_coeff(n, k) for k in range(n // 2 + 1)}
    if family == "Z":
        return {(k, n - k): c(n, k) for k in range(1, n + 1)}
    if family == "l":
        return {n - 2 * k: (-1) ** k * _lucas_coeff(n, k) for k in range(n // 2 + 1)}
    if family == "Zx":
        return {k: (-1) ** (k - 1) * c(n, k) for k in range(1, n + 1)}
    if family == "S":
        return {k: (-1) ** (k - 1) * 4 ** (k - 1) * c(n, k) for k in range(1, n + 1)}
    if family == "T":
        # T(n)(x) = l(n)(2x) / 2; the constant term of l(n) is +-2 for even n.
        return {
            n - 2 * k: (-1) ** k * _lucas_coeff(n, k) * 2 ** (n - 2 * k) // 2
            for k in range(n // 2 + 1)
        }
    raise ValueError(f"no closed form for family {family!r}")


def _ordered(coeffs: dict) -> list[tuple[int, int, int]]:
    """(deg_x, deg_s, c) in the CLI's canonical order, zero terms dropped."""
    items = [(k if isinstance(k, tuple) else (k, 0), v) for k, v in coeffs.items() if v]
    return [(dx, ds, v) for (dx, ds), v in sorted(items, key=lambda t: (-t[0][0], -t[0][1]))]


def render(coeffs: dict) -> str:
    """The CLI's text form: descending x then s degree, 1s elided, signs explicit."""
    out = []
    for dx, ds, v in _ordered(coeffs):
        parts = []
        if abs(v) != 1 or not (dx or ds):
            parts.append(str(abs(v)))
        if ds:
            parts.append("s" if ds == 1 else f"s^{ds}")
        if dx:
            parts.append("x" if dx == 1 else f"x^{dx}")
        body = "*".join(parts)
        if not out:
            out.append(f"-{body}" if v < 0 else body)
        else:
            out.append(f"- {body}" if v < 0 else f"+ {body}")
    return " ".join(out) or "0"


def _rational(text: str) -> Fraction:
    head, _, tail = text.partition("/")
    return Fraction(int(head), int(tail or 1))


def evaluate(coeffs: dict, x0: Fraction, s0: Fraction) -> Fraction:
    total = Fraction(0)
    for (dx, ds, v) in _ordered(coeffs):
        total += v * x0**dx * s0**ds
    return total


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def expected_stdout(argv: list[str]) -> str:
    """The exact stdout the CLI must print for a gen/eval/triangle/series op."""
    command = argv[0]
    if command == "gen":
        family, n = argv[1], int(argv[2])
        coeffs = coefficients(family, n)
        if _flag(argv, "--format") == "json":
            terms = [{"x": dx, "s": ds, "c": str(v)} for dx, ds, v in _ordered(coeffs)]
            body = {"family": family, "n": n, "terms": terms}
            return json.dumps(body, separators=(",", ":")) + "\n"
        return render(coeffs) + "\n"
    if command == "eval":
        family, n = argv[1], int(argv[2])
        x0 = _rational(argv[3])
        s0 = _rational(argv[4]) if family in BIVARIATE else Fraction(0)
        return f"{evaluate(coefficients(family, n), x0, s0)}\n"
    if command == "triangle" and _flag(argv, "--format") == "csv":
        rows = range(1, int(argv[1]) + 1)
        return "".join(",".join(str(c(n, k)) for k in range(1, n + 1)) + "\n" for n in rows)
    if command == "series" and argv[1] == "z_shifted":
        # Coefficient a(m) of the shifted generating function is Z(m+1).
        return "".join(render(coefficients("Z", m + 1)) + "\n" for m in range(int(argv[2]) + 1))
    raise ValueError(f"no oracle for op {argv!r}")


def check(argv: list[str], code: int, stdout: str) -> str | None:
    """None when the op's exit code and output are right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if argv[0] == "verify":
        lines = stdout.splitlines()
        if not lines or not lines[-1].endswith("all PASS"):
            return "verify did not end with 'all PASS'"
        if any(line.split()[-1] != "PASS" for line in lines[:-1] if not line.startswith(" ")):
            return "a suite line did not end with PASS"
        return None
    if stdout != expected_stdout(argv):
        return "stdout differs from the closed-form oracle"
    return None
