"""Seeded op lists for the three benchmark workloads.

Each workload is a fixed list of ``spreadpoly`` argv lists, generated only
from the workload name and the seed.  The seed moves every size and point
inside a fixed stratum, so two seeds cost about the same while never
running identical inputs; that keeps the run-to-run spread of the timings
small without choosing inputs by hand.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("verify_sweep", "gen_large", "eval_points")

SUITES = (
    "cassini",
    "z_cassini",
    "lucas_binomial",
    "z_binomial",
    "symmetry",
    "coefficients",
    "trig",
    "chebyshev",
    "doubling",
    "cross_method",
    "binet",
    "gf",
)

# Family -> the --method values gen accepts (None: no --method flag).
FAMILY_METHODS = {
    "F": ("recurrence", "closed"),
    "L": ("recurrence", "closed", "from_fib"),
    "Z": ("recurrence", "closed", "via_lucas", "via_fib", "parity"),
    "l": (None,),
    "Zx": ("via_l", "via_l2n", "from_bivariate"),
    "S": (None,),
    "T": (None,),
}
BIVARIATE = ("F", "L", "Z")

# verify_sweep: per suite, one --max-n from each stratum (inclusive bounds).
# Most strata are small so that one pass stays near ten seconds; the last
# one reaches past the CLI default of 50.  Strata are narrow where a step of
# one in N changes the cost most, which keeps the latency percentiles from
# jumping between seeds.
VERIFY_STRATA = (
    (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7),
    (8, 9), (10, 11), (12, 14), (15, 18), (50, 54),
)

# gen_large: one round per centre, n drawn within +-2% of it.
GEN_CENTRES = tuple(round(100 * 3 ** (r / 6)) for r in range(7))  # 100 .. 300
GEN_JITTER = 0.02
GEN_JSON_SHARE = 0.3

# eval_points: log-uniform strata over [1, EVAL_MAX_N], families assigned in
# a fixed rotation, and every (family, n) evaluated at two different points.
# n falls in the middle EVAL_JITTER of its stratum's log-width: the largest
# builds set the run's time and memory, and both grow as n^2.
EVAL_MAX_N = 800
EVAL_PAIRS = 60
EVAL_JITTER = 0.3
EVAL_FAMILIES = ("F", "L", "Z", "l", "Zx", "S", "T")
POINT_BOUND = 9


def ops_for(workload: str, seed: int) -> list[list[str]]:
    """The op list (argv lists) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_sweep":
        return _verify_sweep(rng)
    if workload == "gen_large":
        return _gen_large(rng)
    if workload == "eval_points":
        return _eval_points(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def ops_digest(ops: list[list[str]]) -> str:
    """sha256 of the op list, so two runs can prove they ran identical inputs."""
    return hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest()


def _verify_sweep(rng: random.Random) -> list[list[str]]:
    ops = [
        ["verify", suite, "--max-n", str(rng.randint(lo, hi))]
        for suite in SUITES
        for lo, hi in VERIFY_STRATA
    ]
    rng.shuffle(ops)
    return ops


def _gen_large(rng: random.Random) -> list[list[str]]:
    groups = []
    for centre in GEN_CENTRES:
        for family in FAMILY_METHODS:
            n = rng.randint(round(centre * (1 - GEN_JITTER)), round(centre * (1 + GEN_JITTER)))
            groups.append((family, n))
    # Mark whole (family, n) groups as JSON until about 30% of the ops are,
    # so every method of one group prints in the same format.
    total = sum(len(FAMILY_METHODS[f]) for f, _ in groups)
    json_groups = set()
    json_ops = 0
    for index in rng.sample(range(len(groups)), len(groups)):
        size = len(FAMILY_METHODS[groups[index][0]])
        if json_ops + size > GEN_JSON_SHARE * total:
            continue
        json_groups.add(index)
        json_ops += size
    ops = []
    for index, (family, n) in enumerate(groups):
        fmt = ["--format", "json"] if index in json_groups else []
        for method in FAMILY_METHODS[family]:
            flag = ["--method", method] if method else []
            ops.append(["gen", family, str(n), *flag, *fmt])
    ops.append(["triangle", str(rng.randint(180, 220)), "--format", "csv"])
    ops.append(["series", "z_shifted", str(rng.randint(90, 110))])
    rng.shuffle(ops)
    return ops


def _eval_points(rng: random.Random) -> list[list[str]]:
    pairs = []
    width = math.log(EVAL_MAX_N) / EVAL_PAIRS
    for i in range(EVAL_PAIRS):
        n = round(math.exp((i + 0.5 + EVAL_JITTER * rng.uniform(-0.5, 0.5)) * width))
        pairs.append((EVAL_FAMILIES[i % len(EVAL_FAMILIES)], n))
    # Each pair appears twice; the later occurrence reuses the (family, n)
    # at a new point.
    slots = [i for i in range(EVAL_PAIRS) for _ in range(2)]
    rng.shuffle(slots)
    seen: dict[int, tuple[str, ...]] = {}
    ops = []
    for k, i in enumerate(slots):
        family, n = pairs[i]
        point = _point(rng, family in BIVARIATE, kind=k % 4)
        while point == seen.get(i):
            point = _point(rng, family in BIVARIATE, kind=0)
        seen[i] = point
        ops.append(["eval", family, str(n), *point])
    return ops


def _rational(rng: random.Random, sign: int = 0) -> Fraction:
    num = rng.randint(1, POINT_BOUND) * (sign or rng.choice((-1, 1)))
    return Fraction(num, rng.randint(1, POINT_BOUND))


def _point(rng: random.Random, bivariate: bool, kind: int) -> tuple[str, ...]:
    """A rational point; kinds 1-3 are x = 0, negative s, and x^2 + 4s = 0."""
    x0 = Fraction(0) if kind == 1 else _rational(rng)
    if not bivariate:
        return (str(x0),)
    if kind == 2:
        s0 = _rational(rng, sign=-1)
    elif kind == 3:
        s0 = -x0 * x0 / 4
    else:
        s0 = _rational(rng)
    return (str(x0), str(s0))
