"""The machine-speed probe: a fixed sparse big-int product.

The benchmark's host shares its cores, and its speed drifts by up to 2x over
minutes.  Timing this probe before every measured op gives the machine's
speed at that moment; normalized op times divide it out.  The probe is
independent of spreadpoly, so a slower program never makes it slower.
"""

from __future__ import annotations

import gc
import time

# normalized time = measured time * REF_NS / (probe time next to it)
REF_NS = 1_000_000

_A = {(k, 40 - k): 7**k * 3 ** (40 - k) for k in range(41)}
_B = {(k, 40 - k): -(5**k) * 11 ** (40 - k) for k in range(41)}


def probe_ns() -> int:
    """ns for one product, with the garbage collector off.

    With the collector off, the program's heap cannot slow the probe and so
    hide a slowdown of the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc: dict[tuple[int, int], int] = {}
        for (ax, a_s), ac in _A.items():
            for (bx, bs), bc in _B.items():
                key = (ax + bx, a_s + bs)
                acc[key] = acc.get(key, 0) + ac * bc
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
