"""Per-layer spans around spreadpoly's public functions, patched in from outside.

The package stays untouched on disk: ``Tracer.install`` swaps each wrapped
function for a recording wrapper in every spreadpoly module namespace, class
dict and module-level dict that binds it.  ``cli`` and ``identities`` import
``fibonacci``, ``z_polynomial`` and the rest by name, so patching only the
defining module would miss their calls.  A traced pass runs in a process of
its own, so the patches are never taken out again.

Spans live in flat in-memory arrays (layer, start, end, parent span, op id)
and are written out after the run.  A layer's self time is its span time
minus the time of its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

# (layer, module, qualified name).  Methods are looked up on the class and
# patched under every class attribute that aliases them (__radd__ = __add__).
SPANNED = [
    ("poly.construct", "poly", "BiPoly.__init__"),
    ("poly.construct", "poly", "UniPoly.__init__"),
    ("poly.mul", "poly", "BiPoly.__mul__"),
    ("poly.mul", "poly", "UniPoly.__mul__"),
    ("poly.addsub", "poly", "BiPoly.__add__"),
    ("poly.addsub", "poly", "BiPoly.__sub__"),
    ("poly.addsub", "poly", "BiPoly.__rsub__"),
    ("poly.addsub", "poly", "BiPoly.__neg__"),
    ("poly.addsub", "poly", "UniPoly.__add__"),
    ("poly.addsub", "poly", "UniPoly.__sub__"),
    ("poly.addsub", "poly", "UniPoly.__rsub__"),
    ("poly.addsub", "poly", "UniPoly.__neg__"),
    ("poly.even_substitute", "poly", "BiPoly.even_substitute"),
    ("poly.compose", "poly", "UniPoly.compose"),
    ("poly.evaluate", "poly", "BiPoly.evaluate"),
    ("poly.evaluate", "poly", "UniPoly.evaluate"),
    ("poly.render", "poly", "BiPoly.render"),
    ("poly.render", "poly", "UniPoly.render"),
    ("sequences.build", "sequences", "fibonacci"),
    ("sequences.build", "sequences", "lucas"),
    ("sequences.build", "sequences", "z_polynomial"),
    ("sequences.build", "sequences", "univariate_l"),
    ("sequences.build", "sequences", "spread_z_univariate"),
    ("sequences.build", "sequences", "wildberger_spread"),
    ("sequences.build", "sequences", "chebyshev_t"),
    ("sequences.coefficient_c", "sequences", "coefficient_c"),
    ("identities.check", "identities", "check_cassini"),
    ("identities.check", "identities", "check_z_cassini"),
    ("identities.check", "identities", "check_lucas_binomial"),
    ("identities.check", "identities", "check_z_binomial"),
    ("identities.check", "identities", "check_symmetry"),
    ("identities.check", "identities", "check_coefficient_forms"),
    ("identities.check", "identities", "check_trig"),
    ("identities.check", "identities", "check_chebyshev_bala"),
    ("identities.check", "identities", "check_l_doubling"),
    ("identities.check", "surd", "check_root_relations"),
    ("identities.compare", "identities", "compare_polynomials"),
    ("surd.binet", "surd", "binet_fibonacci"),
    ("surd.binet", "surd", "binet_lucas"),
    ("surd.binet", "surd", "binet_z"),
    ("surd.quadext_pow", "surd", "QuadExt.__pow__"),
    ("gf.expand", "gf", "expand"),
    ("cli.main", "cli", "main"),
]

# Counted without a span: their time stays in the caller's self time.
COUNTED = [
    ("sequences.ladder", "sequences", "_fib_list"),
    ("sequences.ladder", "sequences", "_lucas_list"),
    ("sequences.ladder", "sequences", "_z_list"),
    ("surd.quadext_mul", "surd", "QuadExt.__mul__"),
]

# A product whose smaller operand has at least this many terms is "large".
LARGE_TERMS = 64


def _coeff_bits(poly: Any) -> int:
    bits = 0
    for _, c in poly.terms():
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Records spans and counters while installed, for one pass in one process."""

    def __init__(self, suites: tuple[str, ...]) -> None:
        self.suites = suites
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, layer: str, fn: Callable) -> Callable:
        lid = self.layer_id(layer)
        mul_large = self.layer_id("poly.mul_large")
        layer_a, start_a, end_a = self.layer, self.start, self.end
        parent_a, op_a = self.parent, self.op
        stack, counts, clock, tracer = self.stack, self.counts, time.perf_counter_ns, self
        is_mul = layer == "poly.mul"
        is_build = layer == "sequences.build"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            this = lid
            if is_mul:
                a, b = args[0], args[1]
                if type(a) is type(b) and min(len(a), len(b)) >= LARGE_TERMS:
                    this = mul_large
            i = len(start_a)
            layer_a.append(this)
            parent_a.append(stack[-1])
            op_a.append(tracer.op_id)
            end_a.append(0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
            if is_mul and type(result) is type(args[0]):
                counts["poly.mul.terms_out"] += len(result)
            elif is_build:
                counts["sequences.build.index_sum"] += args[0]
                bits = _coeff_bits(result)
                if bits > counts["poly.max_coeff_bits"]:
                    counts["poly.max_coeff_bits"] = bits
            return result

        return wrapper

    def _counted(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts
        calls = f"{layer}.calls"
        index_sum = f"{layer}.index_sum" if layer == "sequences.ladder" else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[calls] += 1
            if index_sum:
                counts[index_sum] += args[0]
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every wrapped name in the loaded spreadpoly modules."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spreadpoly"]
        for layer, module, qualname in SPANNED + COUNTED:
            original, owner = self._resolve(module, qualname)
            if original is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            spanned = (layer, module, qualname) in SPANNED
            wrapper = self._spanned(layer, original) if spanned else self._counted(layer, original)
            for namespace in [owner] if owner is not None else modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
        # The verify suite table: a module-level dict holding every suite by name.
        tables = [
            value
            for mod in modules
            for value in list(vars(mod).values())
            if isinstance(value, dict) and all(suite in value for suite in self.suites)
        ]
        for table in tables:
            for suite in self.suites:
                table[suite] = self._spanned(f"cli.verify.{suite}", table[suite])
        if not tables:
            self.missing.append("verify suite table")

    def _resolve(self, module: str, qualname: str) -> tuple[Any, Any]:
        mod = sys.modules.get(f"spreadpoly.{module}")
        if mod is None:
            return None, None
        head, _, method = qualname.partition(".")
        obj = getattr(mod, head, None)
        if not method:
            return obj, None
        return (vars(obj).get(method), obj) if isinstance(obj, type) else (None, None)

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-layer calls, self seconds and total seconds, plus the counters."""
        layer_a, start_a, end_a, parent_a = self.layer, self.start, self.end, self.parent
        child = [0] * len(start_a)
        for i in range(len(start_a)):
            if parent_a[i] >= 0:
                child[parent_a[i]] += end_a[i] - start_a[i]
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        total_ns = [0] * len(self.layers)
        for i in range(len(start_a)):
            lid = layer_a[i]
            dur = end_a[i] - start_a[i]
            calls[lid] += 1
            self_ns[lid] += dur - child[i]
            total_ns[lid] += dur
        out: dict[str, float] = dict(self.counts)
        for lid, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_ns[lid] / 1e9
            out[f"{name}.s"] = total_ns[lid] / 1e9
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: layer, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write("layer,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.layers[self.layer[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
