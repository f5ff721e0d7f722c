"""spreadpoly benchmark: one workload and one seed per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_sweep --seed 0 --seconds 30 --trace 0

Each pass is a fresh ``worker.py`` process that imports the package from
``src/`` and drives ``spreadpoly.cli.main(argv)`` over the workload's seeded
op list, one op after another on one thread (a closed loop with one client).
Passes repeat until ``--seconds`` is spent.  Between passes the run times
batches of fresh interpreters that import ``spreadpoly.cli`` and build its
parser (``setup_s``, the cost every CLI call pays).  Every op's output is
checked outside the timed region: against a closed-form oracle in the first
pass (``oracle.py``), against the first pass in later ones, and for the
default seed against the sha256 recorded in ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  The host's speed drifts by up
to 2x within minutes, so every reported time is normalized to a reference
speed: each op is scaled by the speed probe (``probe.py``) timed next to it
(``*_norm_*`` metrics), and each set-up launch by the bare interpreter
launches on either side of it (``setup_s``).  The raw timings are in the
metadata line.  An op's latency is its median over the passes, and
``wall_norm_s`` is the sum of those medians.  ``--trace 1`` runs a checked warm-up pass,
then traced and untraced passes in T U U T order, and reports the per-layer
metrics of the traced ones (``tracer.py``) as measured; it runs at least one
whole T U U T cycle, so the count metrics are always compared across two
traced passes.  Traced and untraced passes must print identical output.

The last stdout line is the result object; the line before it holds the run
metadata (seed, op-list sha256, git sha, Python version, nproc, load average,
raw timings).  Full results, the op list and the spans go to
``perfbench/out/``.  Exit code 0 when every op was correct, 1 when an op
failed its check, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probe import REF_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_BATCH = 4  # launches before each pass and after the last
BARE_REF_S = 0.05  # a bare interpreter launch at the reference speed
PROBE_WINDOW = 5  # ops on each side whose probe times set an op's speed
PASS_TIMEOUT_S = 150
MIN_TRACED = 2  # traced passes in a --trace 1 run, whatever --seconds is
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from spreadpoly.cli import build_parser; build_parser()"
)

# Per-layer metrics: (name, unit).  Layer times are medians over traced
# passes; counts come from one traced pass and must repeat exactly.
PER_LAYER = [
    ("poly.construct.calls", "count"),
    ("poly.construct.self_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.mul.terms_out", "count"),
    ("poly.mul_large.calls", "count"),
    ("poly.mul_large.self_s", "s"),
    ("poly.addsub.self_s", "s"),
    ("poly.even_substitute.self_s", "s"),
    ("poly.compose.self_s", "s"),
    ("poly.evaluate.calls", "count"),
    ("poly.evaluate.self_s", "s"),
    ("poly.render.self_s", "s"),
    ("poly.max_coeff_bits", "bits"),
    ("sequences.build.calls", "count"),
    ("sequences.build.self_s", "s"),
    ("sequences.build.index_sum", "count"),
    ("sequences.ladder.calls", "count"),
    ("sequences.ladder.index_sum", "count"),
    ("sequences.coefficient_c.calls", "count"),
    ("sequences.coefficient_c.self_s", "s"),
    ("identities.check.calls", "count"),
    ("identities.check.self_s", "s"),
    ("identities.compare.calls", "count"),
    ("identities.compare.self_s", "s"),
    ("surd.binet.calls", "count"),
    ("surd.binet.self_s", "s"),
    ("surd.quadext_mul.calls", "count"),
    ("surd.quadext_pow.self_s", "s"),
    ("gf.expand.calls", "count"),
    ("gf.expand.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *((f"cli.verify.{suite}.s", "s") for suite in workloads.SUITES),
    ("trace_overhead_frac", "frac"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "spreadpoly" / "cli.py").is_file():
        print(f"error: no spreadpoly package under {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    ops = workloads.ops_for(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ledger = Ledger(args.workload, args.seed, ops)
    if args.trace:
        metrics, extra = _traced(ledger, args.seconds, OUT / stem)
    else:
        metrics, extra = _untraced(ledger, args.seconds)
    ledger.check_gen_groups()

    op_ns_per_pass = extra.pop("op_ns_per_pass")
    probe_ns_per_pass = extra.pop("probe_ns_per_pass", None)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "ops": len(ops),
        "ops_sha256": workloads.ops_digest(ops),
        "ops_failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons[:20],
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        **extra,
    }
    correct = ledger.failed == 0 and not extra.get("errors")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {
        "meta": meta,
        "result": result,
        "ops": ops,
        "stdout_sha256": ledger.stdout_sha256(),
        "op_ns_per_pass": op_ns_per_pass,
        "probe_ns_per_pass": probe_ns_per_pass,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    table = [
        *metrics.items(),
        *((f"{name} (raw)", (m["value"], m["unit"])) for name, m in meta.get("raw", {}).items()),
        ("ops_failed_frac", (meta["ops_failed_frac"], "frac")),
    ]
    for name, (value, unit) in table:
        print(f"{args.workload:<13} {name:<32} {value:>16.6g} {unit}", file=sys.stderr)
    for reason in ledger.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


class Ledger:
    """Runs passes in worker processes and counts every op that fails a check."""

    def __init__(self, workload: str, seed: int, ops: list[list[str]]) -> None:
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.reference = _reference(workload)
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run_pass(self, spans: Path | None = None) -> dict | None:
        """One pass in a fresh process; None when the worker itself failed."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload]
        cmd += ["--seed", str(self.seed)]
        if self.first is None:
            cmd.append("--check")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            done = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired:
            proc, done = None, None
        if done is None or done["ops_sha256"] != workloads.ops_digest(self.ops):
            if proc is None:
                why = "timed out"
            else:
                why = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            for argv in self.ops:
                self._count(argv, f"pass worker failed ({why})")
            return None
        for k, argv in enumerate(self.ops):
            self._count(argv, self._reason(k, done))
        if self.first is None:
            self.first = done
        return done

    def _reason(self, k: int, done: dict) -> str | None:
        if self.first is None:
            expected = self.reference.get(" ".join(self.ops[k]))
            if expected is not None and expected != done["sha256"][k]:
                return "stdout sha256 differs from reference.json"
            return done["reasons"].get(str(k))
        first = self.first
        if (done["codes"][k], done["sha256"][k]) != (first["codes"][k], first["sha256"][k]):
            return "output differs from the first pass"
        return first["reasons"].get(str(k))

    def _count(self, argv: list[str], reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons.append(f"{' '.join(argv)}: {reason}")

    def check_gen_groups(self) -> None:
        """Every method of one (family, n, format) must print byte-identical output."""
        groups: dict[tuple[str, ...], set[str]] = {}
        for argv, sha in zip(self.ops, self.first["sha256"] if self.first else []):
            if argv[0] == "gen":
                fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
                groups.setdefault((argv[1], argv[2], fmt), set()).add(sha)
        for key, shas in groups.items():
            if len(shas) > 1:
                self._count(["gen", *key], "methods print different output")

    def stdout_sha256(self) -> dict[str, str]:
        shas = self.first["sha256"] if self.first else []
        return {" ".join(argv): sha for argv, sha in zip(self.ops, shas)}


def _untraced(ledger: Ledger, seconds: float) -> tuple[dict, dict]:
    """Passes with batches of set-up launches between them, so both sample the whole run."""
    _launch(SETUP_CODE, str(SRC))  # compiles the bytecode that every later launch reuses
    setup: list[tuple[float, float]] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        setup += _setup_batch()
        done = ledger.run_pass()
        if done is None:
            break
        passes.append(done)
    setup += _setup_batch()
    if not passes:
        return {}, {"passes": 0, "op_ns_per_pass": []}
    # An op's latency is its median over the passes, so a slow spell of the
    # shared machine during one pass does not move the result.
    raw_ms = _op_medians([p["ns"] for p in passes])
    norm_ms = _op_medians([_normalized(p) for p in passes])
    metrics = {
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "wall_norm_s": (sum(norm_ms) / 1e3, "s"),
        "op_p50_norm_ms": (statistics.median(norm_ms), "ms"),
        "op_p90_norm_ms": (_p90(norm_ms), "ms"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }
    extra = {
        # The same timings as measured, before dividing out the machine's speed.
        "raw": {
            "setup_s": {"value": statistics.median(raw for raw, _ in setup), "unit": "s"},
            "wall_s": {"value": sum(raw_ms) / 1e3, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(raw_ms), "unit": "ms"},
            "op_p90_ms": {"value": _p90(raw_ms), "unit": "ms"},
        },
        "passes": len(passes),
        "pass_wall_s": [sum(p["ns"]) / 1e9 for p in passes],
        "probe_median_ns": [statistics.median(p["probe_ns"]) for p in passes],
        "op_samples": len(norm_ms),
        "op_samples_above_p90": sum(t > _p90(norm_ms) for t in norm_ms),
        "setup_launches_s": [raw for raw, _ in setup],
        "op_ns_per_pass": [p["ns"] for p in passes],
        "probe_ns_per_pass": [p["probe_ns"] for p in passes],
    }
    return metrics, extra


def _normalized(done: dict) -> list[float]:
    """A pass's op times in ns at the reference speed of the machine.

    The speed probe runs just before every op; each op is scaled by the
    median probe time of its neighbours, which tracks the shared machine's
    speed while the op ran.
    """
    probe = done["probe_ns"]
    out = []
    for k, ns in enumerate(done["ns"]):
        local = statistics.median(probe[max(0, k - PROBE_WINDOW) : k + PROBE_WINDOW + 1])
        out.append(ns * REF_NS / local)
    return out


def _op_medians(per_pass: list[list[float]]) -> list[float]:
    """Each op's median time over the passes, in ms."""
    return [statistics.median(times) / 1e6 for times in zip(*per_pass)]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _traced(ledger: Ledger, seconds: float, stem: Path) -> tuple[dict, dict]:
    """A checked warm-up pass, then traced and untraced passes in T U U T order."""
    plain: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    start = time.perf_counter()
    if ledger.run_pass() is None:
        errors.append("warm-up pass failed")
    for kind in itertools.cycle("TUUT"):
        # At least one whole T U U T cycle, so every layer time is a median
        # and every count is seen twice, however short the run.
        balanced = len(plain) == len(traced) >= MIN_TRACED
        if errors or (balanced and time.perf_counter() - start >= seconds):
            break
        spans = Path(f"{stem}-spans{len(traced)}.csv.gz") if kind == "T" else None
        done = ledger.run_pass(spans)
        if done is None:
            errors.append(f"{'traced' if spans else 'untraced'} pass failed")
        else:
            (traced if spans else plain).append(done)
    layers = {}
    for name, unit in PER_LAYER if not errors else []:
        if name == "trace_overhead_frac":
            value = _median_wall(traced) / _median_wall(plain) - 1  # both normalized
        elif name == "cli.output_bytes":
            value = ledger.first["output_bytes"]
        else:
            values = [_layer_value(p["layers"], name) for p in traced]
            if unit != "s" and len(set(values)) > 1:
                errors.append(f"count {name} differs between traced passes: {values}")
            value = statistics.median(values) if unit == "s" else values[0]
        layers[name] = (value, unit)
    missing = sorted({m for p in traced for m in p["missing"]})
    if missing:
        errors.append(f"trace targets not found: {missing}")
    extra = {
        "passes": 1 + len(plain) + len(traced),
        "untraced_wall_s": [sum(p["ns"]) / 1e9 for p in plain],
        "traced_wall_s": [sum(p["ns"]) / 1e9 for p in traced],
        "spans": [p["spans"] for p in traced],
        "errors": errors,
        "op_ns_per_pass": {
            "untraced": [p["ns"] for p in plain],
            "traced": [p["ns"] for p in traced],
        },
    }
    return layers, extra


def _median_wall(passes: list[dict]) -> float:
    return statistics.median(sum(_normalized(p)) / 1e9 for p in passes)


def _layer_value(agg: dict[str, float], name: str) -> float:
    if name.startswith("poly.mul.") and name != "poly.mul.terms_out":
        # poly.mul counts every product; poly.mul_large is the subset whose
        # smaller operand has at least LARGE_TERMS terms.
        stat = name.rsplit(".", 1)[1]
        return agg.get(f"poly.mul.{stat}", 0) + agg.get(f"poly.mul_large.{stat}", 0)
    return agg.get(name, 0)


def _launch(code: str, *args: str) -> float:
    """Seconds from spawning a fresh interpreter running ``code`` to its exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], check=True)
    return time.perf_counter() - t0


def _setup_batch() -> list[tuple[float, float]]:
    """SETUP_BATCH set-up launches, each as measured and normalized.

    Each set-up launch sits between two bare interpreter launches; scaling
    it by BARE_REF_S over their mean divides out the host's speed, which
    moves both alike.
    """
    bare = [_launch("pass")]
    out = []
    for _ in range(SETUP_BATCH):
        seconds = _launch(SETUP_CODE, str(SRC))
        bare.append(_launch("pass"))
        out.append((seconds, seconds * BARE_REF_S * 2 / (bare[-2] + bare[-1])))
    return out


def _reference(workload: str) -> dict[str, str]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get("stdout_sha256", {})


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "spreadpoly").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
