"""Run every workload and print every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py                       # each workload once, seed 0
    python3 perfbench/report.py --seeds 0-9 --save perfbench/baseline.json
    python3 perfbench/report.py --trace               # per-layer metrics too
    python3 perfbench/report.py --record-reference    # rewrite reference.json from seed 0

Each run is a fresh ``run.py`` process that measures for BENCHMARK.json's
run_seconds, one after another.  For each end-to-end metric the table gives
the median over seeds, the quartiles, and the spread (q3 - q1) / median next
to the bound in BENCHMARK.json, then the same timings as measured before
normalization ("raw") and ops_failed_frac.
The exit code is 1 when any run reported an op that failed its output check.
Delete reference.json before --record-reference when the op lists changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, OUT, REFERENCE  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return {"returncode": proc.returncode, "result": None, "meta": None}
    return {
        "returncode": proc.returncode,
        "meta": json.loads(lines[-2])["meta"],
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(DEFAULT_SEED), help="one seed or a range a-b")
    parser.add_argument("--trace", action="store_true", help="also one traced run per workload")
    parser.add_argument("--save", type=Path, help="write every run's result to this JSON file")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [DEFAULT_SEED] if args.record_reference else _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in names:
        runs[workload] = [_run(workload, seed, seconds, 0) for seed in seeds]
        if args.trace:
            runs[workload].append(_run(workload, seeds[0], seconds, 1))
        for run in runs[workload]:
            if run["result"] is None or run["returncode"] != 0 or not run["result"]["correct"]:
                ok = False
                print(f"{workload}: a run failed: {run['meta'] and run['meta']['failures']}")

    for workload in names:
        plain = [r for r in runs[workload] if r["result"] and r["meta"]["trace"] == 0]
        print(f"\n{workload}: {len(plain)} run(s), seeds {args.seeds}")
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  unit")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            unit = plain[0]["result"]["metrics"][name]["unit"] if plain else ""
            _row(name, values, unit, bounds[name])
        for name in plain[0]["meta"].get("raw", {}) if plain else []:
            values = [r["meta"]["raw"][name]["value"] for r in plain]
            _row(f"{name} (raw)", values, plain[0]["meta"]["raw"][name]["unit"], None)
        frac = [r["meta"]["ops_failed_frac"] for r in plain]
        _row("ops_failed_frac", frac, "frac", None)
        for r in runs[workload]:
            if r["result"] and r["meta"]["trace"] == 1:
                print("  traced run:")
                for name, metric in r["result"]["metrics"].items():
                    print(f"    {name:<34}{metric['value']:>16.6g}  {metric['unit']}")

    if args.save:
        args.save.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1) + "\n")
    if args.record_reference and ok:
        reference = {}
        for workload in names:
            record = json.loads((OUT / f"{workload}-seed{DEFAULT_SEED}-trace0.json").read_text())
            reference[workload] = {
                "seed": DEFAULT_SEED,
                "ops_sha256": record["meta"]["ops_sha256"],
                "stdout_sha256": record["stdout_sha256"],
            }
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def _row(name: str, values: list[float], unit: str, bound: float | None) -> None:
    if not values:
        return
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    bound_text = f"{bound:>7.2f}" if bound is not None else f"{'':>7}"
    print(f"  {name:<34}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound_text}  {unit}")


if __name__ == "__main__":
    sys.exit(main())
