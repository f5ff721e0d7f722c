"""One pass over a workload's op list, in a fresh process; run by run.py.

    python3 perfbench/worker.py --workload gen_large --seed 0 [--check] [--spans PATH]

Each op calls ``spreadpoly.cli.main(argv)`` with stdout captured, timed
alone; hashing and checking happen after its timer stops.  A fresh process
per pass means nothing the program caches carries from one pass to the next,
as with separate CLI calls.  ``--check`` compares every op's output with the
closed-form oracle.  ``--spans`` installs the tracer, writes the spans there
and adds the per-layer aggregates to the result.  The result is one JSON line
on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle
import workloads
from probe import probe_ns
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import spreadpoly.cli

    if Path(spreadpoly.cli.__file__).resolve().parent != SRC / "spreadpoly":
        print(f"error: imported spreadpoly from {spreadpoly.cli.__file__}", file=sys.stderr)
        return 2

    ops = workloads.ops_for(args.workload, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer(workloads.SUITES)
        tracer.install()
    ns, codes, shas, reasons, output_bytes, probe = [], [], [], {}, 0, []
    for k, argv in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        probe.append(probe_ns())
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        code = _call(spreadpoly.cli, argv, buf)
        ns.append(time.perf_counter_ns() - t0)
        data = buf.getvalue().encode()
        output_bytes += len(data)
        codes.append(code)
        shas.append(hashlib.sha256(data).hexdigest())
        if isinstance(code, str):
            reasons[k] = code
        elif args.check:
            reason = oracle.check(argv, code, data.decode())
            if reason:
                reasons[k] = reason
    result = {
        "ops_sha256": workloads.ops_digest(ops),
        "ns": ns,
        "codes": codes,
        "sha256": shas,
        "reasons": reasons,
        "output_bytes": output_bytes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_ns": probe,
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.start)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _call(cli, argv: list[str], buf: io.StringIO) -> int | str:
    """The op's exit code, or a one-line description of what it raised."""
    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op, not a crashed pass
        return "raised " + traceback.format_exc().strip().splitlines()[-1]


if __name__ == "__main__":
    sys.exit(main())
