"""One pass of one workload in a fresh interpreter.

Started by run.py, never imported.  Set-up is everything before the
first timed call: interpreter start (timed from --spawned-at, a
time.monotonic() reading taken by the parent just before it started this
process), `import recomp` and input generation from the seed.  The pass
then runs every request, checks each output, and prints one JSON object
on stdout.  Module caches start empty because the interpreter is new.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import recomp

    if not Path(recomp.__file__).resolve().is_relative_to(src.resolve()):
        print(f"recomp imported from {recomp.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import NullTracer, Tracer

    make, run, check = workloads.WORKLOADS[args.workload]
    reqs = make(args.seed, args.small)
    if args.corrupt:
        workloads.corrupt(reqs)
    tracer = Tracer() if args.trace else NullTracer()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies_ms = []
    failed = 0
    errors = []
    start = time.perf_counter()
    for rid, req in enumerate(reqs):
        t0 = time.perf_counter()
        try:
            out = run(req, tracer, rid)
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            problems = check(req, out)
        except Exception:  # one failed request must not end the pass
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            if len(errors) < 5:
                errors.append({"request": rid, "problems": problems[:3]})
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ms": latencies_ms,
        "attempted": len(reqs),
        "failed": failed,
        "errors": errors,
        "traced": bool(args.trace),
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
