"""Benchmark for recomp: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {atlas,pairs,ranks,codec} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from
./src.  Each pass of a workload runs in a fresh interpreter
(perfbench/worker.py) with jobs=1, so recomp's module caches start
empty inside the timed part, as they do for every CLI call.  Passes
repeat until the next one would overrun --seconds; every metric is the
median over the passes of the run, request percentiles included.  At
least MIN_SETUPS set-ups are measured per run, adding set-up-only
starts when there are fewer passes.

A request, the unit of request_p50_ms and request_p90_ms, is one call
of the workload: an atlas table build, cell, sweep or catalog; one pair
decided down the whole ladder; one rank row, stacked rank or kernel
census; one graph6 line decoded, re-encoded and rebuilt from its edges.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics: self time of the
spans the benchmark puts around its calls into each recomp module,
counts taken at the same calls, and the tracing overhead as traced
against untraced wall time.  A layer a workload never enters reads 0.

The last stdout line is the result object.  The line before it holds
the run's facts: machine, host-speed reading (a fixed pure-Python loop
timed just before the workload, not a metric), failed_share with its
counts, and the sample counts.  The same facts, plus the spans of the
last traced pass, are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("atlas", "pairs", "ranks", "codec")
MIN_SETUPS = 5
RUN_LIMIT_S = 150  # hard cap on one run, whatever --seconds asks for

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
)

# name, unit, better, workload, the end-to-end metric it should move
PER_LAYER = (
    ("codes.canonical_tables_s", "s", "lower", "atlas", "wall_s"),
    ("atlas.catalog7_s", "s", "lower", "atlas", "wall_s"),
    ("atlas.k7_cells_s", "s", "lower", "atlas", "wall_s"),
    ("atlas.s_row6_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.r_row6_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.k0mod4_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.principal_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.down_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.corkk1_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.kaplus_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.sweep.clawfree_s", "s", "lower", "atlas", "wall_s peak_rss_mb"),
    ("atlas.pairs_examined", "count", "lower", "atlas", "wall_s"),
    ("atlas.hypothesis_count", "count", "lower", "atlas", "wall_s"),
    ("atlas.cells", "count", "lower", "atlas", "wall_s"),
    ("hypomorphy.parity_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.edges_utc_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.h3_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.hypo_table_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.hypo_utc_table_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.hypo_search_s", "s", "lower", "pairs", "request_p90_ms"),
    ("hypomorphy.hypo_utc_search_s", "s", "lower", "pairs", "request_p90_ms"),
    ("isomorphism.iso_utc_s", "s", "lower", "pairs", "request_p90_ms"),
    ("graphs.induced_s", "s", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.checks", "count", "lower", "pairs", "request_p50_ms"),
    ("hypomorphy.early_exits", "count", "higher", "pairs", "request_p50_ms"),
    ("hypomorphy.early_exit_share", "ratio", "higher", "pairs", "request_p50_ms"),
    ("hypomorphy.subsets_scanned", "count", "lower", "pairs", "request_p90_ms"),
    ("incidence.build_w_s", "s", "lower", "ranks", "wall_s"),
    ("linalg.rank_certified_s", "s", "lower", "ranks", "wall_s"),
    ("linalg.rank_bareiss_s", "s", "lower", "ranks", "wall_s"),
    ("linalg.rank_mod2_s", "s", "lower", "ranks", "wall_s"),
    ("linalg.rank_mod3_s", "s", "lower", "ranks", "wall_s"),
    ("incidence.kernel_census_s", "s", "lower", "ranks", "wall_s"),
    ("linalg.cells", "count", "lower", "ranks", "wall_s"),
    ("linalg.entries", "count", "lower", "ranks", "wall_s"),
    ("graph6.decode_s", "s", "lower", "codec", "wall_s"),
    ("graph6.encode_s", "s", "lower", "codec", "wall_s"),
    ("graphs.from_edges_s", "s", "lower", "codec", "wall_s"),
    ("graph6.bytes", "count", "lower", "codec", "wall_s"),
    ("graphs.built", "count", "lower", "codec", "wall_s"),
    ("trace.wall_traced_s", "s", "lower", "all", "wall_s"),
    ("trace.wall_untraced_s", "s", "lower", "all", "wall_s"),
    ("trace.overhead_ratio", "ratio", "lower", "all", "wall_s"),
)


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: a reading of the host, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def spawn(args, traced: bool, setup_only: bool, timeout: float, spans_out: Path | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ]
    if args.small:
        cmd.append("--small")
    if args.corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    facts = dict(machine_facts(), host_speed_s=host_speed_s())
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(
            spawn(args, traced, False, RUN_LIMIT_S - (t0 - start), spans_out if traced else None)
        )
        now = time.monotonic()
        if args.trace and len(passes) < 2:
            continue
        if now - start + (now - t0) > min(args.seconds, RUN_LIMIT_S / 2):
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, False, True, 60, None)["setup_s"])

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        metrics = layer_metrics(traced, wall)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "request_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in plain),
            "request_p90_ms": statistics.median(p90(p["latencies_ms"]) for p in plain),
        }
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    info = dict(
        facts,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        numpy=passes[0]["numpy"],
        passes=len(passes),
        wall_s_per_pass=[p["wall_s"] for p in passes],
        setups=setups,
        requests_per_pass=passes[0]["attempted"],
        latency_samples_per_pass=len(plain[0]["latencies_ms"]),
        failed_share=failed / attempted,
        errors=[e for p in passes for e in p["errors"]][:5],
        spans_file=str(spans_out.relative_to(ROOT)) if traced else None,
    )
    with open(OUT_DIR / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    return info, result


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    out = {}
    for name, unit, *_ in PER_LAYER:
        if unit == "s" and not name.startswith("trace."):
            span = name[: -len("_s")]
            out[name] = statistics.median(p["self_s"].get(span, 0.0) for p in traced)
        elif unit == "count":
            # counts repeat exactly between passes of one seed
            out[name] = traced[-1]["counts"].get(name, 0)
    counts = traced[-1]["counts"]
    checks = counts.get("hypomorphy.checks", 0)
    out["hypomorphy.early_exit_share"] = counts.get("hypomorphy.early_exits", 0) / checks if checks else 0.0
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_traced_s"] = traced_wall
    out["trace.wall_untraced_s"] = untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true", help="falsify one expected answer, for the self-test")
    args = ap.parse_args()
    if not (ROOT / "src" / "recomp" / "__init__.py").is_file():
        print(f"no recomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, statistics.StatisticsError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
