"""Self-test of the benchmark at a small size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names,
with its unit, with tracing off and on; that falsifying one expected
answer makes failed_share non-zero; that the metric tables in run.py and
BENCHMARK.json agree; and that in a directory holding only the benchmark
files the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "7", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_tables() -> list[str]:
    bad = []
    e2e = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    if e2e != [tuple(m) for m in run.END_TO_END]:
        bad.append("end_to_end in BENCHMARK.json differs from run.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    if layers != [m[:3] for m in run.PER_LAYER]:
        bad.append("per_layer in BENCHMARK.json differs from run.PER_LAYER")
    if [w["name"] for w in SPEC["workloads"]] != list(run.WORKLOADS):
        bad.append("workloads in BENCHMARK.json differ from run.WORKLOADS")
    return bad


def check_metrics(workload: str, trace: int) -> list[str]:
    code, lines = bench("--workload", workload, "--trace", str(trace), "--small")
    where = f"{workload} trace={trace}"
    if code != 0 or not lines:
        return [f"{where}: exit code {code}"]
    result = json.loads(lines[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        bad.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        bad.append(f"{where}: metrics/units differ: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            bad.append(f"{where}: {name} = {m['value']!r}")
    return bad


def check_corrupt(workload: str) -> list[str]:
    code, lines = bench("--workload", workload, "--trace", "0", "--small", "--corrupt")
    if code != 0:
        return [f"{workload} corrupted: exit code {code}"]
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if result["failed"] < 1 or result["correct"] or info["failed_share"] <= 0:
        return [f"{workload}: a corrupted expected answer went unnoticed"]
    return []


def check_bare_directory() -> list[str]:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, lines = bench("--workload", "codec", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or any('"correct"' in line for line in lines):
        return ["without the program the benchmark still printed a result"]
    return []


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    bad = check_tables() + check_bare_directory()
    for workload in run.WORKLOADS:
        bad += check_metrics(workload, 0) + check_metrics(workload, 1) + check_corrupt(workload)
    for line in bad:
        print("FAIL", line)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
