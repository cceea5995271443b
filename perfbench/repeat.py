"""Repeat the benchmark over seeds and summarize each end-to-end metric.

Run from the repository root:

    python3 perfbench/repeat.py [--trace-runs 1] [--out perfbench/baseline.json]

For every workload in BENCHMARK.json it runs ``run.py`` once per seed (seeds
1..10), with BENCHMARK.json's ``run_seconds``, and reports per metric
the median, the quartiles and the spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) next to
the metric's bound.  Traced runs add the median of each per-layer metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect output {result['detail']['failures']}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in SEEDS]
        entry = {"machine": runs[0]["detail"]["machine"], "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            print(f"{workload:8s} {name:14s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:6.3f} bound {bound:.2f}"
                  + ("" if stats["spread"] < bound / 3 else "  WIDE"))
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        if args.trace_runs:
            traced = [run_once(workload, s, bench["run_seconds"], 1)
                      for s in SEEDS[:args.trace_runs]]
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in traced),
                       "unit": traced[0]["metrics"][name]["unit"]}
                for name in traced[0]["metrics"]}
            entry["breakdown"] = traced[0]["detail"]["breakdown"]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
