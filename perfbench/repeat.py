"""Repeat benchmark runs over several seeds and summarise them.

Each run is a fresh, untraced process of perfbench/run.py, one after
another.  For every metric the summary gives the ten values (or however
many runs), their median, quartiles and spread (interquartile distance
over the median), plus the machine the runs were made on.

    python3 perfbench/repeat.py --workloads q5-one q3-all modules \\
        --seeds 1-10 --seconds 20 --out .bench_build/perfbench/summary.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import run

ROOT = run.ROOT


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json",
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    summary = {"machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            try:
                result, _ = run.spawn(workload, seed, args.seconds, 0)
            except run.BenchError as exc:
                print(f"benchmark error: {exc}", file=sys.stderr)
                return 2
            wall = time.perf_counter() - t0
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}",
                  file=sys.stderr)
        summary["workloads"][workload] = {
            "runs": runs,
            "metrics": {name: {"unit": units[name], **summarise(v)} for name, v in values.items()},
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:8s} {name:14s} median {stats['median']:.6g} {stats['unit']} "
                  f"spread {stats['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
