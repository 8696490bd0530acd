"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmark/baseline.py --workloads corpus line boolean --seeds 1-10
    python3 benchmark/baseline.py --seeds 1-10 --write benchmark/baseline.json

Each run is a fresh process of BENCHMARK.json's ``run_seconds``, one
after another.  For every end-to-end metric it prints the median, the
quartiles and the spread, that is the distance between the quartiles as
a share of the median, against the metric's bound in BENCHMARK.json,
and flags a spread above a third of its bound.  With ``--write`` it
also makes one traced run per workload at the first seed and records
everything, with the git revision, the digest of the package source,
the Python version and the processor count, as a baseline for later
changes to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(ROOT / "benchmark" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    result["notes"] = done.stdout.splitlines()[:-1]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def git_revision() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    record = {
        "git_revision": git_revision(),
        "source_sha256": run.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        correct = all(r["correct"] for r in runs)
        names = sorted({name for r in runs for name in r["metrics"]})
        table = {}
        print(f"{workload}: all correct {correct}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < len(runs):
                print(f"  {name}: reported by {len(values)} of {len(runs)} runs")
                steady = False
                continue
            stats = summary(values)
            table[name] = stats
            bound = bounds.get(name)
            flag = ""
            spread = stats["spread"]
            if bound is not None and (spread is None or spread > bound / 3):
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(
                f"  {name:22s} median {stats['median']:10.4f}"
                f"  q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}"
                f"  spread {'n/a' if spread is None else f'{spread:.3f}'}  bound {bound}{flag}"
            )
        steady = steady and correct
        entry = {"correct": correct, "end_to_end": table, "notes": runs[0]["notes"]}
        if args.write:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_notes"] = traced["notes"]
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
