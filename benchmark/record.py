"""Record the reference meaning digests and counts for a range of seeds.

    python3 benchmark/record.py --seeds 0-49 1009

Runs every operation of each workload once, untimed, with the code of
this checkout, and writes ``benchmark/reference.json``.  run.py compares
each run against the entry for its workload and seed.  Record again
only for a change that is meant to alter what the commands compute.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def record(workload: str, seed: int) -> dict:
    work = run.ROOT / ".bench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli, models, paths, _, _ = run.setup(workload, seed, work, repeats=1)
        bench = run.Bench(cli, models, paths)
        bench.complete()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(bench.failed.values()):
        raise SystemExit(f"{workload} seed {seed} failed: {bench.failures}")
    return {"digests": bench.digests(), "counts": bench.count_totals(run.COUNTS_FROM_OUTPUT)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges a-b")
    args = parser.parse_args()
    seeds = []
    for item in args.seeds:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    table = {name: {} for name in workloads.NAMES}
    for name in workloads.NAMES:
        for seed in seeds:
            table[name][str(seed)] = record(name, seed)
        print(f"{name}: {len(seeds)} seeds recorded", flush=True)
    data = {"source_sha256": run.source_digest(), "workloads": table}
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
