#!/usr/bin/env python3
"""Run the benchmark over a fixed range of seeds and write its figures to one file.

    python3 scripts/bench_record.py --out BENCH_31.json

For every workload that the checkout's BENCHMARK.json lists, and for each seed
S in SEEDS, 1..5, this runs `bench/run.py --workload W --seed S`, unchanged and
at its default length, from the checkout's root (by default the repository that
holds this script).  The file it writes holds, per workload,
the operations attempted and failed over all runs, whether every run was
correct, and for each metric its unit, its values in seed order, their median
and their quartiles.  It also holds the seeds, the Python version and the
checkout's git commit.  A later change reads its parent's figures from here,
so every file is made over the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from bench_pairs import quartiles, result, run_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 6)


def git_sha(checkout: str) -> str | None:
    """The checkout's commit, or None outside a git checkout."""
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True).stdout.strip() or None


def workload_figures(runs: list[dict]) -> dict:
    """Totals over one workload's runs, and each metric's values and quartiles."""
    figures = {"correct": all(got["correct"] for got in runs),
               "attempted": sum(got["attempted"] for got in runs),
               "failed": sum(got["failed"] for got in runs), "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        values = [got["metrics"][name]["value"] for got in runs]
        q1, median, q3 = quartiles(values)
        figures["metrics"][name] = {"unit": first["unit"], "median": median, "q1": q1,
                                    "q3": q3, "values": values}
    return figures


def main(argv: list[str] | None = None, run=run_bench, seeds=SEEDS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the file to write, such as BENCH_31.json")
    parser.add_argument("--checkout", default=ROOT)
    args = parser.parse_args(argv)
    with open(os.path.join(args.checkout, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    doc = {"git_sha": git_sha(args.checkout), "python": platform.python_version(),
           "seeds": list(seeds), "command": "bench/run.py --workload W --seed S",
           "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(result(run(args.checkout, workload, seed)))
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']}", flush=True)
        doc["workloads"][workload] = workload_figures(runs)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
