#!/usr/bin/env python3
"""Run the benchmark in two checkouts, in alternating pairs, and apply the gain and
no-regression rules.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload synth_solve --pairs 10 --seed 101

PARENT and CHANGE are two checkouts of fibrec.  Pair i runs
`bench/run.py --workload W --seed S+i`, unchanged and at its default length,
in each of them, from its own root: the parent first in even pairs, the
change first in odd ones.  Each checkout's runs share one fresh bytecode
directory (PYTHONPYCACHEPREFIX), removed at exit, so neither side imports
bytecode that an earlier test run left in its tree; PYTHONDONTWRITEBYTECODE is
left out of the runs' environment, so the directory fills on a checkout's
first run and its later runs import what it holds.  Each run's figures, and
whether its answers were correct, are printed as it ends.  Then, for each
end-to-end metric of CHANGE's BENCHMARK.json that the runs report, it prints
both medians, how far the change's median moved, the parent's quartiles, how
many pairs the change won (a tie counts for neither side), whether the gain
rule holds: the change wins at least nine tenths of the pairs, and its median
beats the parent's by more than the distance between the parent's quartiles,
and the no-regression verdict, by the metric's relative `bound`: `unresolved`
when the parent's quartiles lie more than `bound` times its median apart, so
the runs spread too widely to tell, unless every run of the change is better
than every run of the parent; else `worse` when the change's median is worse
than the parent's by more than `bound` times the parent's; else `ok`.

It exits with 1, and says why, when a run printed no result line (at once,
naming the side and the seed), when a run reported incorrect answers, or when
the change failed a larger share of its operations than the parent; else 0.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


@functools.cache
def pycache_prefix(checkout: str) -> str:
    """A fresh bytecode directory for `checkout`'s runs, removed at exit."""
    path = tempfile.mkdtemp(prefix="bench-pycache-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def run_bench(checkout: str, workload: str, seed: int) -> str:
    """The stdout of one benchmark run in `checkout`, which writes its bytecode to
    and reads it from its own directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = pycache_prefix(os.path.abspath(checkout))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, stdout=subprocess.PIPE, text=True,
                          env=env)
    return proc.stdout


def result(stdout: str) -> dict | None:
    """The result object that a benchmark run prints as its last line, or None
    when its last line is not one."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of at least two values, by the exclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(name: str, better: str, bound: float, parent: list[float],
            change: list[float]) -> dict:
    """Medians, the parent's quartiles, pairs won, the gain rule and the
    no-regression verdict for one metric."""
    sign = 1 if better == "higher" else -1
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    allowed = bound * abs(median_p)
    clear = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > allowed and not clear:
        verdict = "unresolved"
    else:
        verdict = "worse" if sign * (median_p - median_c) > allowed else "ok"
    return {
        "metric": name, "parent": median_p, "change": median_c, "q1": q1, "q3": q3, "won": won,
        "gain": 10 * won >= 9 * len(parent) and sign * (median_c - median_p) > q3 - q1,
        "regression": verdict,
    }


def main(argv: list[str] | None = None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            got = result(run(sides[side], args.workload, seed))
            if got is None:
                print(f"seed {seed} {side}: the run printed no result line", flush=True)
                return 1
            runs[side].append(got)
            print(f"seed {seed} {side}: correct {got['correct']}, failed {got['failed']} of "
                  f"{got['attempted']}, " + ", ".join(f"{name} {m['value']:.6g}"
                                                      for name, m in got["metrics"].items()),
                  flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}; "
          + ", ".join(f"{side} failed {sum(got['failed'] for got in runs[side])} ops"
                      for side in sides))
    print(f"{'metric':14s} {'unit':8s} {'parent':>10s} {'change':>10s} {'moved':>7s} "
          f"{'parent Q1..Q3':>21s} {'won':>7s}  gain rule  regression")
    for metric in metrics:
        name = metric["name"]
        if not all(name in got["metrics"] for side in runs.values() for got in side):
            continue
        values = {side: [got["metrics"][name]["value"] for got in runs[side]] for side in sides}
        row = summary(name, metric["better"], metric["bound"], values["parent"], values["change"])
        moved = row["change"] / row["parent"] - 1 if row["parent"] else 0.0
        print(f"{name:14s} {metric['unit']:8s} {row['parent']:10.4g} {row['change']:10.4g} "
              f"{moved:+7.1%} {row['q1']:10.4g}..{row['q3']:<9.4g} "
              f"{row['won']:3d}/{args.pairs:<3d}  "
              f"{'holds' if row['gain'] else 'fails':9s}  {row['regression']}")

    status = 0
    wrong = [f"seed {args.seed + i} {side}" for side in sides
             for i, got in enumerate(runs[side]) if not got["correct"]]
    if wrong:
        print("incorrect answers: " + ", ".join(wrong))
        status = 1
    share = {side: sum(got["failed"] for got in runs[side])
             / max(sum(got["attempted"] for got in runs[side]), 1) for side in sides}
    if share["change"] > share["parent"]:
        print(f"the change failed {share['change']:.2%} of its operations, "
              f"the parent {share['parent']:.2%}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
