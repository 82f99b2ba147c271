"""fibrec benchmark: end-to-end and per-layer figures on three workloads.

Run from the root of a fibrec checkout:

    python3 bench/run.py --workload eval_window --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One caller runs a seeded, fixed list of operations in a closed loop in this
single-threaded process; ``--seconds`` sets how many chunks of operations
the list holds (see CHUNK_SECONDS), not a deadline, so two runs with the
same seed do exactly the same work.  Every answer is checked against the
independent reference in refcheck.py, outside the timed calls.

The machine's speed swings by up to 2x within seconds, so a fixed job of
exact arithmetic that does not touch fibrec (refcheck.calibration_job) runs
between the timed calls every SEGMENT_SECONDS.  Each operation's time is
divided by how much slower than CALIBRATION_SECONDS the calibration runs
around it took, so the operation metrics are at the reference speed;
setup_s stays in wall-clock seconds.  The unscaled figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs odd chunks with
every layer wrapped (spans.py) and prints the per-layer metrics, the
tracing overhead, and writes the kept spans under .bench_out/.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("eval_window", "derive_check", "synth_solve")
# seconds one chunk of each workload takes untraced on a 2-core x86-64 VM
# under Python 3.11; a run of S seconds holds round(S / CHUNK_SECONDS) chunks
CHUNK_SECONDS = {"eval_window": 1.3, "derive_check": 2.0, "synth_solve": 1.5}
MIN_CHUNKS = 2  # one untraced and one traced chunk in a traced run
IMPORT_PROBES = 5
SPOT_INDICES = 8  # reference F(n) values compared with sympy.fibonacci per run
SPOT_RANGE = 25_000
# seconds refcheck.calibration_job takes on the VM above.  The job runs
# again whenever SEGMENT_SECONDS have passed, and every timing is scaled by
# how far the two runs around it stray from this (README: Steadiness).
CALIBRATION_SECONDS = 0.019
SEGMENT_SECONDS = 0.25
SMOOTHING = 2  # calibration runs on each side that also count


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def setup_probe() -> float:
    """Seconds from launching a fresh interpreter until `import fibrec` returns."""
    code = "import fibrec, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    return float(proc.stdout) - start


def import_probe() -> dict[str, float]:
    """Cumulative import seconds per top-level module, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fibrec"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            out[fields[2].strip()] = int(fields[1]) / 1e6
    return out


class Chunk(NamedTuple):
    traced: bool
    values: int
    latencies: list  # (seconds, calibration segment) of each op
    setup: float | None  # seconds of the set-up probe before the chunk


class Calibration:
    """Times of the calibration job, taken between the timed calls."""

    def __init__(self, job):
        self.job = job
        self.times: list[float] = []
        self.last = 0.0
        self.run()

    def run(self) -> None:
        start = time.perf_counter()
        self.job()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def segment(self) -> int:
        """Index of the segment that starts at the latest run of the job."""
        return len(self.times) - 1

    def due(self) -> None:
        if time.perf_counter() - self.last >= SEGMENT_SECONDS:
            self.run()

    def slowdown(self, segment: int) -> float:
        """How much slower than at CALIBRATION_SECONDS the machine ran in segment.

        The median of the two runs around the segment and the two before and
        after them: the machine's swings last seconds, a single run's noise
        does not.
        """
        window = self.times[max(0, segment - SMOOTHING) : segment + 2 + SMOOTHING]
        return statistics.median(window) / CALIBRATION_SECONDS


def measure(workload: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    import refcheck
    import spans
    import workloads

    n_chunks = max(MIN_CHUNKS, round(seconds / CHUNK_SECONDS[workload]))
    os.makedirs(OUT_DIR, exist_ok=True)
    build, runner = workloads.make(workload, OUT_DIR)
    plan = build(random.Random(f"{workload}:{seed}"), n_chunks, **sizes)
    tracer = spans.Tracer() if trace else None

    chunks: list[Chunk] = []
    calibration = Calibration(refcheck.calibration_job)
    attempted = failed = 0
    op_id = 0
    try:
        for index, chunk in enumerate(plan.chunks):
            traced = tracer is not None and index % 2 == 1
            setup = None
            if not trace:
                setup = setup_probe()
                calibration.run()
            gc.collect()
            latencies = []
            values = 0
            with tracer.installed() if traced else contextlib.nullcontext():
                for op in chunk:
                    segment = calibration.segment()
                    with tracer.op(op_id) if traced else contextlib.nullcontext():
                        start = time.perf_counter()
                        try:
                            result = runner.run(op)
                        except Exception as exc:  # an op that raises counts as failed
                            result = exc
                        elapsed = time.perf_counter() - start
                    op_id += 1
                    attempted += 1
                    ok = not isinstance(result, Exception) and runner.check(op, result)
                    if not ok:
                        failed += 1
                        print(f"FAILED {workload} op {op_id - 1}: {describe(op, result)}",
                              file=sys.stderr)
                    latencies.append((elapsed, segment))
                    values += op.values
                    calibration.due()
            calibration.run()
            chunks.append(Chunk(traced, values, latencies, setup))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        probe_outcomes = [runner.probe_outcome(op, runner.run(op)) for op in plan.probes]
    finally:
        runner.close()
    spot = random.Random(f"spot:{seed}")
    sympy_ok = refcheck.sympy_spot_check(
        refcheck.fib_at(spot.randint(-SPOT_RANGE, SPOT_RANGE) for _ in range(SPOT_INDICES))
    )

    slowdown = calibration.slowdown
    untraced = [c for c in chunks if not c.traced]
    windows = attempted + len(plan.probes)
    report = {
        "attempted": attempted,
        "failed": failed,
        "probes": {k: probe_outcomes.count(k) for k in ("ok", "limit", "wrong")},
        "fail_ratio": (failed + len(plan.probes) - probe_outcomes.count("ok")) / windows,
        "samples": sum(len(c.latencies) for c in untraced),
        "calibration": statistics.quantiles(calibration.times, n=10)[::8],
        "sympy": sympy_ok,
        "correct": failed == 0 and "wrong" not in probe_outcomes and sympy_ok is not False,
    }
    if not trace:
        figures = {}
        for scaled in (True, False):
            scale = slowdown if scaled else (lambda segment: 1.0)
            latencies = [[t / scale(seg) for t, seg in c.latencies] for c in untraced]
            every = [t for chunk in latencies for t in chunk]
            figures[scaled] = {
                # interpreter start-up does not follow the calibration job,
                # so set-up time stays in wall-clock seconds
                "setup_s": (statistics.median(c.setup for c in untraced), "s"),
                "ops_per_s": (statistics.median(len(c) / sum(c) for c in latencies), "ops/s"),
                "values_per_s": (
                    statistics.median(c.values / sum(t) for c, t in zip(untraced, latencies)),
                    "values/s",
                ),
                "op_p50_ms": (statistics.median(map(statistics.median, latencies)) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(every, n=10)[-1] * 1e3, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        report["metrics"] = figures[True]
        report["wall_clock"] = figures[False]
        return report

    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    metrics["cli.output_bytes"] = (runner.output_bytes, "count")
    metrics["cli.main.failed"] = (
        (failed if workload == "eval_window" else 0) + len(plan.probes) - probe_outcomes.count("ok"),
        "count",
    )
    imports = [import_probe() for _ in range(IMPORT_PROBES)]
    metrics["import.fibrec_s"] = (statistics.median(i.get("fibrec", 0.0) for i in imports), "s")
    metrics["import.requests_s"] = (statistics.median(i.get("requests", 0.0) for i in imports), "s")
    rates = {True: [], False: []}
    for c in chunks:
        rates[c.traced].append(len(c.latencies) / sum(t / slowdown(seg) for t, seg in c.latencies))
    metrics["trace.overhead_ratio"] = (
        statistics.median(rates[True]) / statistics.median(rates[False]), "ratio"
    )
    report["metrics"] = metrics
    tracer.dump(os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl"))
    return report


def describe(op, result) -> str:
    """The op and what it returned, briefly; results may be too long to print."""
    outcome = repr(result) if isinstance(result, Exception) else type(result).__name__
    return f"{op.kind} {repr(op.args)[:200]} -> {outcome[:200]}"


def print_report(workload: str, report: dict) -> None:
    print(f"workload {workload}: attempted {report['attempted']} failed {report['failed']} "
          f"latency samples {report['samples']}")
    probes = report["probes"]
    if sum(probes.values()):
        print(f"  digit-limit probe windows: {probes['ok']} ok, {probes['limit']} failed at the "
              f"int-to-str limit, {probes['wrong']} wrong")
    sympy = {True: "agrees", False: "DISAGREES", None: "not installed, skipped"}[report["sympy"]]
    print(f"  reference F(n) spot check against sympy.fibonacci: {sympy}")
    p10, p90 = report["calibration"]
    print(f"  calibration job: 10th..90th percentile {p10 * 1e3:.1f}..{p90 * 1e3:.1f} ms "
          f"against {CALIBRATION_SECONDS * 1e3:.0f} ms")
    print(f"  {'fail_ratio':28s} {report['fail_ratio']:.6g} ratio")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if "wall_clock" in report:
        print("  the same, in unscaled wall-clock time:")
        for name, (value, unit) in report["wall_clock"].items():
            print(f"    {name:26s} {value:.6g} {unit}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, as the per-workload runs do."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fibrec", "__init__.py")):
        print("error: src/fibrec not found; run from the root of a fibrec checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import fibrec

    if not os.path.abspath(fibrec.__file__).startswith(SRC + os.sep):
        print(f"error: imported fibrec from {fibrec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, report)
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
