"""Smoke test of the benchmark: tiny op lists of every workload, checked and traced.

It keeps the harness from rotting: each workload must run, pass its
reference checks, and report exactly the metrics BENCHMARK.json lists.
"""

import json
import os

import pytest

import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {
    "eval_window": {"mix": ((20, 2), (200, 1))},
    "derive_check": {"per_chunk": 3},
    "synth_solve": {"per_chunk": 3, "theorems": 1},
}


def declared(kind):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def tiny_run(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    report = run.measure(workload, seed=7, seconds=0, trace=trace, **TINY[workload])
    assert report["correct"]
    assert report["failed"] == 0
    assert report["attempted"] >= 2
    assert report["probes"]["wrong"] == 0
    metrics = {name: unit for name, (_, unit) in report["metrics"].items()}
    assert metrics == declared("per_layer" if trace else "end_to_end")
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, tmp_path, monkeypatch):
    report = tiny_run(workload, False, tmp_path, monkeypatch)
    assert all(value > 0 for value, _ in report["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path, monkeypatch):
    # the tracer wraps every layer whatever the workload; eval_window also
    # exercises the CLI counters and the digit-limit probes
    report = tiny_run("eval_window", True, tmp_path, monkeypatch)
    metrics = {name: value for name, (value, _) in report["metrics"].items()}
    assert metrics["cli.main.calls"] > 0 and metrics["fib.fib.calls"] > 0
    assert metrics["cli.main.failed"] == report["probes"]["limit"]
    assert list(tmp_path.glob("*-spans.jsonl"))
