"""scripts/bench_record.py on canned benchmark result lines; no benchmark runs."""

import importlib.util
import json
import pathlib
import platform
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # bench_record imports bench_pairs from beside it
spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def canned(metrics: dict, failed=0):
    """A run's stdout: a report line, then the result object as the last line."""
    doc = {"correct": not failed, "attempted": 50, "failed": failed,
           "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return f"workload w: attempted 50 failed {failed}\n" + json.dumps(doc) + "\n"


def record(tmp_path, capsys, run, **kwargs):
    """bench_record.main over a checkout whose BENCHMARK.json lists a and b."""
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "a"}, {"name": "b"}]}))
    out = tmp_path / "BENCH_9.json"
    args = ["--out", str(out), "--checkout", str(tmp_path)]
    assert bench_record.main(args, run=run, **kwargs) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    return json.loads(out.read_text())


def test_every_workload_runs_over_the_seed_range(tmp_path, capsys):
    calls = []

    def run(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        base = {"a": 100, "b": 10}[workload]
        metrics = {"ops_per_s": (base + seed, "ops/s"), "op_p50_ms": (1.0 / (base + seed), "ms")}
        return canned(metrics, failed=int(workload == "b" and seed == 8))

    doc = record(tmp_path, capsys, run, seeds=range(7, 11))
    assert calls == [(str(tmp_path), w, s) for w in "ab" for s in range(7, 11)]
    assert doc["seeds"] == [7, 8, 9, 10]
    assert doc["python"] == platform.python_version()
    assert doc["git_sha"] is None  # no git checkout
    a, b = doc["workloads"]["a"], doc["workloads"]["b"]
    assert a["metrics"]["ops_per_s"] == {"unit": "ops/s", "median": 108.5, "q1": 107.25,
                                         "q3": 109.75, "values": [107, 108, 109, 110]}
    assert list(a["metrics"]) == ["ops_per_s", "op_p50_ms"]
    assert b["metrics"]["ops_per_s"]["values"] == [17, 18, 19, 20]
    assert (a["correct"], a["attempted"], a["failed"]) == (True, 200, 0)
    assert (b["correct"], b["attempted"], b["failed"]) == (False, 200, 1)


def test_the_seeds_are_1_to_5_and_the_checkout_is_recorded(tmp_path, capsys):
    seeds = []

    def run(checkout, workload, seed):
        seeds.append(seed)
        return canned({"ops_per_s": (float(seed), "ops/s")})

    doc = record(tmp_path, capsys, run)
    assert doc["seeds"] == [1, 2, 3, 4, 5] and seeds == [1, 2, 3, 4, 5] * 2
    sha = bench_record.git_sha(str(SCRIPTS.parent))
    assert sha is None or len(sha) == 40  # None where the tests run outside git
