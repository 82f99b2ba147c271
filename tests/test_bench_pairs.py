"""scripts/bench_pairs.py on canned benchmark result lines; no benchmark runs."""

import importlib.util
import json
import pathlib
import shutil

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "values_per_s", "unit": "values/s", "better": "higher", "bound": 0.25},
]


def canned(ops, p50, failed=0):
    """A run's stdout: report lines, then the result object as the last line."""
    doc = {"correct": not failed, "attempted": 100, "failed": failed,
           "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                       "op_p50_ms": {"value": p50, "unit": "ms"}}}
    report = f"workload w: attempted 100 failed {failed}\n  ops_per_s {ops} ops/s\n"
    return report + json.dumps(doc) + "\n"


def run_pairs(tmp_path, capsys, figures, pairs=10):
    """bench_pairs.main over figures[side][i] = (ops, p50); returns (calls, table rows)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def run(checkout, workload, seed):
        side = pathlib.Path(checkout).name
        calls.append((side, workload, seed))
        return canned(*figures[side][seed - 40])

    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", str(pairs), "--seed", "40"]
    assert bench_pairs.main(argv, run=run) == 0
    lines = capsys.readouterr().out.splitlines()
    return calls, {line.split()[0]: line.split() for line in lines[-2:]}


def test_pairs_alternate_and_a_clear_gain_holds(tmp_path, capsys):
    parent = [(100 + i, 1.0 + i / 100) for i in range(10)]  # quartiles 101.75..107.25
    change = [(120 + i, 0.8 + i / 100) for i in range(10)]
    calls, rows = run_pairs(tmp_path, capsys, {"parent": parent, "change": change})
    # the parent goes first in even pairs, the change in odd ones, seed by seed
    assert calls == [(side, "w", 40 + i) for i in range(10)
                     for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert rows["ops_per_s"] == ["ops_per_s", "ops/s", "104.5", "124.5", "+19.1%",
                                 "101.8..107.2", "10/10", "holds", "ok"]
    assert rows["op_p50_ms"][-3:] == ["10/10", "holds", "ok"]
    assert "values_per_s" not in rows  # not reported by the runs


def test_the_gain_rule_needs_nine_tenths_and_a_gap_past_the_quartiles(tmp_path, capsys):
    parent = [(100 + i, 1.0) for i in range(10)]
    # ops: wins only 8 of 10 pairs, though its median is far ahead
    # p50: wins every pair, and any gap is wider than the parent's spread of 0
    change = [(200, 0.99)] * 8 + [(50, 0.99)] * 2
    _, rows = run_pairs(tmp_path, capsys, {"parent": parent, "change": change})
    assert rows["ops_per_s"][-3:] == ["8/10", "fails", "ok"]
    assert rows["op_p50_ms"][-3:] == ["10/10", "holds", "ok"]
    assert bench_pairs.summary("x", "higher", 1, [1, 2, 3, 4], [1, 2, 3, 4])["won"] == 0  # ties
    wide = bench_pairs.summary("x", "lower", 1, [1.0, 1.1, 1.5, 2.0], [0.9, 1.0, 1.4, 1.9])
    assert (wide["won"], wide["gain"]) == (4, False)  # the medians differ by 0.1, the IQR is 0.75



def test_the_no_regression_verdict_reads_each_metric_s_bound(tmp_path, capsys):
    parent = [(100 + i, 1.0) for i in range(10)]  # ops: median 104.5, quartiles 5.5 apart
    # ops: a median of 70 is 33% below the parent's, past the bound of 0.25;
    # p50: a median of 1.2 is 20% above the parent's, inside it
    change = [(70, 1.2)] * 10
    _, rows = run_pairs(tmp_path, capsys, {"parent": parent, "change": change})
    assert rows["ops_per_s"][-3:] == ["0/10", "fails", "worse"]
    assert rows["op_p50_ms"][-3:] == ["0/10", "fails", "ok"]
    verdict = lambda better, bound, parent, change: bench_pairs.summary(
        "x", better, bound, parent, change)["regression"]
    assert verdict("higher", 0.25, [100] * 4, [75] * 4) == "ok"  # worse by the bound exactly
    assert verdict("higher", 0.25, [100] * 4, [74.9] * 4) == "worse"
    assert verdict("lower", 0.1, [100] * 4, [110] * 4) == "ok"
    assert verdict("lower", 0.1, [100] * 4, [110.1] * 4) == "worse"
    # quartiles 0.625..1.875 lie 1.25 apart, past 0.25 times the median of 1.25: the
    # parent's own runs cannot tell a move of the bound, unless every run of the
    # change beats every run of the parent
    wide = [0.5, 1.0, 1.5, 2.0]
    for change in ([9.0] * 4, [0.4, 0.4, 0.4, 0.5], [0.1, 0.1, 0.1, 1.9]):
        assert verdict("lower", 0.25, wide, change) == "unresolved"
    assert verdict("lower", 0.25, wide, [0.1, 0.2, 0.3, 0.4]) == "ok"
    assert verdict("higher", 0.25, wide, [2.1] * 4) == "ok"


def run_canned(tmp_path, figures):
    """bench_pairs.main's exit status over two pairs, seeds 0 and 1, whose runs print
    canned(*figures[side][seed]), or figures[side][seed] itself where it is text."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "2", "--seed", "0"]

    def run(checkout, workload, seed):
        got = figures[pathlib.Path(checkout).name][seed]
        return got if isinstance(got, str) else canned(*got)

    return bench_pairs.main(argv, run=run)


def test_failed_runs_are_printed(tmp_path, capsys):
    figures = {"parent": [(100, 1.0, 0)] * 2, "change": [(100, 1.0, 3), (100, 1.0, 0)]}
    assert run_canned(tmp_path, figures) == 1
    out = capsys.readouterr().out
    assert "seed 0 change: correct False, failed 3 of 100" in out
    assert "w: 2 pairs, seeds 0..1; parent failed 0 ops, change failed 3 ops" in out
    assert "incorrect answers: seed 0 change\n" in out
    assert "the change failed 1.50% of its operations, the parent 0.00%" in out


def test_a_parent_that_fails_more_fails_only_for_its_incorrect_runs(tmp_path, capsys):
    figures = {"parent": [(100, 1.0, 0), (100, 1.0, 4)], "change": [(100, 1.0, 2)] * 2}
    assert run_canned(tmp_path, figures) == 1
    out = capsys.readouterr().out
    assert "incorrect answers: seed 1 parent, seed 0 change, seed 1 change" in out
    assert "of its operations" not in out  # 2% against the parent's 2%


def test_a_run_without_a_result_line_is_named(tmp_path, capsys):
    figures = {"parent": [(100, 1.0, 0)] * 2, "change": [(100, 1.0, 0), ""]}
    assert run_canned(tmp_path, figures) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "seed 1 change: the run printed no result line"
    assert bench_pairs.result("workload w: attempted 100\nTraceback\n") is None


def test_one_pair_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "1"])


def test_each_checkout_imports_from_its_own_fresh_bytecode_directory(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs: (
        calls.append(kwargs) or type("Done", (), {"stdout": "out"})()))
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # would keep the directory empty
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    bench_pairs.pycache_prefix.cache_clear()
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    for checkout, seed in ((parent, 1), (change, 1), (parent, 2), (change, 2)):
        assert bench_pairs.run_bench(checkout, "w", seed) == "out"
    prefixes = [kwargs["env"]["PYTHONPYCACHEPREFIX"] for kwargs in calls]
    assert prefixes[0] == prefixes[2] != prefixes[1] == prefixes[3]
    assert all(pathlib.Path(p).is_dir() and not any(pathlib.Path(p).iterdir()) for p in prefixes)
    assert [kwargs["cwd"] for kwargs in calls] == [parent, change, parent, change]
    passed = dict(bench_pairs.os.environ)
    del passed["PYTHONDONTWRITEBYTECODE"]
    for kwargs in calls:  # the rest of the environment passes through unchanged
        env = dict(kwargs["env"])
        assert "PYTHONDONTWRITEBYTECODE" not in env
        del env["PYTHONPYCACHEPREFIX"]
        assert env == passed
    for p in set(prefixes):  # as the exit handler does
        shutil.rmtree(p)
    bench_pairs.pycache_prefix.cache_clear()
