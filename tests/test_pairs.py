"""The summary rule and the ``--out`` record of ``tools/pairs.py``, with
its benchmark runs replaced by a stub."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_use_the_inclusive_method():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_wins_nine_pairs_and_beats_the_spread():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [p + 10.0 for p in parent]
    change[3] = 95.0  # one lost pair of ten
    s = pairs.summarize(parent, change, "higher", 0.2)
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["verdict"] == "gain"
    assert s["parent"]["median"] == 100.0 and s["change"]["median"] == 110.0
    assert s["spread"] == s["parent"]["q3"] - s["parent"]["q1"] == 101.0 - 99.25


def test_lower_is_better_turns_the_comparison_round():
    parent = [10.0, 11.0, 10.5, 10.2]
    change = [8.0, 8.5, 8.2, 8.1]
    assert pairs.summarize(parent, change, "lower", 0.2)["verdict"] == "gain"
    assert pairs.summarize(change, parent, "lower", 0.2)["verdict"] == "worse"


def test_eight_wins_of_ten_is_no_gain():
    parent = [100.0] * 10
    change = [120.0] * 8 + [100.0, 90.0]
    s = pairs.summarize(parent, change, "higher", 0.2)
    assert (s["wins"], s["losses"]) == (8, 1)
    assert s["verdict"] == "same"


def test_a_win_inside_the_parent_spread_is_no_gain():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0]
    change = [p + 1.0 for p in parent]
    s = pairs.summarize(parent, change, "higher", 0.5)
    assert s["wins"] == 5 and s["verdict"] == "same"


def test_worse_beyond_the_bound_and_unresolved_spread():
    assert pairs.summarize([100.0] * 4, [70.0] * 4, "higher", 0.2)["verdict"] == "worse"
    assert pairs.summarize([100.0] * 4, [85.0] * 4, "higher", 0.2)["verdict"] == "same"
    wide = [50.0, 150.0, 60.0, 140.0]
    assert pairs.summarize(wide, [95.0] * 4, "higher", 0.2)["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    s = pairs.summarize([10.0, 10.5, 10.0], [10.0, 10.5, 10.0], "higher", 0.1)
    assert (s["wins"], s["losses"], s["verdict"]) == (0, 0, "same")


@pytest.mark.parametrize("parent, change, better", [
    ([], [], "higher"),
    ([1.0], [1.0, 2.0], "higher"),
    ([1.0], [1.0], "faster"),
])
def test_bad_input_raises(parent, change, better):
    with pytest.raises(ValueError):
        pairs.summarize(parent, change, better, 0.1)


def test_out_writes_the_summary_with_every_run(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    spec = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
            {"name": "op_p50_ms", "better": "lower", "bound": 0.2}]
    for d in (parent, change):
        (d / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec}))
    calls = []

    def fake_run_bench(checkout, workload, seconds, seed):
        calls.append((checkout.name, workload, seconds, seed))
        k = len(calls)
        fast = checkout == change
        return {"ops_per_s": 100.0 + k + (20.0 if fast else 0.0), "op_p50_ms": 5.0 - fast}

    monkeypatch.setattr(pairs, "run_bench", fake_run_bench)
    monkeypatch.setattr(pairs, "commit_of", lambda checkout: f"sha-{checkout.name}")
    out = tmp_path / "BENCH_test.json"
    argv = [str(parent), str(change), "--workload", "cli", "--seconds", "2", "--pairs", "3",
            "--seed", "4"]
    assert pairs.main(argv + ["--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"workload", "seconds", "seed", "metrics"}
    assert (last["workload"], last["seconds"], last["seed"]) == ("cli", 2.0, 4)
    # Pairs alternate which side goes first.
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())
    assert {k: record[k] for k in last} == last
    assert record["python"] == sys.version
    assert record["env"] == pairs.BYTECODE_ENV
    assert record["commits"] == {"parent": "sha-parent", "change": "sha-change"}
    assert record["runs"]["parent"] == [
        {"ops_per_s": 101.0, "op_p50_ms": 5.0},
        {"ops_per_s": 104.0, "op_p50_ms": 5.0},
        {"ops_per_s": 105.0, "op_p50_ms": 5.0},
    ]
    assert [r["ops_per_s"] for r in record["runs"]["change"]] == [122.0, 123.0, 126.0]
    assert last["metrics"]["ops_per_s"]["wins"] == 3
    assert last["metrics"]["op_p50_ms"]["verdict"] == "gain"

    # Without --out the last line is the same and no file is written.
    calls.clear()
    out.unlink()
    assert pairs.main(argv) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == last
    assert not out.exists()


def test_commit_of_outside_a_checkout_is_none(tmp_path):
    assert pairs.commit_of(tmp_path) is None


def test_each_run_writes_no_bytecode_and_reads_it_where_python_keeps_it(tmp_path, monkeypatch):
    seen = []
    result = {"correct": True, "failed": 0, "metrics": {"ops_per_s": {"value": 5.0}}}

    def fake_run(cmd, *, cwd, capture_output, text, env):
        seen.append((cmd, cwd, env))
        return subprocess.CompletedProcess(cmd, 0, "log line\n" + json.dumps(result) + "\n", "")

    monkeypatch.setenv("PAIRS_TEST_MARK", "kept")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "elsewhere"))
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.run_bench(tmp_path, "sweep3", 1.5, 7) == {"ops_per_s": 5.0}
    ((cmd, cwd, env),) = seen
    assert cmd[1:] == ["bench/run.py", "--workload", "sweep3", "--seconds", "1.5", "--seed", "7"]
    assert cwd == tmp_path
    assert pairs.BYTECODE_ENV == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["PAIRS_TEST_MARK"] == "kept"
    assert "PYTHONPYCACHEPREFIX" not in env


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_holding_pycache_is_refused_before_any_run(tmp_path, monkeypatch, capsys,
                                                              side):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    (tmp_path / side / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(pairs, "run_bench", lambda *args: pytest.fail("a run started"))
    assert pairs.main([str(parent), str(change), "--workload", "cli", "--pairs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert str(tmp_path / side / "src" / "pkg" / "__pycache__") in err


def _checkouts(tmp_path):
    """Two checkouts holding the same BENCHMARK.json and bench/ files."""
    sides = tmp_path / "parent", tmp_path / "change"
    for d in sides:
        (d / "bench").mkdir(parents=True)
        (d / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        (d / "bench" / "run.py").write_text("print('run')\n")
        (d / "bench" / "workloads.py").write_text("WORKLOADS = []\n")
    return sides


def test_identical_benchmark_files_differ_nowhere(tmp_path):
    parent, change = _checkouts(tmp_path)
    (parent / "src").mkdir()
    (parent / "src" / "code.py").write_text("the code under test may differ\n")
    assert pairs.first_difference(parent, change) is None


@pytest.mark.parametrize("edit, named", [
    (lambda p, c: (c / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
    (lambda p, c: (p / "BENCHMARK.json").unlink(), "BENCHMARK.json"),
    (lambda p, c: (c / "bench" / "workloads.py").write_text("WORKLOADS = [1]\n"),
     "bench/workloads.py"),
    (lambda p, c: (p / "bench" / "calib.py").write_text("\n"), "bench/calib.py"),
    (lambda p, c: ((c / "bench" / "run.py").write_text(""),
                   (c / "bench" / "workloads.py").write_text("")), "bench/run.py"),
])
def test_the_first_differing_benchmark_file_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, edit, named):
    parent, change = _checkouts(tmp_path)
    edit(parent, change)
    assert pairs.first_difference(parent, change) == named
    monkeypatch.setattr(pairs, "run_bench", lambda *args: pytest.fail("a run started"))
    assert pairs.main([str(parent), str(change), "--workload", "cli", "--pairs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"pairs: {named} differs between {parent} and {change}")
