"""The scripts under scripts/ use the public API, which no other test runs them against."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "args",
    [("family_bounds.py",), ("closed_bound_check.py", "30", "1"), ("closed_bound_check.py", "--worst-case", "10")],
    ids=["family-bounds", "closed-bound-random", "closed-bound-worst-case"],
)
def test_script_runs(args):
    result = run_script(*args)
    assert result.returncode == 0, result.stderr
    if args[0] == "closed_bound_check.py":
        nodes_line = r"solver nodes: total \d+, max \d+ at BoundProblem\(p=\d+, p0=\d+, n=\([\d, ]+\)\)"
        assert any(re.fullmatch(nodes_line, line) for line in result.stdout.splitlines())
    if "--worst-case" in args:
        for line in ("first_bound violations: 0", "second_bound violations: 0", "second_bound below first_bound: 0"):
            assert line in result.stdout.splitlines()


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_closed_bound_check_fails_on_a_violation(monkeypatch, capsys):
    script = load_script("closed_bound_check")
    real = script.second_bound
    # the bound for a much larger n1 exceeds r0_min
    monkeypatch.setattr(script, "second_bound", lambda p0, n1, np0: real(p0, n1 + 1000, np0))
    monkeypatch.setattr(sys, "argv", ["closed_bound_check.py", "20", "0"])
    assert script.main() == 1
    assert "second_bound violations: 0" not in capsys.readouterr().out


def test_bench_pair_runs_at_its_smallest_size(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0:
        pytest.skip("bench_pair.py compares git revisions; this is not a git checkout")
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True, text=True).stdout
    out = tmp_path / "BENCH_test.json"
    result = run_script("bench_pair.py", "HEAD", "--workloads", "solve", "--seeds", "1", "--seconds", "0.2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    assert (record["pairs"], record["workloads"]["solve"]["failed"]) == (1, {"base": 0, "head": 0})
    assert all(record[side]["src.lines"] > 0 for side in ("base", "head"))
    m = record["workloads"]["solve"]["metrics"]["cases_per_s"]
    assert m["head_wins"] in (0, 1) and m["base"]["q1"] == m["base"]["median"] == m["base"]["q3"] > 0
    # the compared revision is exported, so the script leaves no worktree behind
    assert subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True, text=True).stdout == worktrees


def test_bench_pair_seeds_make_one_pair_each():
    parse_seeds = load_script("bench_pair").parse_seeds
    assert parse_seeds("3") == [3]
    assert parse_seeds("1,4,9") == [1, 4, 9]
    assert parse_seeds("101-103,7") == [101, 102, 103, 7]
    assert parse_seeds("5-5") == [5]
    # an empty or reversed range would run no pair, a repeated seed the same pair twice
    for text in ("", "5-3", "1,1", "1-3,2", "1,,2", "3-", "a", "1-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_seeds(text)


def test_bench_pair_workloads_run_once_each():
    parse_workloads = load_script("bench_pair").parse_workloads
    assert parse_workloads("bound") == ["bound"]
    assert parse_workloads("bound,decompose,solve") == ["bound", "decompose", "solve"]
    # a repeated workload would run every seed twice per side while the record still counts one pair per seed
    for text in ("bound,bound", "solve,bound,solve", "", "bound,", "fast"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_workloads(text)
