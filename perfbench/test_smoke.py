"""Smoke test of the benchmark at tiny input sizes.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced (all three from one command) and traced, for
about a second at a small fraction of its input size, and each result
line is checked against BENCHMARK.json. A last case copies only
BENCHMARK.json and the benchmark's own files into a bare directory and
checks that the benchmark refuses to run there.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def results(stdout):
    """The result lines: JSON objects that carry the four result keys."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return [r for r in lines if set(r) == {"correct", "attempted", "failed", "metrics"}]


def check_result(result, declared):
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_one_command_runs_every_workload():
    done = run_bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--scale", "0.03")
    assert done.returncode == 0, done.stderr
    found = results(done.stdout)
    assert len(found) == len(SPEC["workloads"])
    for result in found:
        check_result(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert results(done.stdout.strip().splitlines()[-1]) == found[-1:]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--scale", "0.03")
    assert done.returncode == 0, done.stderr
    found = results(done.stdout)
    assert len(found) == 1 and results(done.stdout.strip().splitlines()[-1]) == found
    check_result(found[0], SPEC["per_layer"])


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, "--workload", "decode", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
