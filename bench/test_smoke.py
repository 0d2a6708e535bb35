"""Smoke test for the benchmark: every workload at tiny sizes, untraced and
traced, emits each metric BENCHMARK.json declares, with its unit, and fails
no job.

    python3 -m pytest bench/test_smoke.py

It lives outside the test suite's ``testpaths`` so the suite stays fast.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lift-roundtrip", "hecke-images", "lattice-sweep")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "# fail_ratio = 0.0 ratio (0/%d jobs)" % result["attempted"] in lines
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_engine():
    """In a directory holding only BENCHMARK.json and bench/, run.py exits
    nonzero without printing a result."""
    os.makedirs(os.path.join(ROOT, ".bench_state"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_state"))
    try:
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "hecke-images", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
