"""Benchmark runner for the mql engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout.  NAME is one of lift-roundtrip, hecke-images,
lattice-sweep, or ``all`` to run the three in turn.  Load is closed loop with
one client: a fresh worker interpreter (bench/worker.py) runs one job after
another, so the engine's caches start empty as they do for a CLI user.

``--trace 0`` measures the end-to-end metrics for S seconds; ``--trace 1``
runs a fixed number of jobs untraced and then the same jobs traced, and
reports the per-layer metrics plus the tracing overhead.  Every job's outputs
are checked, and artifact digests are compared across runs of the same seed
through a ledger in ``.bench_state/``.  Comment lines (``#``) describe the
host, the work and every metric by name with its unit; the last line of
standard output is the JSON result.  The exit code is 0 only when a result was
produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("lift-roundtrip", "hecke-images", "lattice-sweep")

TRACE_JOBS = 3  # jobs per phase in a traced run
DEADLINE_S = 170.0  # a workload's run must end well within 180 s


class BenchError(Exception):
    pass


def _units(root: str, trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, root: str, size: str):
        self.root = root
        self.size = size
        self.state = os.path.join(root, ".bench_state")
        self.deadline = 0.0
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=os.path.join(self.state, "pycache"),
        )

    def worker(self, workload: str, seed: int, *mode: str) -> dict:
        """Run one worker to completion; its result plus set-up time."""
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--size", self.size,
            "--state", self.state, *mode,
        ]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        # A process group of its own, so that a kill also stops the set-up probes
        # the worker spawns.
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {workload} did not finish in time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} exited {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError(f"worker for {workload} printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def _check_ledger(self, workload: str, seed: int, digests: dict, problems: dict):
        """Record a problem for every job whose artifact digests differ from
        an earlier run of the same seed; new digests join the ledger."""
        path = os.path.join(self.state, "digests.json")
        try:
            with open(path, encoding="utf-8") as fh:
                ledger = json.load(fh)
        except FileNotFoundError:
            ledger = {}
        for job, digest in digests.items():
            key = f"{workload}:{self.size}:{seed}:{job}"
            if ledger.setdefault(key, digest) != digest:
                problems.setdefault(job, []).append("artifacts differ from an earlier run")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, sort_keys=True)
        os.replace(tmp, path)

    def measure(self, workload: str, seed: int, seconds: float) -> tuple:
        self.worker(workload, seed, "--setup-only")  # warm the bytecode cache
        res = self.worker(workload, seed, "--seconds", str(seconds))
        setups = [res["setup_s"], *res["setup_probes_s"]]
        job_s = res["job_s"]
        problems = res["problems"]
        self._check_ledger(workload, seed, res["digests"], problems)
        metrics = {
            "job_ms.p50": statistics.median(job_s) * 1e3,
            "items_per_s": res["items_per_job"] * len(job_s) / sum(job_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["rss_kb"] / 1024.0,
        }
        notes = (f"jobs={len(job_s)} items_per_job={res['items_per_job']} "
                 f"setup_samples={len(setups)} rss_after_jobs={res['rss_after_jobs']}")
        return metrics, len(job_s), problems, notes

    def trace(self, workload: str, seed: int) -> tuple:
        self.worker(workload, seed, "--setup-only")
        plain = self.worker(workload, seed, "--jobs", str(TRACE_JOBS))
        traced = self.worker(workload, seed, "--jobs", str(TRACE_JOBS), "--trace")
        problems = plain["problems"]
        for job, found in traced["problems"].items():
            problems.setdefault(job, []).extend(found)
        for job, digest in plain["digests"].items():
            if traced["digests"].get(job) != digest:
                problems.setdefault(job, []).append("artifacts differ when traced")
        self._check_ledger(workload, seed, plain["digests"], problems)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_ratio"] = sum(traced["job_s"]) / sum(plain["job_s"])
        notes = f"traced_jobs={TRACE_JOBS} items_per_job={traced['items_per_job']}"
        # Each job ran twice; problems are keyed by job, so it counts once.
        return metrics, TRACE_JOBS, problems, notes


def run_one(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner.deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, attempted, problems, notes = runner.trace(workload, seed)
    else:
        metrics, attempted, problems, notes = runner.measure(workload, seed, seconds)
    units = _units(runner.root, trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(f"# workload={workload} seed={seed} size={runner.size} trace={int(trace)} {notes}")
    for job, found in sorted(problems.items(), key=lambda kv: int(kv[0])):
        for problem in found:
            print(f"# FAIL job {job}: {problem}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]} {units[name]}")
    failed = len(problems)
    print(f"# fail_ratio = {failed / attempted} ratio ({failed}/{attempted} jobs)")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(metrics)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mql", "__init__.py")):
        print("error: run from the root of an mql checkout (src/mql is missing)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.size)
    print(f"# host nproc={os.cpu_count()} python={platform.python_version()} "
          f"cpu={_cpu_model()!r}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_one(runner, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
