"""One benchmark worker: a fresh interpreter that sets up one workload and runs
its jobs in a closed loop, one at a time.

    python3 bench/worker.py --workload NAME --seed N --size full|tiny --state DIR
        (--setup-only | --seconds S | --jobs J [--trace])

The last line of standard output is a JSON object with the monotonic clock
reading at the end of set-up (``ready``), the wall time, item count, problems
and artifact digests of every job, and, when traced, the per-layer metrics.
Artifacts go to a temporary directory under the state directory, removed on
exit.

With ``--seconds``, the worker also times the set-up of a fresh set-up-only
worker after every job, while it waits for it.  The host's speed drifts over
seconds; set-up samples spread over the run see the same mix of fast and slow
spells as the jobs do.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS  # imports the engine, as part of set-up

# Peak RSS is read after this many jobs, so it does not depend on how many
# jobs a run fits in: lattice-sweep's caches grow with every new norm.
RSS_JOBS = 2


def _ready_clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup_probe(args) -> float:
    """Spawn a set-up-only worker and return its set-up time in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--state", args.state,
           "--setup-only"]
    spawned = _ready_clock()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=60).stdout
    return json.loads(out.decode().splitlines()[-1])["ready"] - spawned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--state", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--jobs", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="worker-", dir=args.state)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size)
        job = workload.inputs(0, workdir)
        ready = _ready_clock()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(_run_jobs(workload, job, workdir, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _run_jobs(workload, first_job, workdir, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    job_s, setup_s, problems, digests = [], [], {}, {}
    rss_kb, rss_jobs = None, RSS_JOBS
    clock = time.perf_counter
    start = clock()
    i, job = 0, first_job
    while True:
        if tracer:
            tracer.begin_job(i)
        t0 = clock()
        out = workload.run(job)
        job_s.append(clock() - t0)
        if tracer:
            tracer.end_job()
        found = workload.check(job, out)
        if found:
            problems[i] = found
        digests[i] = workload.digests(job, out)
        if args.seconds is not None:
            t_probe = clock()
            setup_s.append(_setup_probe(args))
            start += clock() - t_probe  # --seconds counts jobs and checks only
        i += 1
        if i == RSS_JOBS:
            rss_kb = _peak_rss_kb()
        if (args.jobs is not None and i >= args.jobs) or (
            args.seconds is not None and clock() - start >= args.seconds
        ):
            break
        job = workload.inputs(i, workdir)
    if rss_kb is None:
        rss_kb, rss_jobs = _peak_rss_kb(), i
    result = {
        "job_s": job_s,
        "setup_probes_s": setup_s,
        "items_per_job": workload.items_per_job,
        "rss_kb": rss_kb,
        "rss_after_jobs": rss_jobs,
        "problems": problems,
        "digests": digests,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(args.state, f"spans-{args.workload}.csv.gz"))
    elif args.seconds is not None:
        # Run the first job again on warm caches: its artifacts must not change.
        job = workload.inputs(0, workdir)
        again = workload.digests(job, workload.run(job))
        if again != digests[0]:
            problems.setdefault(0, []).append("artifacts changed when the job was repeated")
    return result


if __name__ == "__main__":
    sys.exit(main())
