"""Shared driver that runs every CLI subcommand into a work directory with a
fixed configuration and returns the artifact bytes."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

SUITE_CONFIG = {
    "epsilon": 1,
    "n_max": 128,
    "k_max": 256,
    "seed": 11,
    "lambdas": {"3": 1.5},
    "random_lambdas": {"seed": 11},
    "r": 2.0,
}


def run_full_suite(workdir, hash_seed):
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    cfg = os.path.join(workdir, "config.json")
    with open(cfg, "w") as fh:
        json.dump(SUITE_CONFIG, fh)
    elems = os.path.join(workdir, "elems.txt")
    with open(elems, "w") as fh:
        fh.write("2ij\n1-ij\n3-3ij\n1+i\n")

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "mql", *args],
            env=env, cwd=workdir, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (args, proc.stderr)

    run("decompose", "--in", elems, "--out", "decompose.jsonl")
    run("cp-enum", "5", "--divisibility", "1-ij", "--out", "cp5.json")
    run("synth", "--config", cfg, "--out", "source.json")
    run("lift", "--config", cfg, "--backend", "numeric", "--source", "source.json",
        "--out", "table.json")
    run("lift", "--config", cfg, "--backend", "formal", "--out", "formal.json")
    run("invert", "--table", "table.json", "--nmax", "32", "--out", "cvalues.json")
    run("check-maass", "--table", "table.json", "--out", "maass.json")
    run("invert", "--table", "formal.json", "--out", "formal_cvalues.json")
    run("check-maass", "--table", "formal.json", "--out", "formal_maass.json")
    run("hecke", "--table", "table.json", "--primes", "3", "--out", "eigen.json")
    run("satake", "--config", cfg, "--out-csv", "satake.csv", "--out", "satake.json")
    run("stability", "--config", cfg, "--out", "stability.json")
    run("adjoint", "--out", "adjoint.json")
    artifacts = sorted(
        f for f in os.listdir(workdir)
        if f.endswith((".json", ".jsonl", ".csv")) and f != "config.json"
    )
    return {f: open(os.path.join(workdir, f), "rb").read() for f in artifacts}
