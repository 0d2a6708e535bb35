"""Seeded inputs, jobs and correctness checks for the three benchmark workloads.

Every input a job sees is derived from ``(workload, seed, job index)``, so the
same seed gives the same jobs in every run and jobs within one run are
distinct.  A job returns its outputs; ``check`` inspects them afterwards,
outside the timed region, and returns a list of problems (empty when the job
is correct).

Engine calls go through module attributes (``Q.decompose``, ``cli.main``) at
call time, so the tracer in ``tracer.py`` sees them when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import mql.cli as cli
import mql.hecke as H
import mql.lift as L
import mql.quaternion as Q
import mql.spectral as S

# Input sizes.  "full" is what the benchmark measures; "tiny" is for the smoke
# test and runs each job in well under a second.
SIZES = {
    "full": {
        "lift_k_max": 8192,
        "hecke_k_max": 8748,
        "lattice_norms_per_job": 8,
        "lattice_elements_per_norm": 500,
        "lattice_norms": (102, 398),
        "lattice_primes": (101, 800),
        "eigen_k_max": 4096,
    },
    "tiny": {
        "lift_k_max": 256,
        "hecke_k_max": 324,
        "lattice_norms_per_job": 4,
        "lattice_elements_per_norm": 30,
        "lattice_norms": (6, 58),
        "lattice_primes": (11, 60),
        "eigen_k_max": 4096,
    },
}

EIGEN_PRIMES = (3, 5, 7, 11, 13)
DIVISIBILITY_PRIMES = (3, 5, 7)
LAMBDA_RANGE = (-1.9, 1.9)


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _odd_primes(lo: int, hi: int) -> list:
    return [
        p for p in range(max(lo, 3), hi + 1)
        if p % 2 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))
    ]


def _sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class LiftRoundtrip:
    """synth -> lift (both backends) -> check-maass, invert (both tables) ->
    satake --table, all through ``mql.cli.main``.  Item: one table index."""

    name = "lift-roundtrip"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.k_max = SIZES[size]["lift_k_max"]
        self.items_per_job = 2 * len(L.valid_indices(self.k_max))

    def inputs(self, i: int, workdir: str) -> dict:
        rng = _rng(self.name, self.seed, i)
        epsilon = 1 if (self.seed + i) % 2 == 0 else -1
        lambdas = {str(p): rng.uniform(*LAMBDA_RANGE) for p in _odd_primes(3, 13)}
        cfg = {
            "epsilon": epsilon,
            "k_max": self.k_max,
            "n_max": self.k_max // 2,
            "lambdas": lambdas,
            "random_lambdas": {"seed": rng.randrange(2**31), "range": list(LAMBDA_RANGE)},
        }
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        f = lambda name: os.path.join(workdir, name)  # noqa: E731
        argvs = [
            ["synth", "--config", path, "--out", f("source.json")],
            ["lift", "--config", path, "--backend", "numeric",
             "--source", f("source.json"), "--out", f("numeric.json")],
            ["lift", "--config", path, "--backend", "formal", "--out", f("formal.json")],
            ["check-maass", "--table", f("numeric.json"), "--out", f("maass_numeric.json")],
            ["check-maass", "--table", f("formal.json"), "--out", f("maass_formal.json")],
            ["invert", "--table", f("numeric.json"), "--out", f("invert_numeric.json")],
            ["invert", "--table", f("formal.json"), "--out", f("invert_formal.json")],
            ["satake", "--config", path, "--table", f("numeric.json"),
             "--out", f("satake.json"), "--out-csv", f("satake.csv")],
        ]
        artifacts = [
            f(n) for n in (
                "source.json", "numeric.json", "formal.json", "maass_numeric.json",
                "maass_formal.json", "invert_numeric.json", "invert_formal.json",
                "satake.json", "satake.csv",
            )
        ]
        return {"argvs": argvs, "artifacts": artifacts}

    def run(self, job: dict) -> list:
        return [cli.main(argv) for argv in job["argvs"]]

    def check(self, job: dict, codes: list) -> list:
        problems = [
            f"{argv[0]} exited {rc}" for argv, rc in zip(job["argvs"], codes) if rc != 0
        ]
        if problems:
            return problems
        art = {os.path.basename(p): p for p in job["artifacts"]}
        for name in ("maass_numeric.json", "maass_formal.json"):
            if _load(art[name])["pass"] is not True:
                problems.append(f"{name} does not pass")
        n_max = self.k_max // 2
        formal = _load(art["invert_formal.json"])["values"]
        wrong = [N for N in range(1, n_max + 1) if formal.get(str(N)) != {str(N): "1"}]
        if wrong or len(formal) != n_max:
            problems.append(f"formal invert is not C(N) at N={wrong[:5]}")
        source = _load(art["source.json"])["values"]
        numeric = _load(art["invert_numeric.json"])["values"]
        bad = [
            N for N in range(1, n_max + 1)
            if not abs(numeric[str(N)] - source[str(N)]) <= 1e-9 * max(1.0, abs(source[str(N)]))
        ]
        if bad:
            problems.append(f"numeric invert differs from synth at N={bad[:5]}")
        if _load(art["satake.json"]).get("cn_relations", {}).get("pass") is not True:
            problems.append("satake cn_relations do not pass")
        return problems

    def digests(self, job: dict, codes: list) -> dict:
        return {os.path.basename(p): _sha256(p) for p in job["artifacts"]}


class HeckeImages:
    """``mql stability`` on a fresh random Maass table: T2/H2/H3/H4 images at
    p = 3 over every index.  Item: one image index."""

    name = "hecke-images"
    PRIME = 3  # the stability command's default odd prime

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.k_max = SIZES[size]["hecke_k_max"]
        growth = [
            H.HeckeOperator(kind, 2 if kind == "T2" else self.PRIME).norm_growth
            for kind in H.KINDS
        ]
        self.items_per_job = sum(len(L.valid_indices(self.k_max // g)) for g in growth)

    def inputs(self, i: int, workdir: str) -> dict:
        table_seed = _rng(self.name, self.seed, i).randrange(2**31)
        epsilon = 1 if (self.seed + i) % 2 == 0 else -1
        out = os.path.join(workdir, "stability.json")
        argv = ["stability", "--kmax", str(self.k_max), "--seed", str(table_seed),
                "--epsilon", str(epsilon), "--out", out]
        return {"argv": argv, "artifact": out}

    def run(self, job: dict) -> int:
        return cli.main(job["argv"])

    def check(self, job: dict, code: int) -> list:
        if code != 0:
            return [f"stability exited {code}"]
        reports = _load(job["artifact"])["reports"]
        kinds = [r["kind"] for r in reports]
        if sorted(kinds) != sorted(H.KINDS):
            return [f"stability reported kinds {kinds}"]
        return [f"{r['kind']} image is not stable" for r in reports if r["pass"] is not True]

    def digests(self, job: dict, code: int) -> dict:
        return {"stability.json": _sha256(job["artifact"])}


class LatticeSweep:
    """Sparse quaternion and Hecke work with cold caches: decompositions and
    divisibility counts over a few norms, unit classes at two large primes and
    eigenvalue extraction at one small prime.  Item: one lattice element."""

    name = "lattice-sweep"

    def __init__(self, seed: int, size: str):
        sz = SIZES[size]
        self.seed = seed
        self.norms_per_job = sz["lattice_norms_per_job"]
        self.per_norm = sz["lattice_elements_per_norm"]
        self.items_per_job = self.norms_per_job * self.per_norm
        rng = _rng(self.name, self.seed, "setup")
        # Norms divisible by p**3 for a divisibility prime p make
        # divisibility_counts run its p^2 product sweep, at 4-7x the cost per
        # element.  Every job takes one of them and the rest from the other
        # norms, so that jobs of every seed do the same mix of work.
        lo, hi = sz["lattice_norms"]
        norms = [m for m in range(lo, hi + 1) if m % 4 == 2]
        self.sweep_norms = [m for m in norms if any(m % p**3 == 0 for p in DIVISIBILITY_PRIMES)]
        self.plain_norms = [m for m in norms if m not in self.sweep_norms]
        rng.shuffle(self.sweep_norms)
        rng.shuffle(self.plain_norms)
        # Pair small primes with large ones so that each job's unit-class work
        # is about the same; the pairs are then taken in seeded order.
        primes = _odd_primes(*sz["lattice_primes"])
        self.prime_pairs = [(primes[j], primes[-1 - j]) for j in range(len(primes) // 2)]
        rng.shuffle(self.prime_pairs)
        # The eigenform table is set-up: built once, read by every job.
        k_max = sz["eigen_k_max"]
        self.epsilon = rng.choice((1, -1))
        self.lambdas = {p: rng.uniform(*LAMBDA_RANGE) for p in _odd_primes(3, k_max // 2)}
        form = S.synth_eigenform(self.epsilon, self.lambdas, k_max // 2)
        self.table = L.build_lift_table(form.source_form(), k_max)

    def _take(self, pool: list, pos: int) -> tuple:
        """(m, element positions) for the pos-th draw from a norm pool.

        Norms are drawn in seeded order, so jobs see distinct norms until the
        pool runs out; each later pass over the pool shifts the evenly spaced
        positions by one.  The element count 24 * sigma(odd part of m) comes
        from the formula, not from the engine, so set-up leaves the engine
        caches cold.
        """
        m = pool[pos % len(pool)]
        size = 24 * _sigma(_odd_part(m))
        shift = pos // len(pool)
        return m, [((k * size) // self.per_norm + shift) % size for k in range(self.per_norm)]

    def inputs(self, i: int, workdir: str) -> dict:
        n_plain = self.norms_per_job - (1 if self.sweep_norms else 0)
        norms = [self._take(self.plain_norms, i * n_plain + j) for j in range(n_plain)]
        if self.sweep_norms:
            norms.append(self._take(self.sweep_norms, i))
        return {
            "norms": norms,
            "primes": self.prime_pairs[i % len(self.prime_pairs)],
            "eigen_prime": _rng(self.name, self.seed, i).choice(EIGEN_PRIMES),
        }

    def run(self, job: dict) -> dict:
        elements, norm_sizes = [], {}
        for m, positions in job["norms"]:
            els = Q.elements_of_norm(m)
            norm_sizes[m] = len(els)
            for q in (els[k] for k in positions):
                idx = Q.decompose(q)[0]
                back = Q.decompose(Q.representative(idx))[0]
                counts = None
                if q.is_primitive():
                    counts = [tuple(Q.divisibility_counts(q, p)) for p in DIVISIBILITY_PRIMES]
                elements.append((m, q.dc, tuple(idx), tuple(back), counts))
        classes = {p: [r.dc for r in Q.unit_class_reps(p)] for p in job["primes"]}
        p = job["eigen_prime"]
        report = H.verify_eigen_relations(self.table, [p])[0]
        lam = H.extract_lambda(self.table, p)
        satake = S.ramanujan_violation_check(S.satake_from_lambda(p, lam))
        return {
            "elements": elements,
            "norm_sizes": norm_sizes,
            "classes": classes,
            "eigen": {"prime": p, "pass": report.passed, "lambda": lam, "satake": satake},
        }

    def check(self, job: dict, out: dict) -> list:
        problems = []
        for m, size in out["norm_sizes"].items():
            if size != 24 * _sigma(_odd_part(m)):
                problems.append(f"elements_of_norm({m}) has {size} elements")
        for m, q, idx, back, counts in out["elements"]:
            if back != idx:
                problems.append(f"decompose(representative({idx})) = {back}")
            if idx[0] != m or idx[1] != 0:
                problems.append(f"norm-{m} element {q} decomposed to {idx}")
            if counts is not None:
                want = [(1, 1) if m % p == 0 else (0, 0) for p in DIVISIBILITY_PRIMES]
                if counts != want:
                    problems.append(f"divisibility counts of {q}: {counts} != {want}")
        for p, reps in out["classes"].items():
            if len(reps) != p + 1:
                problems.append(f"unit_class_reps({p}) has {len(reps)} classes")
        eig = out["eigen"]
        p = eig["prime"]
        if not eig["pass"]:
            problems.append(f"eigen relations fail at p={p}")
        if not abs(eig["lambda"] - self.lambdas[p]) <= 1e-9:
            problems.append(f"extracted lambda {eig['lambda']} != seeded {self.lambdas[p]}")
        if eig["satake"]["violated"] is not True or not abs(eig["satake"]["alpha_sum"]) <= 1e-9:
            problems.append(f"satake report at p={p} is wrong: {eig['satake']}")
        return problems

    def digests(self, job: dict, out: dict) -> dict:
        text = json.dumps(out, sort_keys=True)
        return {"results.json": hashlib.sha256(text.encode()).hexdigest()}


WORKLOADS = {w.name: w for w in (LiftRoundtrip, HeckeImages, LatticeSweep)}
