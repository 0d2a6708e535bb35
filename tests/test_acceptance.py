"""End-to-end verification battery.

Each test here covers one exit criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  The battery is ordered: exact combinatorics first, then the exact
formal identities, then the floating-point spectral pipeline, and finally the
byte-level determinism of the command-line surface.
"""

import math
import random
from fractions import Fraction

import pytest

from mql.formal import FormalCoefficient
from mql.hecke import (
    HeckeOperator,
    apply,
    adjoint_matrix_identities,
    extract_lambda,
    stability_check,
    verify_eigen_relations,
)
from mql.lift import (
    CoefficientTable,
    SourceForm,
    build_lift_table,
    check_maass,
    random_maass_table,
    source_coefficient,
    valid_indices,
)
from mql.quaternion import (
    CanonicalIndex,
    decompose,
    divisibility_counts,
    elements_of_norm,
    unit_class_reps,
    units,
)
from mql.spectral import (
    RAMANUJAN_BOUND,
    ramanujan_violation_check,
    satake_from_lambda,
    synth_eigenform,
)

SQRT2 = math.sqrt(2.0)


def report(ok: bool, label: str):
    print(f"{'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def odd_primes_up_to(n):
    out = []
    p = 3
    while p <= n:
        if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)):
            out.append(p)
        p += 2
    return out


@pytest.fixture(scope="module")
def eigen_setup():
    """Synthetic eigenform with randomized tempered eigenvalues, lifted."""
    rng = random.Random(20260808)
    n_max = 2048
    lams = {p: rng.uniform(-2.0, 2.0) for p in odd_primes_up_to(n_max)}
    form = synth_eigenform(1, lams, n_max)
    table = build_lift_table(form.source_form(), 4096)
    return table, lams


# 1 ------------------------------------------------------------------------

def test_class_counts():
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19):
        reps = unit_class_reps(p)
        elems = set(elements_of_norm(p))
        us = units()
        orbits = [set(r * u for u in us) for r in reps]
        covered = set().union(*orbits)
        ok = ok and len(reps) == p + 1
        ok = ok and all(len(o) == 24 for o in orbits)
        ok = ok and covered == elems and len(elems) == 24 * (p + 1)
    report(ok, "norm-p unit classes: p+1 classes of size 24 covering all "
               "24(p+1) elements, p up to 19")


# 2 ------------------------------------------------------------------------

def test_divisibility_counts_exhaustive():
    checked = 0
    ok = True
    for m in range(2, 201, 4):
        for beta in elements_of_norm(m):
            if not beta.is_primitive():
                continue
            for p in (3, 5, 7):
                expected = 1 if m % p == 0 else 0
                counts = divisibility_counts(beta, p)  # raises if p^2 divides
                ok = ok and counts == (expected, expected)
            checked += 1
    ok = ok and checked > 10_000
    report(ok, f"divisibility counts over all {checked} primitive elements of "
               "norm <= 200 at p in {3,5,7}, squares never dividing")


# 3 ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def formal_tables():
    return {eps: build_lift_table(SourceForm(eps), 2048) for eps in (1, -1)}


def test_inverse_recovers_source_symbols(formal_tables):
    ok = True
    for eps, table in formal_tables.items():
        for N in range(1, 1025):
            if source_coefficient(table, N) != FormalCoefficient.symbol(N):
                ok = False
                break
    report(ok, "inverse extraction returns the exact source symbol for every "
               "N <= 1024 on formal lifts with bound 2048, both signs")


# 4 ------------------------------------------------------------------------

def test_lift_satisfies_both_recurrences(formal_tables):
    ok = True
    for eps, table in formal_tables.items():
        rep = check_maass(table)
        ok = ok and rep.passed and rep.indices_checked > 800
    report(ok, "formal lifts satisfy the odd recurrence exactly and the dyadic "
               "recurrence exactly after even-symbol reduction, both signs")


# 5 ------------------------------------------------------------------------

def test_eigenvalue_relations(eigen_setup):
    table, lams = eigen_setup
    ok = True
    for rep in verify_eigen_relations(table, (3, 5, 7, 11, 13), tolerance=1e-8):
        lam = lams[rep.prime]
        p = rep.prime
        ok = ok and rep.passed and rep.indices_checked >= 10
        ok = ok and abs(rep.mu["H2"] - p * (p + 1) * lam) <= 1e-8 * max(1, abs(rep.mu["H2"]))
        ok = ok and abs(rep.mu["H4"] - p * (p + 1) * lam) <= 1e-8 * max(1, abs(rep.mu["H4"]))
        expected3 = p * p * lam * lam + p ** 3 + p
        ok = ok and abs(rep.mu["H3"] - expected3) <= 1e-8 * max(1, abs(expected3))
    t2 = verify_eigen_relations(table, (2,), tolerance=1e-10)[0]
    ok = ok and t2.passed and abs(t2.mu["T2"] + 3 * SQRT2) <= 1e-10 * 3 * SQRT2
    report(ok, "operator eigenvalues match p(p+1)lambda and "
               "p^2 lambda^2 + p^3 + p at p in {3,5,7,11,13} (1e-8), and "
               "-3 sqrt(2) at the even place (1e-10)")


# 6 ------------------------------------------------------------------------

def test_lambda_recovery(eigen_setup):
    table, lams = eigen_setup
    ok = True
    for p in (3, 5, 7, 11, 13):
        lam = extract_lambda(table, p, tolerance=1e-9)
        ok = ok and abs(lam - lams[p]) <= 1e-8
    report(ok, "eigenvalue recovery from >= 3 mutually consistent (1e-9) base "
               "indices, each within 1e-8 of the input")


# 7 ------------------------------------------------------------------------

def test_representative_independence(eigen_setup):
    table, _ = eigen_setup
    groups = {}
    for m in range(2, 61, 2):
        for q in elements_of_norm(m):
            if q.in_dual_lattice():
                groups.setdefault(decompose(q)[0], []).append(q)
    operators = [HeckeOperator("T2", 2)] + [
        HeckeOperator(kind, 3) for kind in ("H2", "H3", "H4")
    ]
    tested = 0
    ok = True
    for idx, betas in sorted(groups.items()):
        if len(betas) < 2 or 9 * idx.K > table.k_max:
            continue
        picks = [betas[0], betas[-1], betas[len(betas) // 2]]
        for op in operators:
            vals = [apply(op, table, idx, beta=b) for b in picks]
            spread = max(vals) - min(vals)
            if spread > 1e-10 * max(1.0, max(abs(v) for v in vals)):
                ok = False
        tested += 1
        if tested >= 25:
            break
    ok = ok and tested >= 20
    report(ok, f"all four operators agree to 1e-10 across distinct "
               f"representatives at {tested} indices")


# 8 ------------------------------------------------------------------------

def test_hecke_stability():
    ok = True
    shift_shapes_seen = set()
    for seed in range(10):
        eps = 1 if seed % 2 == 0 else -1
        table = random_maass_table(eps, seed=seed, k_max=4374)
        for kind, p in (("T2", 2), ("H2", 3), ("H3", 3), ("H4", 3)):
            rep = stability_check(HeckeOperator(kind, p), table, tolerance=1e-8)
            ok = ok and rep.passed
            for row in rep.shift_checks:
                if row["m"] > 2 * row["l"] + 1 and row["m"] <= 5:
                    shift_shapes_seen.add((row["m"], row["l"]))
                    ok = ok and row["rel_err"] <= 1e-8
    ok = ok and {(4, 1), (5, 1)} <= shift_shapes_seen
    report(ok, "10 seeded Maass-space tables: every Hecke image passes both "
               "recurrences at 1e-8 and the p-power shift identity holds for "
               "m in {4,5}, l=1")


# 9 ------------------------------------------------------------------------

def test_temperedness_violation_sweep():
    rng = random.Random(909)
    ok = True
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        lam = rng.uniform(-2.0, 2.0)
        rep = ramanujan_violation_check(satake_from_lambda(p, lam))
        ok = ok and abs(rep["max_abs_exponent"] - 0.5) <= 1e-12
        ok = ok and rep["violated"] and rep["max_abs_exponent"] > RAMANUJAN_BOUND
        ok = ok and abs(rep["alpha_sum"]) <= 1e-10
    report(ok, "1000 random tempered eigenvalues at p in {3,5,7}: largest "
               "character exponent is 1/2 to 1e-12, above the bound "
               "1/2 - 1/17; branch exponents cancel to 1e-10")


# 10 -----------------------------------------------------------------------

def test_adjoint_identities():
    rep = adjoint_matrix_identities((3, 5))
    ok = rep.passed and len(rep.checks) == 7
    report(ok, "adjoint double-coset identities exact over the rationals at "
               "p in {3,5} and in doubled coordinates at the even place")


# 11 -----------------------------------------------------------------------

def test_even_eigenform_equivalence():
    k_max = 512
    table = random_maass_table(1, seed=77, k_max=k_max)
    op = HeckeOperator("T2", 2)
    ok = check_maass(table).passed
    scalar = -3 * SQRT2
    worst = 0.0
    for idx in table.indices():
        if 2 * idx.K > k_max:
            continue
        a_in = float(table.value_at(*idx)) * math.sqrt(idx.K)
        if abs(a_in) < 1e-9:
            continue
        worst = max(worst, abs(apply(op, table, idx) / a_in - scalar))
    ok = ok and worst <= 1e-8 * abs(scalar)

    # deleting the dyadic recurrence from the construction must break the
    # eigenproperty: keep the odd recurrence, free all depth-u generators
    rng = random.Random(78)
    entries = {}
    for idx in valid_indices(k_max):
        K, u, n = idx
        if n == 1:
            entries[idx] = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        else:
            total = Fraction(0)
            for d in range(1, n + 1, 2):
                if n % d == 0:
                    total += entries[CanonicalIndex(K // (d * d), u, 1)]
            entries[idx] = total
    broken = CoefficientTable(1, k_max, entries, "numeric")
    rep = check_maass(broken)
    ok = ok and rep.dyadic_failures and not rep.divisor_sum_failures
    deviation = 0.0
    for idx in broken.indices():
        if 2 * idx.K > k_max:
            continue
        a_in = float(broken.value_at(*idx)) * math.sqrt(idx.K)
        if abs(a_in) < 1e-9:
            continue
        deviation = max(deviation, abs(apply(op, broken, idx) / a_in - scalar))
    ok = ok and deviation > 1e-3
    report(ok, "dyadic recurrence holds iff the even operator acts by "
               "-3 sqrt(2) epsilon (both directions)")


# 12 -----------------------------------------------------------------------

def test_cli_determinism(tmp_path):
    from cli_driver import run_full_suite

    a = run_full_suite(str(tmp_path / "run_a"), "0")
    b = run_full_suite(str(tmp_path / "run_b"), "31337")
    ok = a.keys() == b.keys() and all(a[k] == b[k] for k in a) and len(a) >= 10
    report(ok, "two runs of the full command-line suite produce byte-identical "
               "artifacts")
