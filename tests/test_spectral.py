"""Synthetic eigenforms, Satake parameters, the temperedness bound, local
descriptors, and the source-coefficient recursions."""

import cmath
import math
import random

import pytest

from mql.lift import SourceForm, build_lift_table, random_maass_table
from mql.quaternion import CanonicalIndex
from mql.hecke import extract_lambda, verify_eigen_relations
from mql.spectral import (
    MODULUS_READING_NOTE,
    MissingLambdaError,
    RAMANUJAN_BOUND,
    SatakeParams,
    ramanujan_violation_check,
    satake_csv_rows,
    satake_from_lambda,
    sigma_descriptor,
    synth_eigenform,
    verify_cn_relations,
)


def all_lambdas(extra, n_max, seed=99):
    rng = random.Random(seed)
    lams = {}
    p = 3
    while p <= n_max:
        if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)):
            lams[p] = rng.uniform(-2, 2)
        p += 2
    lams.update(extra)
    return lams


# ------------------------------------------------------- synthetic eigenform

def test_synth_frozen_values():
    form = synth_eigenform(1, {3: 1.5, 5: 0.0, 7: 0.0}, 9)
    c = form.coefficients
    assert c[1] == 1.0
    assert c[2] == pytest.approx(-0.5)
    assert c[3] == pytest.approx(1.5 / math.sqrt(3))
    assert c[9] == pytest.approx((1.5 ** 2 - 1.0) / 3.0)
    minus = synth_eigenform(-1, {3: 1.5}, 4)
    assert minus.coefficients[2] == pytest.approx(0.5)


def test_synth_missing_lambda():
    with pytest.raises(MissingLambdaError, match="prime 5"):
        synth_eigenform(1, {3: 1.0}, 5)


def test_synth_satisfies_hecke_relation_everywhere():
    n_max = 600
    lams = all_lambdas({}, n_max)
    form = synth_eigenform(1, lams, n_max)
    c = form.coefficients
    for p, lam in lams.items():
        sq = math.sqrt(p)
        for N in range(1, n_max // p + 1):
            lhs = sq * c[p * N] + (c[N // p] / sq if N % p == 0 else 0.0)
            assert lhs == pytest.approx(lam * c[N], rel=1e-10, abs=1e-12)


def test_synth_doubling_everywhere():
    form = synth_eigenform(-1, all_lambdas({}, 200), 200)
    c = form.coefficients
    for N in range(1, 101):
        assert c[2 * N] == pytest.approx(0.5 * c[N], abs=1e-15)


# ------------------------------------------------------------------- Satake

def test_satake_frozen_values():
    params = satake_from_lambda(3, 2.0)
    assert params.chi[0] == pytest.approx(math.sqrt(3))
    assert params.chi[1] == pytest.approx(math.sqrt(3))
    params = satake_from_lambda(3, 0.0)
    assert params.chi[0] == pytest.approx(1j * math.sqrt(3))
    assert params.chi[1] == pytest.approx(-1j * math.sqrt(3))
    for lam in (-3.0, -1.2, 0.4, 2.0, 5.0):
        p = satake_from_lambda(7, lam)
        assert p.chi[0] * p.chi[1] == pytest.approx(7.0)


def test_satake_invariants_random():
    rng = random.Random(50)
    for _ in range(1000):
        p = rng.choice([3, 5, 7, 11, 13])
        lam = rng.uniform(-10, 10)
        params = satake_from_lambda(p, lam)
        res = params.invariant_residuals()
        assert all(v <= 1e-12 * max(1.0, p) for v in res.values()), res


def test_satake_weyl_branch_swap():
    # negating the square root branch permutes the pair of characters at each
    # level and leaves the verdict unchanged
    for lam in (-1.5, 0.0, 0.9, 1.99):
        p = 5
        params = satake_from_lambda(p, lam)
        s = cmath.sqrt(complex(lam * lam - 4.0))
        rp, rm = (lam - s) / 2.0, (lam + s) / 2.0  # swapped branch
        sq = math.sqrt(p)
        swapped = SatakeParams(p, lam, (sq * rp, sq * rm, rp / sq, rm / sq))
        orig = sorted((c.real, c.imag) for c in params.chi)
        swap = sorted((c.real, c.imag) for c in swapped.chi)
        assert orig == pytest.approx(swap)
        assert (
            ramanujan_violation_check(params)["violated"]
            == ramanujan_violation_check(swapped)["violated"]
        )


def test_violation_frozen_case():
    rep = ramanujan_violation_check(satake_from_lambda(5, 2.0))
    assert rep["exponents"] == pytest.approx([0.5, 0.5, -0.5, -0.5])
    assert rep["violated"] is True
    assert rep["bound"] == pytest.approx(0.5 - 1.0 / 17.0)
    assert rep["note"] == MODULUS_READING_NOTE


def test_violation_sweep_tempered_range():
    rng = random.Random(51)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        lam = rng.uniform(-2, 2)
        rep = ramanujan_violation_check(satake_from_lambda(p, lam))
        assert abs(rep["max_abs_exponent"] - 0.5) <= 1e-12
        assert rep["violated"]
        assert abs(rep["alpha_sum"]) <= 1e-10
        assert rep["max_abs_exponent"] > RAMANUJAN_BOUND


def test_hypothetical_tempered_tuple_not_violated():
    fake = SatakeParams(3, 0.0, (1 + 0j, -1 + 0j, 1j, -1j))
    assert ramanujan_violation_check(fake)["violated"] is False


# -------------------------------------------------------------- descriptors

def test_descriptors():
    d = sigma_descriptor(2, epsilon=1)
    assert d.shape == "twisted-steinberg" and d.value == -1
    d = sigma_descriptor(3, lambda_p=2.0)
    assert d.shape == "unramified-principal-series" and d.value == pytest.approx(1.0)
    d = sigma_descriptor("inf", r=2.0)
    assert d.shape == "archimedean-principal-series" and d.value == pytest.approx(1j)
    for place in (4, 9, 15):
        with pytest.raises(ValueError):
            sigma_descriptor(place, lambda_p=1.0)
    with pytest.raises(ValueError):
        sigma_descriptor(2)
    with pytest.raises(ValueError):
        sigma_descriptor("inf")


# -------------------------------------------------- extracted-coefficient laws

def test_cn_relations_on_random_maass_table():
    t = random_maass_table(1, seed=60, k_max=512)
    rep = verify_cn_relations(t)
    assert rep["pass"]
    assert rep["doubling"]["max_rel_err"] == 0.0


def test_cn_relations_on_formal_lift():
    rep = verify_cn_relations(build_lift_table(SourceForm(1), 128))
    assert rep["pass"]


def test_cn_relations_hecke_on_lift():
    lams = all_lambdas({3: 1.5}, 128)
    form = synth_eigenform(1, lams, 128)
    t = build_lift_table(form.source_form(), 256)
    rep = verify_cn_relations(t, {3: 1.5})
    assert rep["pass"]
    assert rep["hecke"]["3"]["max_rel_err"] <= 1e-8


def test_cn_relations_flags_generic_table():
    t = random_maass_table(1, seed=61, k_max=256)
    rep = verify_cn_relations(t, {3: 0.77})
    assert not rep["pass"]
    assert rep["hecke"]["3"]["failures"]
    assert rep["doubling"]["max_rel_err"] == 0.0  # doubling still exact


def test_cn_relations_flag_nan_coefficient():
    t = build_lift_table(SourceForm(1, {m: 0.5 for m in range(1, 65)}), 128)
    t.entries[CanonicalIndex(10, 0, 1)] = float("nan")  # enters c(-5)
    rep = verify_cn_relations(t)
    assert not rep["pass"]
    assert 5 in rep["doubling"]["failures"]


@pytest.mark.parametrize(
    "make, lambdas, message",
    [
        (lambda: random_maass_table(1, seed=61, k_max=3), {3: 1.5}, "table bound 3 is below 4"),
        (lambda: build_lift_table(SourceForm(1), 16), {3: 1.5}, "lambdas at [3] need a numeric"),
        (lambda: random_maass_table(1, seed=61, k_max=64), {3: 1.0, 37: 2.0},
         "lambdas prime 37 exceeds k_max // 2 = 32"),
    ],
    ids=["bound-below-4", "formal-table", "prime-above-bound"],
)
def test_cn_relations_that_would_check_nothing_raise(make, lambdas, message):
    with pytest.raises(ValueError) as info:
        verify_cn_relations(make(), lambdas)
    assert message in str(info.value)


# ------------------------------------------------------------- end-to-end

def test_full_pipeline_loop():
    n_max = 512
    lams = all_lambdas({}, n_max, seed=123)
    form = synth_eigenform(1, lams, n_max)
    table = build_lift_table(form.source_form(), 2 * n_max)
    for p in (3, 5, 7):
        assert extract_lambda(table, p) == pytest.approx(lams[p], abs=1e-8)
    reports = verify_eigen_relations(table, (2, 3, 5, 7))
    assert all(r.passed for r in reports)
    for p in (3, 5, 7):
        rep = ramanujan_violation_check(satake_from_lambda(p, lams[p]))
        assert rep["violated"]


def test_csv_rows_shape():
    pairs = []
    for p in (3, 5):
        params = satake_from_lambda(p, 1.0)
        pairs.append((ramanujan_violation_check(params), params))
    rows = satake_csv_rows(pairs)
    assert rows[0][0] == "p" and rows[0][-1] == "violated"
    assert len(rows) == 3 and all(len(r) == 11 for r in rows)
