"""Lift tables, the inverse extraction, the recurrence checker, and
Maass-space table construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mql.formal import FormalCoefficient, evaluate, reduce_eigen2
from mql.lift import (
    SourceForm,
    TableBoundsError,
    build_lift_table,
    check_maass,
    dyadic_depth,
    lift_coefficient,
    random_maass_table,
    source_coefficient,
    table_from_json_dict,
    table_to_json_dict,
    valid_indices,
)
from mql.quaternion import CanonicalIndex, decompose, elements_of_norm, is_valid_index

C = FormalCoefficient.symbol


# ------------------------------------------------------------------ indexing

def test_valid_indices_small():
    assert valid_indices(4) == [(2, 0, 1), (4, 1, 1)]
    assert valid_indices(1) == []
    got = valid_indices(20)
    assert CanonicalIndex(18, 0, 3) in got
    assert CanonicalIndex(16, 3, 1) in got
    assert all(is_valid_index(*i) for i in got)
    assert got == sorted(got)


def test_valid_indices_complete():
    # every index that decomposition can produce for K <= 60 appears
    seen = set()
    for m in range(2, 61):
        for q in elements_of_norm(m):
            if q.in_dual_lattice():
                seen.add(decompose(q)[0])
    assert seen == set(valid_indices(60))
    # and for every bound up to 600 the list is the is_valid_index filter
    full = sorted(
        CanonicalIndex(K, u, n)
        for K in range(601)
        for u in range(10)
        for n in range(1, 26, 2)
        if is_valid_index(K, u, n)
    )
    for k_max in range(601):
        assert valid_indices(k_max) == [i for i in full if i.K <= k_max]


# ---------------------------------------------------------------------- lift

def test_lift_coefficient_examples():
    assert lift_coefficient((2, 0, 1), 1) == C(1)
    assert lift_coefficient((4, 1, 1), 1) == C(2) - C(1)
    assert lift_coefficient((18, 0, 3), 1) == C(9) + C(1)
    assert lift_coefficient((4, 1, 1), -1) == C(2) + C(1)


def test_lift_coefficient_rejects_invalid():
    with pytest.raises(ValueError):
        lift_coefficient((4, 0, 1), 1)
    with pytest.raises(ValueError):
        lift_coefficient((2, 0, 1), 0)
    with pytest.raises(ValueError):
        SourceForm(0, {1: 1.0})


def test_build_lift_table_small():
    t = build_lift_table(SourceForm(1), 4)
    assert t.indices() == [(2, 0, 1), (4, 1, 1)]
    assert t.backend == "formal"
    num = build_lift_table(SourceForm(1, {1: 1.0, 2: -0.5}), 4)
    assert float(num.value_at(4, 1, 1)) == pytest.approx(-1.5)
    assert build_lift_table(SourceForm(1), 1).entries == {}


def test_lift_depends_only_on_index():
    # direct evaluation at several representatives of one index agrees with
    # the table entry
    rng = random.Random(20)
    values = {m: rng.uniform(-2, 2) for m in range(1, 31)}
    table = build_lift_table(SourceForm(1, values), 60)
    for m in (18, 36, 50):
        for q in elements_of_norm(m):
            if not q.in_dual_lattice():
                continue
            idx, _ = decompose(q)
            direct = evaluate(lift_coefficient(idx, 1), values)
            assert float(table.value_at(*idx)) == pytest.approx(direct, rel=1e-12)


def test_value_at_conventions():
    t = build_lift_table(SourceForm(1), 8)
    assert t.value_at(2, -1, 1) == FormalCoefficient.zero()
    assert t.value_at(4, 0, 1) == FormalCoefficient.zero()  # invalid index
    with pytest.raises(TableBoundsError):
        t.value_at(10, 0, 1)


# ------------------------------------------------------------------- inverse

def test_dyadic_depth():
    assert dyadic_depth(1) == 0
    assert dyadic_depth(2) == 1
    assert dyadic_depth(8) == 3
    assert dyadic_depth(3) == 0
    assert dyadic_depth(4) == 2
    assert dyadic_depth(48) == 4  # 48 = 4^2 * 3
    for N in range(1, 500):
        a, b = 0, N
        while b % 4 == 0:
            a += 1
            b //= 4
        assert dyadic_depth(N) == (2 * a if b % 4 in (1, 3) else 2 * a + 1)


def test_source_coefficient_formal_roundtrip():
    for eps in (1, -1):
        t = build_lift_table(SourceForm(eps), 128)
        for N in range(1, 65):
            assert source_coefficient(t, N) == C(N)


def test_source_coefficient_bounds():
    t = build_lift_table(SourceForm(1), 64)
    with pytest.raises(TableBoundsError):
        source_coefficient(t, 33)


# ------------------------------------------------------------------ checking

def test_lifted_table_passes_check():
    for eps in (1, -1):
        t = build_lift_table(SourceForm(eps), 512)
        rep = check_maass(t)
        assert rep.passed
        assert not rep.dyadic_failures and not rep.divisor_sum_failures


def test_check_maass_names_injected_fault():
    t = build_lift_table(SourceForm(1), 256)
    victim = CanonicalIndex(36, 1, 3)
    t.entries[victim] = t.entries[victim] + C(1)
    rep = check_maass(t)
    assert not rep.passed
    # expected failing checks: scan each index's references independently
    expect_dyadic, expect_divisor = set(), set()
    for idx in t.indices():
        K, u, n = idx
        if n > 1:
            refs = {idx} | {CanonicalIndex(K // (d * d), u, 1) for d in range(1, n + 1, 2) if n % d == 0}
            if victim in refs:
                expect_divisor.add(idx)
        if u >= 1:
            refs = {idx, CanonicalIndex(K // 2, u - 1, n)}
            if u >= 2:
                refs.add(CanonicalIndex(K // 4, u - 2, n))
            if victim in {r for r in refs if is_valid_index(*r)}:
                expect_dyadic.add(idx)
    assert set(rep.dyadic_failures) == expect_dyadic
    assert set(rep.divisor_sum_failures) == expect_divisor


def test_numeric_check_tolerance():
    rng = random.Random(21)
    values = {m: rng.uniform(-2, 2) for m in range(1, 129)}
    # generic numeric source: odd recurrence holds, dyadic fails
    t = build_lift_table(SourceForm(1, values), 256)
    rep = check_maass(t, tolerance=1e-10)
    assert not rep.divisor_sum_failures
    assert rep.dyadic_failures


def test_check_maass_flags_nan_entry():
    t = build_lift_table(SourceForm(1, {m: 0.5 for m in range(1, 33)}), 64)
    t.entries[CanonicalIndex(8, 2, 1)] = float("nan")
    rep = check_maass(t)
    assert not rep.passed
    assert CanonicalIndex(8, 2, 1) in rep.dyadic_failures


# ------------------------------------------------- Maass-space constructions

def test_generator_extension_example():
    # eps = -1 and C(1) = 1 give C(2) = (-eps/2) C(1) = 1/2, so the exact
    # lift reads a(4, 1, 1) = C(2) + C(1) = 3/2
    source = {1: 1, 2: Fraction(1, 2), 3: 0, 4: Fraction(1, 4)}
    t = build_lift_table(SourceForm(-1, source), 8)
    assert all(type(v) is Fraction for v in t.entries.values())
    assert t.value_at(4, 1, 1) == Fraction(3, 2)
    assert t.value_at(2, 0, 1) == 1


def test_random_maass_table_passes_exactly():
    for eps in (1, -1):
        t = random_maass_table(eps, seed=9, k_max=512)
        rep = check_maass(t)
        assert rep.passed and rep.max_rel_err == 0.0


def test_random_maass_table_deterministic():
    a = random_maass_table(1, seed=5, k_max=128)
    b = random_maass_table(1, seed=5, k_max=128)
    assert a.entries == b.entries
    c = random_maass_table(1, seed=6, k_max=128)
    assert a.entries != c.entries


def test_lift_is_linear():
    rng = random.Random(22)
    v1 = {m: rng.uniform(-2, 2) for m in range(1, 65)}
    v2 = {m: rng.uniform(-2, 2) for m in range(1, 65)}
    s, t = 0.75, -2.0
    combo = {m: s * v1[m] + t * v2[m] for m in v1}
    t1 = build_lift_table(SourceForm(1, v1), 128)
    t2 = build_lift_table(SourceForm(1, v2), 128)
    tc = build_lift_table(SourceForm(1, combo), 128)
    for idx in tc.indices():
        direct = s * float(t1.value_at(*idx)) + t * float(t2.value_at(*idx))
        assert float(tc.value_at(*idx)) == pytest.approx(direct, rel=1e-10, abs=1e-12)


@settings(deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, -1]), st.integers(2, 1024))
def test_reconstruction_from_extracted_coefficients(seed, eps, k_max):
    # lift(invert(T)) == T exactly on a Maass-space table: the extracted
    # source coefficients rebuild every entry through the exact lift, and
    # through the lift sum written out by hand
    t = random_maass_table(eps, seed=seed, k_max=k_max)
    cvals = {N: source_coefficient(t, N) for N in range(1, k_max // 2 + 1)}
    assert build_lift_table(SourceForm(eps, cvals), k_max).entries == t.entries
    for idx in t.indices():
        K, u, n = idx
        total = Fraction(0)
        for tt in range(u + 1):
            for d in range(1, n + 1, 2):
                if n % d:
                    continue
                total += Fraction((-t.epsilon) ** tt) * cvals[K // ((1 << (tt + 1)) * d * d)]
        assert total == t.entries[idx]


# -------------------------------------------------------------- serialization

def test_table_json_roundtrip():
    tf = build_lift_table(SourceForm(-1), 64)
    obj = table_to_json_dict(tf)
    back = table_from_json_dict(obj)
    assert back.entries == tf.entries
    assert back.epsilon == -1 and back.k_max == 64 and back.backend == "formal"
    rows = obj["entries"]
    keys = [(r["K"], r["u"], r["n"]) for r in rows]
    assert keys == sorted(keys)

    tn = build_lift_table(SourceForm(1, {m: 0.5 for m in range(1, 33)}), 64)
    back = table_from_json_dict(table_to_json_dict(tn))
    for idx in tn.indices():
        assert float(back.value_at(*idx)) == float(tn.value_at(*idx))


def test_formal_table_roundtrip_at_bench_scale():
    # at k_max 8192 the entry at (8192, 12, 1) reduces to C(1) / 2**12
    k_max = 8192
    table = table_from_json_dict(table_to_json_dict(build_lift_table(SourceForm(1), k_max)))
    assert check_maass(table).passed
    assert max(
        q.denominator
        for x in table.entries.values()
        for _, q in reduce_eigen2(x, 1).items()
    ) == 2 ** 12
    for N in range(1, k_max // 2 + 1):
        assert source_coefficient(table, N) == C(N)


def test_table_json_rejects_bad_index():
    obj = {"epsilon": 1, "k_max": 8, "backend": "numeric",
           "entries": [{"K": 4, "u": 0, "n": 1, "value": 1.0}]}
    with pytest.raises(ValueError):
        table_from_json_dict(obj)


def test_table_json_rejects_incomplete_tables():
    # the rows must be exactly valid_indices(k_max), each once; the message
    # names the first offending index
    obj = table_to_json_dict(random_maass_table(1, seed=3, k_max=2048))
    rows = obj["entries"]

    def load(entries, k_max=2048):
        return table_from_json_dict(dict(obj, k_max=k_max, entries=entries))

    first_cut = rows[-40]
    with pytest.raises(ValueError, match=r"missing row \(%d, %d, %d\)" % (
        first_cut["K"], first_cut["u"], first_cut["n"]
    )):
        load(rows[:-40])
    with pytest.raises(ValueError, match=r"missing row \(14, 0, 1\)"):
        load([r for r in rows if (r["K"], r["u"], r["n"]) != (14, 0, 1)])
    with pytest.raises(ValueError, match=r"missing row \(2, 0, 1\)"):
        load([])
    with pytest.raises(ValueError, match=r"duplicate row \(16, 3, 1\)"):
        load(rows + [r for r in rows if (r["K"], r["u"], r["n"]) == (16, 3, 1)])
    over = next(r for r in rows if r["K"] > 2000)
    with pytest.raises(ValueError, match=r"row \(%d, %d, %d\) exceeds" % (
        over["K"], over["u"], over["n"]
    )):
        load(rows, k_max=2000)
    assert load(rows).entries.keys() == set(valid_indices(2048))
