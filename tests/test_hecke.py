"""Hecke operators: closed-form cross-checks, eigenvalue relations,
representative independence, stability, and the adjoint identities."""

import ast
import json
import math
import random
from pathlib import Path

import pytest

from mql.hecke import (
    HeckeOperator,
    _RawView,
    _action,
    _fit_ratio,
    _images,
    _usable_bases,
    InconsistentRatiosError,
    NoUsableIndexError,
    adjoint_matrix_identities,
    apply,
    extract_lambda,
    hecke_image_table,
    stability_check,
    stability_sweep,
    verify_eigen_relations,
)
from mql.lift import (
    CoefficientTable,
    SourceForm,
    TableBoundsError,
    build_lift_table,
    random_maass_table,
    table_from_json_dict,
    table_to_json_dict,
    valid_indices,
)
from mql.quaternion import (
    UNIFORMIZER,
    CanonicalIndex,
    _W,
    _W_CONJ,
    _class_tuples,
    _conj,
    _div_scalar,
    _in_dual_lattice,
    _lattice_index,
    _mul,
    decompose,
    divisibility_counts,
    elements_of_norm,
    exact_divide,
    representative,
    unit_class_reps,
)
from mql.spectral import synth_eigenform

SQRT2 = math.sqrt(2.0)


def all_lambdas(extra, n_max, seed=77):
    rng = random.Random(seed)
    lams = {}
    p = 3
    while p <= n_max:
        if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)):
            lams[p] = rng.uniform(-2, 2)
        p += 2
    lams.update(extra)
    return lams


@pytest.fixture(scope="module")
def eigen_table():
    lams = all_lambdas({3: 1.5, 5: -2.0}, 512)
    form = synth_eigenform(1, lams, 512)
    return build_lift_table(form.source_form(), 1024), lams


@pytest.fixture(scope="module")
def maass_table():
    return random_maass_table(1, seed=40, k_max=1024)


def raw(table, idx):
    return float(table.value_at(*idx)) * math.sqrt(idx[0])


# ------------------------------------------------------------- construction

def test_operator_validation():
    HeckeOperator("T2", 2)
    HeckeOperator("H3", 7)
    with pytest.raises(ValueError):
        HeckeOperator("T2", 3)
    with pytest.raises(ValueError):
        HeckeOperator("H2", 2)
    with pytest.raises(ValueError):
        HeckeOperator("H2", 9)
    with pytest.raises(ValueError):
        HeckeOperator("X1", 3)


def test_apply_validates_index_and_bounds(maass_table):
    op = HeckeOperator("H3", 3)
    with pytest.raises(ValueError):
        apply(op, maass_table, (4, 0, 1))
    with pytest.raises(TableBoundsError):
        apply(op, maass_table, (1022, 0, 1))  # needs 9 * 1022 > 1024
    with pytest.raises(TypeError):
        apply(op, build_lift_table(SourceForm(1), 32), (2, 0, 1))
    with pytest.raises(ValueError):
        wrong = elements_of_norm(6)[0]  # norm-6 element is no norm-2 representative
        apply(op, maass_table, (2, 0, 1), beta=wrong)


# ---------------------------------------------------------- even place (T2)

def test_t2_scalar_on_eigen_tables(eigen_table):
    table, _ = eigen_table
    op = HeckeOperator("T2", 2)
    checked = 0
    for idx in table.indices():
        if 2 * idx.K > table.k_max:
            continue
        a_in = raw(table, idx)
        if abs(a_in) < 1e-6:
            continue
        assert apply(op, table, idx) / a_in == pytest.approx(-3 * SQRT2, rel=1e-9)
        checked += 1
        if checked >= 40:
            break
    assert checked >= 30


def test_t2_scalar_both_signs():
    for eps in (1, -1):
        t = random_maass_table(eps, seed=8, k_max=256)
        op = HeckeOperator("T2", 2)
        for idx in t.indices()[:25]:
            if 2 * idx.K > t.k_max:
                continue
            a_in = raw(t, idx)
            if abs(a_in) < 1e-9:
                continue
            assert apply(op, t, idx) / a_in == pytest.approx(-3 * SQRT2 * eps, rel=1e-9)


# ------------------------------------------------- closed-form cross-checks

def test_h2_at_first_index_is_class_sum(eigen_table):
    # at (2,0,1) and p=3 all conjugate-division terms vanish and the class sum
    # collapses to (p+1) copies of the norm-6 coefficient
    table, _ = eigen_table
    out = apply(HeckeOperator("H2", 3), table, (2, 0, 1))
    assert out == pytest.approx(12.0 * raw(table, CanonicalIndex(6, 0, 1)), rel=1e-12)


def test_h2_closed_forms_on_maass_table(maass_table):
    # recompute the operator through the unique-class expansion of its proof
    t = maass_table
    for p in (3, 5):
        op = HeckeOperator("H2", p)
        for idx in t.indices():
            K, u, n = idx
            if u or n > 1 or p * K > t.k_max:
                continue
            got = apply(op, t, idx)
            if K % p:
                expect = p * (p + 1) * raw(t, CanonicalIndex(p * K, 0, 1))
            else:
                expect = p * (
                    raw(t, CanonicalIndex(K // p, 0, 1))
                    + raw(t, CanonicalIndex(p * K, 0, p))
                    + p * raw(t, CanonicalIndex(p * K, 0, 1))
                )
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_h4_mirrors_h2_closed_forms(maass_table):
    t = maass_table
    p = 3
    op = HeckeOperator("H4", p)
    for idx in t.indices()[:60]:
        K, u, n = idx
        if u or n > 1 or p * K > t.k_max:
            continue
        got = apply(op, t, idx)
        if K % p:
            expect = p * (p + 1) * raw(t, CanonicalIndex(p * K, 0, 1))
        else:
            expect = p * (
                raw(t, CanonicalIndex(K // p, 0, 1))
                + raw(t, CanonicalIndex(p * K, 0, p))
                + p * raw(t, CanonicalIndex(p * K, 0, 1))
            )
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_h3_closed_form_coprime_case(maass_table):
    # p^2 A(p^2 K, 0, p) + p(p+1) A(K,0,1) when p does not divide K
    t = maass_table
    p = 3
    op = HeckeOperator("H3", p)
    for idx in t.indices()[:60]:
        K, u, n = idx
        if u or n > 1 or K % p == 0 or p * p * K > t.k_max:
            continue
        got = apply(op, t, idx)
        expect = p * p * raw(t, CanonicalIndex(p * p * K, 0, p)) + p * (p + 1) * raw(
            t, CanonicalIndex(K, 0, 1)
        )
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_h2_matches_full_enumeration_oracle(maass_table):
    # every summand is constant on right unit classes, so the class-based sum
    # must equal the sum over all 24(p+1) norm-p elements divided by 24
    import math as _math
    from mql.quaternion import representative

    t = maass_table
    p = 3
    full = elements_of_norm(p)

    def raw_at(q):
        if q is None or not q.in_dual_lattice():
            return 0.0
        idx, _ = decompose(q)
        return float(t.value_at(*idx)) * _math.sqrt(idx.K)

    for index in [(2, 0, 1), (6, 0, 1), (18, 0, 3), (16, 3, 1), (12, 1, 1)]:
        beta = representative(index)
        s1 = sum(raw_at((beta * al).divide_scalar(p)) for al in full)
        s2 = sum(raw_at(al.conjugate() * beta) for al in full)
        oracle = p * (s1 + s2) / 24.0
        got = apply(HeckeOperator("H2", p), t, index)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def reference_apply(op, table, index):
    """The operator by class enumeration on HurwitzQuaternion values, each
    product decomposed through decompose; same terms, same summation order."""
    def at(q):
        if q is None or not q.in_dual_lattice():
            return 0.0
        idx, _ = decompose(q)
        return table.value_at(*idx) * math.sqrt(idx.K)

    beta = representative(index)
    if op.kind == "T2":
        return 2.0 * (at(exact_divide(beta, UNIFORMIZER, "right")) + at(beta * UNIFORMIZER))
    p = op.prime
    reps = unit_class_reps(p)
    if op.kind in ("H2", "H4"):
        left = [al.conjugate() * beta for al in reps]
        right = [beta * al for al in reps]
        divided, kept = (left, right) if op.kind == "H4" else (right, left)
        return p * (sum(at(q.divide_scalar(p)) for q in divided) + sum(at(q) for q in kept))
    total = p * p * at(beta.divide_scalar(p))
    total += p * p * at(beta.scale(p))
    middle = 0.0
    for a1 in reps:
        for a2 in reps:
            middle += at(((a1.conjugate() * beta) * a2).divide_scalar(p))
    return total + p * middle


def test_apply_matches_quaternion_reference():
    table = random_maass_table(-1, seed=12, k_max=2048)
    checked = 0
    cases = [("T2", 2)] + [(kind, p) for p in (3, 5, 7) for kind in ("H2", "H3", "H4")]
    for kind, p in cases:
        op = HeckeOperator(kind, p)
        indices = [i for i in table.indices() if i.K * op.norm_growth <= table.k_max]
        assert len(indices) >= 20
        for idx in indices[:60] + indices[-20:]:
            assert apply(op, table, idx) == reference_apply(op, table, idx), (kind, p, idx)
            checked += 1
    assert checked >= 700


@pytest.mark.parametrize("side", [0, 1])
def test_a_flipped_pattern_entry_changes_the_image(side, monkeypatch):
    # at (6, 0, 1) and (18, 0, 1), p = 3 divides m, so exactly one class on
    # each side divides beta; reading it as not dividing moves a term of H2,
    # H3 and H4 to another valid index, or drops it
    import mql.hecke

    table = random_maass_table(-1, seed=12, k_max=2048)
    real = mql.hecke._class_pattern

    def flipped(x, p):
        pattern = list(real(x, p))
        if 1 in pattern[side]:
            j = pattern[side].index(1)
            pattern[side] = pattern[side][:j] + (0,) + pattern[side][j + 1:]
        return tuple(pattern)

    monkeypatch.setattr(mql.hecke, "_class_pattern", flipped)
    for kind, idx in (("H2", (6, 0, 1)), ("H4", (6, 0, 1)), ("H3", (18, 0, 1))):
        op = HeckeOperator(kind, 3)
        assert apply(op, table, idx) != reference_apply(op, table, idx), (kind, side)


def corrupt_left_patterns(monkeypatch):
    """Make every left product read as divisible by p.  The kept H2 term at
    (2, 0, 1) then reads odd content 3 at norm 6: the invalid (6, 0, 3)."""
    import mql.hecke

    real = mql.hecke._class_pattern
    monkeypatch.setattr(mql.hecke, "_class_pattern", lambda x, p: ((1,) * (p + 1), real(x, p)[1]))


def test_invalid_closed_form_index_raises(maass_table, monkeypatch):
    corrupt_left_patterns(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"index \(6, 0, 3\) is not valid"):
        apply(HeckeOperator("H2", 3), maass_table, (2, 0, 1))


def test_class_sum_reads_are_the_literal_products_indices():
    # every term a class sum reads is at the index of its literal product, in
    # class order, though the sum forms no product for H2 and H4 and only p+1
    # for H3; one view per prime shares its patterns across the three kinds
    reads = []

    class RecordingView(_RawView):
        __slots__ = ()

        def raw(self, key):
            reads.append(key)
            return super().raw(key)

    def index_of(q):
        assert _in_dual_lattice(q), q
        return _lattice_index(q)

    table = random_maass_table(1, seed=18, k_max=2048)
    checked = 0
    for p in (3, 5, 7):
        reps, conjs = _class_tuples(p)
        view = RecordingView(table)

        def divided(qs):
            return [index_of(q) for q in (_div_scalar(q, p) for q in qs) if q is not None]

        for kind in ("H2", "H3", "H4"):
            op = HeckeOperator(kind, p)
            act = _action(op, view)
            for idx in valid_indices(table.k_max // op.norm_growth):
                b = representative(idx).dc
                left = [_mul(c, b) for c in conjs]
                if kind == "H3":
                    middle = divided([_mul(q, a) for q in left for a in reps])
                    outer = divided([b]) + [index_of(tuple(p * v for v in b))]
                    expect, terms = outer + middle, middle
                else:
                    right = [_mul(b, a) for a in reps]
                    div, kept = (left, right) if kind == "H4" else (right, left)
                    terms = divided(div) + [index_of(q) for q in kept]
                    expect = terms
                reads.clear()
                act(idx, b)
                assert reads == expect, (kind, p, idx)
                checked += len(terms)
    assert checked > 10_000


def test_class_patterns_match_the_literal_products():
    # L[j] = [p | conj(alpha_j) x] and R[j] = [p | x alpha_j] for every order
    # element of norm <= 60, read through one view's memo, so one pattern
    # stands for every element of its residue mod p.  The elements are closed
    # under conjugation and x alpha = conj(conj(alpha) conj(x)), so R(x) is
    # the literal L of conj(x).  On a primitive x the pattern sums to the
    # divisibility counts.
    qs = [q for m in range(1, 61) for q in elements_of_norm(m)]
    view = _RawView(random_maass_table(1, seed=1, k_max=8))
    for p in (3, 5, 7, 11, 13):
        conjs = _class_tuples(p)[1]
        lefts = {
            q.dc: tuple(int(_div_scalar(_mul(c, q.dc), p) is not None) for c in conjs)
            for q in qs
        }
        for q in qs:
            L, R = view.pattern(q.dc, p)
            assert (L, R) == (lefts[q.dc], lefts[_conj(q.dc)]), (p, q)
            if q.is_primitive():
                assert divisibility_counts(q, p) == (sum(L), sum(R)), (p, q)


def representatives_up_to(k_max, extra_norm=60):
    """(index, doubled coordinates) of every canonical representative with
    K <= k_max, and of every dual-lattice element of norm <= extra_norm."""
    out = [(idx, representative(idx).dc) for idx in valid_indices(k_max)]
    for m in range(2, extra_norm + 1, 2):
        for q in elements_of_norm(m):
            if q.in_dual_lattice():
                out.append((decompose(q)[0], q.dc))
    return out


def test_t2_and_h3_outer_terms_at_their_closed_form_index():
    # T2 and the outer H3 terms read (2K, u+1, n), (K/2, u-1, n) for u >= 1,
    # (K/p^2, u, n/p) when p | n and (p^2 K, u, p n) without forming a product
    for (K, u, n), b in representatives_up_to(1024):
        up = _mul(b, _W)
        assert _in_dual_lattice(up) and _lattice_index(up) == (2 * K, u + 1, n)
        down = _div_scalar(_mul(b, _W_CONJ), 2)
        if u:
            assert down is not None and _in_dual_lattice(down)
            assert _lattice_index(down) == (K // 2, u - 1, n)
        else:
            assert down is None or not _in_dual_lattice(down)
    for p in (3, 5, 7):
        for (K, u, n), b in representatives_up_to(2048 // (p * p)):
            q = _div_scalar(b, p)
            assert (q is not None) == (n % p == 0)
            if q is not None:
                assert _in_dual_lattice(q) and _lattice_index(q) == (K // (p * p), u, n // p)
            assert _lattice_index(tuple(p * v for v in b)) == (p * p * K, u, p * n)


def test_apply_checks_the_closure_bound_before_the_classes(monkeypatch):
    import mql.hecke

    table = random_maass_table(1, seed=3, k_max=300)
    # T2 and H3 name the index whose read would fail first; H2 and H4 an
    # index of norm pK their kept products read
    for p in (3, 5, 7):
        for kind in ("T2", "H2", "H3", "H4"):
            op = HeckeOperator(kind, 2 if kind == "T2" else p)
            g = op.norm_growth
            for idx in table.indices():
                K, u, n = idx
                if K * g <= table.k_max:
                    continue
                far = {"T2": (2 * K, u + 1, n), "H3": (g * K, u, p * n)}.get(kind, (g * K, u, n))
                with pytest.raises(TableBoundsError) as info:
                    apply(op, table, idx)
                assert str(info.value) == "index ({},{},{}) exceeds table bound K_max=300".format(*far)
                if kind in ("T2", "H3"):
                    with pytest.raises(TableBoundsError) as first:
                        _action(op, _RawView(table))(idx, representative(idx).dc)
                    assert str(first.value) == str(info.value)

    def refuse(p):
        raise AssertionError(f"enumerated the norm-{p} classes")

    monkeypatch.setattr(mql.hecke, "_class_tuples", refuse)
    p = 9999991
    for kind, idx, far in (
        ("H2", (2, 0, 1), (2 * p, 0, 1)),
        ("H4", (6, 0, 1), (6 * p, 0, 1)),
        ("H3", (18, 0, 3), (18 * p * p, 0, 3 * p)),
    ):
        with pytest.raises(TableBoundsError, match=r"index \({},{},{}\) exceeds".format(*far)):
            apply(HeckeOperator(kind, p), table, idx)


# -------------------------------------------------- representative invariance

def test_representative_independence(eigen_table):
    table, _ = eigen_table
    groups = {}
    for m in range(2, 40, 2):
        for q in elements_of_norm(m):
            if q.in_dual_lattice():
                groups.setdefault(decompose(q)[0], []).append(q)
    tested = 0
    for idx, betas in sorted(groups.items()):
        if len(betas) < 2 or 9 * idx.K > table.k_max:
            continue
        pair = (betas[0], betas[-1])
        assert pair[0] != pair[1]
        for kind, p in (("T2", 2), ("H2", 3), ("H3", 3), ("H4", 3)):
            op = HeckeOperator(kind, p)
            v1 = apply(op, table, idx, beta=pair[0])
            v2 = apply(op, table, idx, beta=pair[1])
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
        tested += 1
    assert tested >= 10


# ------------------------------------------------------ eigenvalue extraction

def test_extract_lambda_known_values(eigen_table):
    table, lams = eigen_table
    assert extract_lambda(table, 3) == pytest.approx(1.5, abs=1e-8)
    assert extract_lambda(table, 5) == pytest.approx(-2.0, abs=1e-8)
    assert extract_lambda(table, 7) == pytest.approx(lams[7], abs=1e-8)


def test_extract_lambda_errors(maass_table):
    zero = build_lift_table(SourceForm(1, dict.fromkeys(range(1, 33), 0)), 64)
    with pytest.raises(NoUsableIndexError):
        extract_lambda(zero, 3)
    with pytest.raises(InconsistentRatiosError):
        extract_lambda(maass_table, 3)


def test_non_finite_lambda_estimate_fails_closed(eigen_table):
    table, _ = eigen_table
    bases = [i for i, _ in _usable_bases(_RawView(table), 3) if i.u == 0 and i.n == 1]
    entries = dict(table.entries)
    entries[CanonicalIndex(3 * bases[2].K, 0, 1)] = math.nan
    scratch = CoefficientTable(table.epsilon, table.k_max, entries, table.backend)
    with pytest.raises(InconsistentRatiosError):
        extract_lambda(scratch, 3)


def test_fit_ratio_fails_closed_on_non_finite():
    assert _fit_ratio([2.0, 2.5, 1.0]) == (2.0, 0.4)
    for bad in (math.nan, math.inf):
        mu, err = _fit_ratio([1.0, bad, 1.0])
        assert mu == 1.0 and not err <= 1e-8


def test_nan_ratio_fails_eigen_relations(eigen_table, monkeypatch):
    import mql.hecke

    table, _ = eigen_table
    target = _usable_bases(_RawView(table), 9)[1][0]
    real_action = mql.hecke._action

    def action(op, view):
        act = real_action(op, view)
        return lambda idx, b: math.nan if idx == target else act(idx, b)

    monkeypatch.setattr(mql.hecke, "_action", action)
    (report,) = verify_eigen_relations(table, (3,))
    assert not report.relations["constant"] and not report.passed


def test_verify_eigen_relations_values(eigen_table):
    table, lams = eigen_table
    reports = {r.prime: r for r in verify_eigen_relations(table, (2, 3, 5))}
    assert reports[2].mu["T2"] == pytest.approx(-3 * SQRT2, rel=1e-10)
    assert reports[3].mu["H2"] == pytest.approx(18.0, rel=1e-9)
    assert reports[3].mu["H3"] == pytest.approx(50.25, rel=1e-9)
    assert reports[3].mu["H4"] == pytest.approx(18.0, rel=1e-9)
    assert reports[5].mu["H2"] == pytest.approx(-60.0, rel=1e-9)
    assert reports[5].mu["H3"] == pytest.approx(230.0, rel=1e-9)
    assert all(r.passed for r in reports.values())
    row = reports[3].to_json_dict()
    assert {"prime", "kind", "indices_checked", "max_rel_err", "pass"} <= set(row)


def test_verify_eigen_relations_flags_non_eigen(maass_table):
    reports = verify_eigen_relations(maass_table, (3,))
    assert not reports[0].passed
    assert not reports[0].relations["constant"]


def test_t2_negative_sign():
    lams = all_lambdas({}, 128, seed=3)
    form = synth_eigenform(-1, lams, 128)
    table = build_lift_table(form.source_form(), 256)
    rep = verify_eigen_relations(table, (2,))[0]
    assert rep.mu["T2"] == pytest.approx(3 * SQRT2, rel=1e-10)
    assert rep.passed


# ----------------------------------------------------------------- stability

def test_stability_all_kinds(maass_table):
    for kind, p in (("T2", 2), ("H2", 3), ("H3", 3), ("H4", 3), ("H2", 5), ("H3", 5)):
        rep = stability_check(HeckeOperator(kind, p), maass_table)
        assert rep.passed, (kind, p, rep.maass.dyadic_failures[:3])


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("backing", ["fraction", "float"])
def test_sweep_images_match_apply_bit_for_bit(p, epsilon, backing):
    # one sweep shares a raw view and the representatives across all four
    # images; apply builds a fresh view per call, so any drift shows here
    table = random_maass_table(epsilon, seed=60 + p, k_max=600)
    if backing == "float":
        table = table_from_json_dict(json.loads(json.dumps(table_to_json_dict(table))))
        assert all(type(v) is float for v in table.entries.values())
    ops = [HeckeOperator(kind, 2 if kind == "T2" else p) for kind in ("T2", "H2", "H3", "H4")]
    images = _images(ops, _RawView(table))
    for op, image in zip(ops, images):
        assert image.k_max == table.k_max // op.norm_growth
        assert list(image.entries) == [i for i in table.indices() if i.K <= image.k_max]
        for idx, value in image.entries.items():
            expect = apply(op, table, idx) / math.sqrt(idx.K)
            assert value.hex() == expect.hex(), (op, idx)
        single = hecke_image_table(op, table)
        assert [v.hex() for v in single.entries.values()] == [
            v.hex() for v in image.entries.values()
        ]


def test_sweep_invalid_closed_form_index_raises(maass_table, monkeypatch):
    corrupt_left_patterns(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"index \(6, 0, 3\) is not valid"):
        stability_sweep([HeckeOperator("T2", 2), HeckeOperator("H2", 3)], maass_table)
    with pytest.raises(ArithmeticError, match=r"index \(6, 0, 3\) is not valid"):
        hecke_image_table(HeckeOperator("H2", 3), maass_table)
    # with every class dividing on both sides, the first H3 middle term at
    # (2, 0, 1) reads odd content 3 p / p at norm 2: the invalid (2, 0, 3)
    import mql.hecke

    monkeypatch.setattr(mql.hecke, "_class_pattern", lambda x, p: ((1,) * (p + 1),) * 2)
    with pytest.raises(ArithmeticError, match=r"index \(2, 0, 3\) is not valid"):
        hecke_image_table(HeckeOperator("H3", 3), maass_table)


def test_formal_table_has_no_float_image():
    formal = build_lift_table(SourceForm(1), 64)
    for kind, p in (("T2", 2), ("H2", 3), ("H3", 3), ("H4", 3)):
        op = HeckeOperator(kind, p)
        with pytest.raises(TypeError):
            hecke_image_table(op, formal)
        with pytest.raises(TypeError):
            apply(op, formal, (2, 0, 1))


def test_stability_sweep_fails_closed():
    table = random_maass_table(1, seed=5, k_max=32)
    with pytest.raises(ValueError, match="no operator"):
        stability_sweep([], table)
    with pytest.raises(ValueError, match="H3 image bound 3"):
        stability_sweep([HeckeOperator("T2", 2), HeckeOperator("H3", 3)], table)


def test_t2_image_is_scalar_multiple(maass_table):
    image = hecke_image_table(HeckeOperator("T2", 2), maass_table)
    scalar = -3 * SQRT2 * maass_table.epsilon
    for idx in image.indices():
        expect = scalar * float(maass_table.value_at(*idx))
        assert float(image.value_at(*idx)) == pytest.approx(expect, rel=1e-9, abs=1e-12)


SHIFT_SHAPES = [(2, 1), (3, 1), (4, 1), (4, 2)]


def shift_table():
    return random_maass_table(1, seed=41, k_max=1500)


def shift_indices():
    return [CanonicalIndex(2 * 3 ** m, 0, 3 ** l) for m, l in SHIFT_SHAPES]


def test_h3_shift_identity_explicit():
    # the shift identity H3 F(2p^m, 0, p^l) = sum_{i<=l} p^i H3 F(2p^(m-2i), 0, 1)
    # is the divisor-sum row of the H3 image at (2p^m, 0, p^l), so check_maass
    # covers every in-bounds shape
    table = shift_table()
    image = hecke_image_table(HeckeOperator("H3", 3), table)
    assert all(idx in image.entries for idx in shift_indices())
    (rep,) = stability_sweep([HeckeOperator("H3", 3)], table)
    assert rep.passed and rep.image_k_max == image.k_max
    assert not set(shift_indices()) & set(rep.maass.divisor_sum_failures)


def test_h3_shift_identity_fails_closed():
    # H3 F(54, 0, 1) enters the divisor-sum row of shape (3, 1) alone, and the
    # dyadic rows at (108, 1, n) above it
    table = shift_table()
    table.entries[(54, 0, 1)] += 1
    (rep,) = stability_sweep([HeckeOperator("H3", 3)], table)
    assert rep.maass.divisor_sum_failures == [(54, 0, 3)] == shift_indices()[1:2]
    assert rep.maass.dyadic_failures == [(108, 1, 1), (108, 1, 3)]
    assert not rep.passed and not rep.to_json_dict()["pass"]


def test_stability_sweep_makes_no_public_evaluation(maass_table, eigen_table, monkeypatch):
    # stability_sweep and verify_eigen_relations each read the table through
    # exactly one raw view and call no public evaluator
    import mql.hecke

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep made a public evaluation")

    views = []

    class CountedView(_RawView):
        __slots__ = ()

        def __init__(self, table):
            views.append(table)
            super().__init__(table)

    monkeypatch.setattr(mql.hecke, "apply", refuse)
    monkeypatch.setattr(mql.hecke, "extract_lambda", refuse)
    monkeypatch.setattr(mql.hecke, "_RawView", CountedView)
    ops = [HeckeOperator(kind, 2 if kind == "T2" else 3) for kind in ("T2", "H2", "H3", "H4")]
    reports = stability_sweep(ops, maass_table)
    assert [r.kind for r in reports] == ["T2", "H2", "H3", "H4"]
    assert all(r.passed for r in reports)
    assert len(views) == 1

    table, lams = eigen_table
    views.clear()
    reports = verify_eigen_relations(table, (2, 3, 5))
    assert all(r.passed for r in reports)
    assert [r.lambda_p for r in reports[1:]] == pytest.approx([lams[3], lams[5]], abs=1e-8)
    assert len(views) == 1


def test_hecke_reads_table_values_only_in_its_raw_view():
    """value_at, _read and .entries appear in hecke.py only inside _RawView,
    so one reader forms every raw coefficient the operators see."""
    import mql.hecke

    tree = ast.parse(Path(mql.hecke.__file__).read_text())
    readers = [
        (getattr(top, "name", None), node.attr)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("value_at", "_read", "entries")
    ]
    assert readers == [("_RawView", "_read")]


def test_hecke_commutativity_sample(eigen_table):
    table, _ = eigen_table
    h2 = HeckeOperator("H2", 3)
    h4 = HeckeOperator("H4", 3)
    ab = hecke_image_table(h2, hecke_image_table(h4, table))
    ba = hecke_image_table(h4, hecke_image_table(h2, table))
    assert ab.k_max == ba.k_max
    for idx in ab.indices():
        assert float(ab.value_at(*idx)) == pytest.approx(
            float(ba.value_at(*idx)), rel=1e-9, abs=1e-9
        )


# ------------------------------------------------------------------- adjoint

def test_adjoint_identities_pass():
    rep = adjoint_matrix_identities((3, 5, 7))
    assert rep.passed
    assert len(rep.checks) == 10  # three per odd prime plus the even place
    assert rep.to_json_dict()["pass"]


def test_adjoint_explicit_matrix():
    # an independent reference for the entrywise report: the identities by
    # generic matrix products, over Fraction at the odd primes and over
    # HurwitzQuaternion at the even place
    from fractions import Fraction

    from mql.quaternion import HurwitzQuaternion

    def mm(A, B, zero):
        return [
            [sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
            for i in range(len(A))
        ]

    def diag(values, zero):
        n = len(values)
        return [[values[i] if i == j else zero for j in range(n)] for i in range(n)]

    primes = (3, 5, 7, 11, 13)
    checks = []
    zero, one = Fraction(0), Fraction(1)
    w = [[Fraction(int(i + j == 3)) for j in range(4)] for i in range(4)]
    for p in primes:
        z = diag([Fraction(p)] * 4, zero)
        h = {k: diag([Fraction(p)] * (5 - k) + [one] * (k - 1), zero) for k in (2, 3, 4)}
        hinv = {k: diag([1 / m[i][i] for i in range(4)], zero) for k, m in h.items()}
        for a, b in ((2, 4), (3, 3), (4, 2)):
            direct = mm(mm(mm(w, z, zero), hinv[b], zero), w, zero) == h[a]
            integral = mm(w, z, zero) == mm(mm(h[a], w, zero), h[b], zero)
            checks.append({"prime": p, "kind": f"adjoint h{b}->h{a}", "pass": direct and integral})
    qzero, qone = HurwitzQuaternion(0, 0, 0, 0), HurwitzQuaternion(2, 0, 0, 0)
    wq = [[qzero, qone], [qone, qzero]]
    zq = diag([UNIFORMIZER, UNIFORMIZER], qzero)
    gq = diag([UNIFORMIZER, qone], qzero)
    integral2 = mm(wq, zq, qzero) == mm(mm(gq, wq, qzero), gq, qzero)
    checks.append({"prime": 2, "kind": "adjoint T2->T2", "pass": integral2})
    assert adjoint_matrix_identities(primes).to_json_dict() == {"pass": True, "checks": checks}
