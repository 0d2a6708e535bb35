"""Hecke operators: closed-form cross-checks, eigenvalue relations,
representative independence, stability, and the adjoint identities."""

import json
import math
import random

import pytest

from mql.hecke import (
    HeckeOperator,
    _fit_ratio,
    _images,
    _usable_bases,
    InconsistentRatiosError,
    NoUsableIndexError,
    adjoint_matrix_identities,
    apply,
    extract_lambda,
    h3_sum_identity_residual,
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
)
from mql.quaternion import (
    UNIFORMIZER,
    CanonicalIndex,
    decompose,
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
    for kind, p in (("T2", 2), ("H2", 3), ("H3", 3), ("H4", 3), ("H2", 5), ("H3", 5)):
        op = HeckeOperator(kind, p)
        indices = [i for i in table.indices() if i.K * op.norm_growth <= table.k_max]
        assert len(indices) >= 20
        for idx in indices[:60] + indices[-20:]:
            assert apply(op, table, idx) == reference_apply(op, table, idx), (kind, p, idx)
            checked += 1
    assert checked >= 400


def test_invalid_closed_form_index_raises(maass_table, monkeypatch):
    import mql.hecke

    monkeypatch.setattr(mql.hecke, "_lattice_index", lambda q: (4, 0, 1))
    with pytest.raises(ArithmeticError):
        apply(HeckeOperator("H2", 3), maass_table, (2, 0, 1))


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
    bases = [i for i, _ in _usable_bases(table, 3) if i.u == 0 and i.n == 1]
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
    target = _usable_bases(table, 9)[1][0]
    real_apply = mql.hecke.apply
    monkeypatch.setattr(
        mql.hecke, "apply",
        lambda op, tbl, idx: math.nan if idx == target else real_apply(op, tbl, idx),
    )
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
    images = _images(ops, table)
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
    import mql.hecke

    monkeypatch.setattr(mql.hecke, "_lattice_index", lambda q: (4, 0, 1))
    with pytest.raises(ArithmeticError):
        stability_sweep([HeckeOperator("T2", 2), HeckeOperator("H2", 3)], maass_table)
    with pytest.raises(ArithmeticError):
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


def test_h3_shift_identity_explicit():
    # both sides evaluated independently at the documented p-power shapes
    table = random_maass_table(1, seed=41, k_max=1500)
    for m, l in ((2, 1), (3, 1), (4, 1), (4, 2)):
        assert h3_sum_identity_residual(table, 3, m, l) <= 1e-10
    with pytest.raises(ValueError):
        h3_sum_identity_residual(table, 3, 1, 1)


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
    from fractions import Fraction

    p = Fraction(3)
    w = [[Fraction(int(i + j == 3)) for j in range(4)] for i in range(4)]
    z = [[p if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    h4inv = [[Fraction(0)] * 4 for _ in range(4)]
    for i, v in enumerate([1 / p, 1, 1, 1]):
        h4inv[i][i] = Fraction(v)

    def mm(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]

    lhs = mm(mm(mm(w, z), h4inv), w)
    h2 = [[Fraction(0)] * 4 for _ in range(4)]
    for i, v in enumerate([3, 3, 3, 1]):
        h2[i][i] = Fraction(v)
    assert lhs == h2
