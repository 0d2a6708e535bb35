"""Order arithmetic, lattice membership, canonical decomposition and the
norm-p class combinatorics, checked against independent brute-force oracles."""

import itertools
import operator
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, strategies as st

from mql.lift import valid_indices
from mql.quaternion import (
    CanonicalIndex,
    HurwitzQuaternion,
    UNIFORMIZER,
    _class_tuples,
    _div_scalar,
    _divided_products,
    _lattice_index,
    _mul,
    _norm_tuples,
    _unit_orbit,
    _wrap,
    decompose,
    divisibility_counts,
    elements_of_norm,
    exact_divide,
    is_valid_index,
    parse_quaternion,
    representative,
    three_squares,
    unit_class_reps,
    units,
)

I = HurwitzQuaternion.from_integral(0, 1, 0, 0)
J = HurwitzQuaternion.from_integral(0, 0, 1, 0)
K = HurwitzQuaternion.from_integral(0, 0, 0, 1)
ONE = HurwitzQuaternion.from_integral(1, 0, 0, 0)


def random_order_element(rng, span=20):
    if rng.random() < 0.5:
        return HurwitzQuaternion.from_integral(*(rng.randint(-span, span) for _ in range(4)))
    return HurwitzQuaternion(*(2 * rng.randint(-span, span) + 1 for _ in range(4)))


def random_lattice_element(rng, span=20):
    while True:
        coords = [rng.randint(-span, span) for _ in range(4)]
        if sum(coords) % 2 == 0 and any(coords):
            return HurwitzQuaternion.from_integral(*coords)


# ---------------------------------------------------------------- arithmetic

def test_basis_products():
    assert I * J == K
    assert J * I == -K
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_uniformizer_norm_and_product():
    assert UNIFORMIZER.norm() == 2
    two_k = UNIFORMIZER * (J + K)
    assert two_k == HurwitzQuaternion.from_integral(0, 0, 0, 2)
    assert two_k.norm() == 4


def test_trace_and_conjugate():
    h = HurwitzQuaternion(1, 1, 1, 1)  # (1+i+j+k)/2
    assert h.trace() == 1
    assert (h + h.conjugate()) == HurwitzQuaternion.from_integral(1, 0, 0, 0)


def test_parity_validation():
    with pytest.raises(ValueError):
        HurwitzQuaternion(1, 0, 0, 0)
    HurwitzQuaternion(1, 1, 1, -1)
    HurwitzQuaternion(2, 0, -4, 6)


def test_a_cached_unit_cannot_be_changed():
    before = [u.dc for u in units()]
    u = units()[0]
    for name in ("a", "b", "c", "d", "dc"):
        with pytest.raises(AttributeError):
            setattr(u, name, 4)
    assert [u.dc for u in units()] == [u.dc for u in elements_of_norm(1)] == before
    assert all(u.norm() == 1 for u in units())


def test_conjugate_is_antiautomorphism():
    rng = random.Random(2)
    for _ in range(500):
        x = random_order_element(rng)
        y = random_order_element(rng)
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


# ------------------------------------------------------------- dual lattice

S_BASIS = [(1, 0, 0, -1), (0, -1, 0, -1), (0, 0, -1, -1), (0, 0, 0, 2)]


def in_lattice_by_basis(coords):
    # Solve s*(1,0,0,-1) + t*(0,-1,0,-1) + u*(0,0,-1,-1) + v*(0,0,0,2) = coords.
    x, y, z, w = coords
    s, t, u = x, -y, -z
    rem = w - (-s - t - u)
    return rem % 2 == 0


def test_dual_lattice_examples():
    assert parse_quaternion("1-ij").in_dual_lattice()
    assert not ONE.in_dual_lattice()
    assert HurwitzQuaternion.from_integral(0, 0, 0, 2).in_dual_lattice()


def test_dual_lattice_matches_explicit_basis():
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-3, 4):
                for w in range(-3, 4):
                    q = HurwitzQuaternion.from_integral(x, y, z, w)
                    assert q.in_dual_lattice() == in_lattice_by_basis((x, y, z, w))
    # half-integer points are never in the dual lattice
    assert not HurwitzQuaternion(1, 1, 1, 1).in_dual_lattice()


def test_uniformizer_two_sidedness():
    # Every dual-lattice element divides by the uniformizer on both sides
    # inside the order; the quotients stay in the dual lattice exactly when
    # the norm is 0 mod 4.
    rng = random.Random(3)
    for _ in range(1000):
        s = random_lattice_element(rng)
        left = exact_divide(s, UNIFORMIZER, "left")
        right = exact_divide(s, UNIFORMIZER, "right")
        assert left is not None and right is not None
        expect = s.norm() % 4 == 0
        assert left.in_dual_lattice() == expect
        assert right.in_dual_lattice() == expect


def test_primitive_examples():
    assert parse_quaternion("1-ij").is_primitive()
    assert not HurwitzQuaternion.from_integral(0, 0, 0, 2).is_primitive()
    assert not parse_quaternion("3-3ij").is_primitive()


# ------------------------------------------------------------- enumeration

def box_oracle(m):
    """Independent full-box enumeration of norm-m order elements."""
    lim = 2 * isqrt(m) + 2
    out = set()
    for a in range(-lim, lim + 1):
        for b in range(-lim, lim + 1):
            for c in range(-lim, lim + 1):
                for d in range(-lim, lim + 1):
                    if a * a + b * b + c * c + d * d != 4 * m:
                        continue
                    p = a & 1
                    if (b & 1) == p and (c & 1) == p and (d & 1) == p:
                        out.add((a, b, c, d))
    return out


@pytest.mark.parametrize("m,count", [(1, 24), (2, 24), (3, 96)])
def test_norm_counts_frozen(m, count):
    assert len(elements_of_norm(m)) == count


def triple_loop_enumeration(m):
    """The earlier enumeration: a search over (a, b, c) solving for d."""
    target = 4 * m
    out = []
    amax = isqrt(target)
    for a in range(-amax, amax + 1):
        ra = target - a * a
        bmax = isqrt(ra)
        for b in range(-bmax, bmax + 1):
            if (b - a) & 1:
                continue
            rb = ra - b * b
            cmax = isqrt(rb)
            for c in range(-cmax, cmax + 1):
                if (c - a) & 1:
                    continue
                rc = rb - c * c
                d = isqrt(rc)
                if d * d != rc or (d - a) & 1:
                    continue
                out.append((a, b, c, d))
                if d:
                    out.append((a, b, c, -d))
    out.sort()
    return out


def test_norm_enumeration_matches_box_oracle():
    for m in range(1, 9):
        got = {q.dc for q in elements_of_norm(m)}
        assert got == box_oracle(m)
        assert list(elements_of_norm(m)) == sorted(elements_of_norm(m))
    for m in range(1, 401):
        assert _norm_tuples(m) == triple_loop_enumeration(m), m


def test_norm_enumeration_counts_and_order():
    # Jacobi: 24 times the sum of the odd divisors of m, strictly ascending.
    # Every norm up to 2000 takes about 90 s on a 2-vCPU Xeon VM, so the
    # sweep covers the first 600 and the top of that range.
    for m in [*range(1, 601), *range(1985, 2001)]:
        dcs = _norm_tuples(m)
        assert len(dcs) == 24 * sum(d for d in range(1, m + 1, 2) if m % d == 0), m
        assert all(map(operator.lt, dcs, dcs[1:])), m


def test_elements_of_norm_wraps_the_tuple_enumeration():
    for m in range(1, 201):
        assert elements_of_norm(m) == tuple(map(_wrap, _norm_tuples(m))), m
    elements_of_norm.cache_clear()  # keep no sweep of elements alive


def test_norm_tuples_reject_nonpositive_norms():
    for m in (0, -3):
        with pytest.raises(ValueError, match="norm must be positive"):
            _norm_tuples(m)


def test_units_group():
    us = units()
    assert len(us) == 24
    uset = set(us)
    for u in us:
        assert u.norm() == 1
        assert u.conjugate() in uset  # inverse of a unit is its conjugate
        assert u * u.conjugate() == ONE
        for v in us:
            assert u * v in uset


# -------------------------------------------------------------- unit classes

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_unit_class_partition(p):
    reps = unit_class_reps(p)
    assert len(reps) == p + 1
    us = units()
    seen = set()
    for r in reps:
        orbit = {r * u for u in us}
        assert len(orbit) == 24
        assert min(orbit) == r  # representative is the orbit minimum
        assert not (orbit & seen)
        seen |= orbit
    assert seen == set(elements_of_norm(p))


def test_unit_orbit_is_the_product_with_every_unit():
    # the signed shuffles of x, x * omega and x * omega^2 are x times the units
    us = [u.dc for u in units()]
    for m in range(1, 61):
        for x in _norm_tuples(m):
            assert _unit_orbit(x) == {_mul(x, u) for u in us}, x


def seen_set_class_reps(p):
    """The earlier algorithm: scan the norm-p elements in order, keeping each
    one no earlier orbit holds; the kept ones are the orbit minima."""
    us = [u.dc for u in units()]
    reps, seen = [], set()
    for x in _norm_tuples(p):
        if x in seen:
            continue
        orbit = {_mul(x, u) for u in us}
        assert len(orbit) == 24
        seen |= orbit
        reps.append(x)
    return reps


def test_unit_class_reps_match_seen_set_oracle():
    primes = [p for p in range(3, 400, 2) if all(p % f for f in range(3, isqrt(p) + 1, 2))]
    for p in primes + [797, 1009]:
        assert [r.dc for r in unit_class_reps(p)] == seen_set_class_reps(p), p


@pytest.fixture
def cold_unit_classes():
    """unit_class_reps with an empty cache, emptied again afterwards, so a
    faked kernel neither reads nor leaves a cached answer."""
    unit_class_reps.cache_clear()
    yield unit_class_reps
    unit_class_reps.cache_clear()


def test_unit_class_reps_fail_closed_on_a_broken_orbit(monkeypatch, cold_unit_classes):
    import mql.quaternion as q

    real = q._mul
    # x * omega^2 comes back as x, so every orbit built has 16 members
    monkeypatch.setattr(q, "_mul", lambda x, y: x if y == q._OMEGA2 else real(x, y))
    with pytest.raises(ArithmeticError, match="has size 16"):
        cold_unit_classes(7)


def test_unit_class_reps_fail_closed_on_a_missing_class(monkeypatch, cold_unit_classes):
    import mql.quaternion as q

    real = q._norm_tuples
    dropped = _unit_orbit(real(7)[0])
    monkeypatch.setattr(q, "_norm_tuples", lambda m: [x for x in real(m) if x not in dropped])
    with pytest.raises(ArithmeticError, match="expected 8 classes at 7, found 7"):
        cold_unit_classes(7)


def test_unit_class_rejects_bad_primes():
    for p in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            unit_class_reps(p)


def test_unit_class_reps_deterministic():
    first = unit_class_reps(5)
    unit_class_reps.cache_clear()
    assert unit_class_reps(5) == first


# ------------------------------------------------------------ decomposition

def test_decompose_examples():
    idx, b0 = decompose(parse_quaternion("1-ij"))
    assert idx == (2, 0, 1) and b0 == parse_quaternion("1-ij")
    idx, b0 = decompose(parse_quaternion("2ij"))
    assert idx == (4, 1, 1) and b0 == J + K
    idx, b0 = decompose(parse_quaternion("3-3ij"))
    assert idx == (18, 0, 3) and b0 == parse_quaternion("1-ij")


def test_decompose_rejects_non_lattice():
    with pytest.raises(ValueError):
        decompose(HurwitzQuaternion(0, 0, 0, 0))
    with pytest.raises(ValueError):
        decompose(ONE)
    with pytest.raises(ValueError):
        decompose(HurwitzQuaternion(1, 1, 1, 1))


def test_decompose_reconstructs_input():
    # uniqueness of the splitting: rebuilding uniformizer^u * n * beta0 gives
    # back the input exactly
    rng = random.Random(4)
    for _ in range(1000):
        q = random_lattice_element(rng, 40)
        (K, u, n), b0 = decompose(q)
        assert b0.is_primitive()
        rebuilt = b0
        for _ in range(u):
            rebuilt = UNIFORMIZER * rebuilt
        rebuilt = rebuilt.scale(n)
        assert rebuilt == q
        assert K == q.norm()
        assert K == (2 ** u) * n * n * b0.norm()


def test_three_squares_oracle_and_order():
    # brute-force first-hit oracle over the same deterministic order
    def oracle(m):
        best = None
        for x in range(isqrt(m) + 1):
            for y in range(x + 1):
                for z in range(y + 1):
                    if x * x + y * y + z * z == m and not (x & 1 and y & 1 and z & 1):
                        cand = (x, y, z)
                        if best is None or (cand[2], cand[1], cand[0]) < (
                            best[2], best[1], best[0]
                        ):
                            best = cand
        return best

    for m in range(0, 400):
        if (m + 1) % 4 != 2:
            continue
        got = three_squares(m)
        assert got == oracle(m)
        x, y, z = got
        assert x * x + y * y + z * z == m


def test_representative_examples():
    assert representative((2, 0, 1)) == ONE + K
    assert representative((10, 0, 1)) == HurwitzQuaternion.from_integral(3, 0, 0, 1)
    beta = representative((4, 1, 1))
    assert decompose(beta)[0] == (4, 1, 1)


def test_representative_rejects_invalid():
    for idx in ((4, 0, 1), (2, 1, 1), (1, 0, 1), (12, 0, 3), (6, 0, 2)):
        assert not is_valid_index(*idx)
        with pytest.raises(ValueError):
            representative(idx)


def test_validity_predicate_matches_legendre():
    # cofactor 2 mod 4 <=> cofactor - 1 is a sum of three squares avoiding the
    # all-odd pattern; the obstruction 4^a(8b+7) never occurs for m = 2 mod 4
    def legendre_ok(n):
        while n % 4 == 0:
            n //= 4
        return n % 8 != 7

    for m in range(1, 10_001):
        if m % 4 == 2:
            assert is_valid_index(m, 0, 1)
            assert legendre_ok(m - 1)
        else:
            assert not is_valid_index(m, 0, 1)


INDEX_BOUND = 2048
VALID_INDICES = frozenset(valid_indices(INDEX_BOUND))


@given(
    st.one_of(
        st.sampled_from(sorted(VALID_INDICES)),
        st.tuples(st.integers(-2, INDEX_BOUND), st.integers(-2, 40), st.integers(-1, 99)),
    )
)
@example((2, 10**12, 1))
def test_is_valid_index_matches_the_enumeration(idx):
    assert is_valid_index(*idx) == (idx in VALID_INDICES)


def test_is_valid_index_work_does_not_grow_with_u():
    # 2**u alone would take u/8 bytes, 12.5 MB here; the closed form reads K's low bits
    tracemalloc.start()
    try:
        assert not is_valid_index(2, 10**8, 1)
        assert not is_valid_index(2 << 40, 10**8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_decompose_representative_roundtrip_exhaustive():
    # identity on every valid index with K <= 10^4
    count = 0
    for K in range(2, 10_001, 2):
        u = 0
        rem = K
        while True:
            n = 1
            while n * n <= rem:
                if rem % (n * n) == 0 and (rem // (n * n)) % 4 == 2:
                    idx = CanonicalIndex(K, u, n)
                    beta = representative(idx)
                    got, _ = decompose(beta)
                    assert got == idx
                    count += 1
                n += 2
            if rem % 2:
                break
            rem //= 2
            u += 1
    assert count > 4000


# ------------------------------------------------------------ exact division

def test_exact_divide_examples():
    assert exact_divide(parse_quaternion("2ij"), UNIFORMIZER, "left") == J + K
    assert exact_divide(parse_quaternion("1-ij"), 3) is None
    beta = parse_quaternion("1-ij")
    for alpha in unit_class_reps(3):
        assert exact_divide(beta, alpha, "right") is None


def test_exact_divide_roundtrip():
    rng = random.Random(5)
    for _ in range(500):
        q = random_order_element(rng, 8)
        a = random_order_element(rng, 8)
        if a.is_zero():
            continue
        assert exact_divide(q * a, a, "right") == q
        assert exact_divide(a * q, a, "left") == q


def test_scalar_divide():
    q = HurwitzQuaternion.from_integral(3, 0, 0, -3)
    assert exact_divide(q, 3) == parse_quaternion("1-ij")
    assert q.divide_scalar(2) is None
    assert HurwitzQuaternion.from_integral(1, 0, 0, 0).divide_scalar(2) is None
    assert HurwitzQuaternion.from_integral(1, 1, 1, -1).divide_scalar(2) == HurwitzQuaternion(1, 1, 1, -1)


# ------------------------------------------------------- divisibility counts

def test_divisibility_counts_examples():
    assert divisibility_counts(parse_quaternion("1-ij"), 3) == (0, 0)
    assert divisibility_counts(HurwitzQuaternion.from_integral(2, 1, 1, 0), 3) == (1, 1)
    assert divisibility_counts(HurwitzQuaternion.from_integral(3, 1, 0, 0), 7) == (0, 0)


def test_divisibility_counts_rejects_non_primitive():
    for beta in (
        HurwitzQuaternion.from_integral(0, 0, 0, 2),
        HurwitzQuaternion(0, 0, 0, 0),  # no canonical index, not a division by zero
        HurwitzQuaternion(1, 1, 1, 1),  # odd doubled coordinates
        parse_quaternion("2+2i"),
    ):
        with pytest.raises(ValueError, match="beta must be primitive"):
            divisibility_counts(beta, 3)


def test_divisibility_counts_square_check_fails_closed(monkeypatch):
    # the check divides by p^2 the products with all p + 1 class
    # representatives on each side when p^3 | nu(beta), and a square dividing
    # one of them raises
    import mql.quaternion as q

    real = q._divided_products
    seen = []
    monkeypatch.setattr(
        q,
        "_divided_products",
        lambda b, ys, s, left: seen.append((len(ys), s, left)) or real(b, ys, s, left),
    )
    sweep, plain = (
        next(b for b in elements_of_norm(m) if b.is_primitive()) for m in (54, 6)
    )
    assert divisibility_counts(plain, 3) == (1, 1)
    assert [call for call in seen if call[1] == 9] == []
    assert divisibility_counts(sweep, 3) == (1, 1)
    assert [call for call in seen if call[1] == 9] == [(4, 9, True), (4, 9, False)]
    monkeypatch.setattr(
        q, "_divided_products", lambda b, ys, s, left: [b] if s == 9 else real(b, ys, s, left)
    )
    with pytest.raises(ArithmeticError, match="p\\^2 divides a norm-3 product"):
        divisibility_counts(sweep, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_divided_products_match_exact_division(p):
    # the kernel keeps exactly the products _div_scalar keeps, with the same
    # quotients in the same order, on every element of norm <= 60
    reps, conjs = _class_tuples(p)
    ys = reps + conjs
    kept = 0
    for m in range(1, 61):
        for q in elements_of_norm(m):
            b = q.dc
            for left in (True, False):
                products = (_mul(y, b) if left else _mul(b, y) for y in ys)
                oracle = [d for x in products if (d := _div_scalar(x, p)) is not None]
                assert _divided_products(b, ys, p, left) == oracle, (b, p, left)
                kept += len(oracle)
    assert kept > 0


def test_divisibility_counts_forms_class_products_only_for_the_square_check(monkeypatch):
    # the counts divide the class products by p; the p^2 sweep divides them
    # by p^2, on both sides, only when p^3 divides the norm
    import mql.quaternion as q

    calls = []
    real = q._divided_products
    monkeypatch.setattr(
        q, "_divided_products", lambda b, ys, s, left: calls.append(s) or real(b, ys, s, left)
    )
    for m in (6, 18, 30, 42, 54, 250):
        for beta in elements_of_norm(m):
            if beta.is_primitive():
                for p in (3, 5, 7):
                    before = len(calls)
                    divisibility_counts(beta, p)
                    swept = 2 * (m % p ** 3 == 0)
                    assert calls[before:] == [p, p] + [p * p] * swept, (beta, p)
    assert {9, 25} <= set(calls)


def test_divisibility_counts_match_full_orbit_oracle():
    # both predicates are constant on right unit classes, so 24 * count must
    # equal the count over all norm-p elements
    rng = random.Random(6)
    for p in (3, 5):
        full = elements_of_norm(p)
        for _ in range(40):
            beta = random_lattice_element(rng, 6)
            if not beta.is_primitive():
                continue
            counts = divisibility_counts(beta, p)
            left_full = sum(
                1 for al in full if (al.conjugate() * beta).divide_scalar(p) is not None
            )
            right_full = sum(
                1 for al in full if (beta * al).divide_scalar(p) is not None
            )
            assert (left_full, right_full) == (24 * counts.left, 24 * counts.right)
            expected = 1 if beta.norm() % p == 0 else 0
            assert counts == (expected, expected)


def square_divides_some_norm_p_product(x, p):
    """Reference: p^2 divides alpha*x or x*alpha for some alpha of norm p."""
    psq = p * p
    return any(
        _div_scalar(_mul(al.dc, x), psq) is not None
        or _div_scalar(_mul(x, al.dc), psq) is not None
        for al in elements_of_norm(p)
    )


def square_divides_some_class_product(x, p):
    """The sweep of divisibility_counts: p^2 divides conj(alpha)*x or x*alpha
    for some class representative alpha."""
    reps, conjs = _class_tuples(p)
    sq = p * p
    return bool(_divided_products(x, conjs, sq, True) or _divided_products(x, reps, sq, False))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_check_on_class_products_matches_full_sweep(p):
    # Every order element with doubled coordinates in [-3, 3], and p times
    # each: p^2 divides a norm-p product with p*y exactly when p divides one
    # with y, which happens for some y, so both outcomes occur.
    box = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
        if a & 1 == b & 1 == c & 1 == d & 1
    ]
    seen = set()
    for x in box + [tuple(p * v for v in y) for y in box]:
        swept = square_divides_some_norm_p_product(x, p)
        assert square_divides_some_class_product(x, p) == swept, x
        seen.add(swept)
    assert seen == {False, True}


# ------------------------------------------------------------- tuple kernel

def hamilton_product(x, y):
    """Reference product on rational coordinates: (a + bi + cj + dk)/2 from
    doubled coordinates, multiplied by the Hamilton rules, doubled back."""
    a1, b1, c1, d1 = (Fraction(v, 2) for v in x)
    a2, b2, c2, d2 = (Fraction(v, 2) for v in y)
    prod = (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )
    assert all((2 * v).denominator == 1 for v in prod)
    return tuple(int(2 * v) for v in prod)


def division_chain_index(q):
    """Reference index by the division chain: strip the odd content, then
    divide on the left by the uniformizer until the norm is 2 mod 4."""
    n = gcd(*q.integer_coords())
    while n % 2 == 0:
        n //= 2
    beta = q.divide_scalar(n)
    u = 0
    while beta.norm() % 4 == 0:
        beta = exact_divide(beta, UNIFORMIZER, "left")
        u += 1
    assert beta.is_primitive()
    return (q.norm(), u, n)


coords = st.integers(-10**6, 10**6)
order_elements = st.builds(
    lambda x, half: HurwitzQuaternion(*(2 * v + half for v in x)),
    st.tuples(coords, coords, coords, coords),
    st.integers(0, 1),
)


@st.composite
def dual_lattice_points(draw):
    x = draw(
        st.tuples(coords, coords, coords, coords).filter(
            lambda t: any(t) and sum(t) % 2 == 0
        )
    )
    q = HurwitzQuaternion.from_integral(*x)
    for _ in range(draw(st.integers(0, 8))):
        q = UNIFORMIZER * q
    return q.scale(draw(st.sampled_from([1, 3, 5, 9, 15, 27, 35])))


@given(dual_lattice_points())
def test_closed_form_index_matches_division_chain(q):
    assert _lattice_index(q.dc) == tuple(decompose(q)[0]) == division_chain_index(q)


def primitive_by_norm_and_gcd(q):
    """Integral, nonzero, reduced norm 2 mod 4 and coordinate gcd 1."""
    ints = q.integer_coords()
    if ints is None or q.is_zero():
        return False
    return q.norm() % 4 == 2 and gcd(*ints) == 1


@given(
    st.one_of(order_elements, dual_lattice_points(), st.just(HurwitzQuaternion(0, 0, 0, 0))),
    st.sampled_from([1, 2, 3, 4, 5, 9, 15]),
)
def test_is_primitive_matches_norm_and_gcd_definition(q, k):
    q = q.scale(k)
    assert q.is_primitive() == primitive_by_norm_and_gcd(q)


def test_is_primitive_matches_norm_and_gcd_definition_on_a_box():
    outcomes = set()
    for dc in itertools.product(range(-4, 5), repeat=4):
        if len({v & 1 for v in dc}) == 1:
            q = HurwitzQuaternion(*dc)
            outcomes.add(q.is_primitive())
            assert q.is_primitive() == primitive_by_norm_and_gcd(q), dc
    assert outcomes == {True, False}


@given(st.integers(0, 20), st.integers(0, 500), st.integers(0, 250_000))
def test_decompose_inverts_representative(u, h, j):
    # a valid index is K = 2**u * n**2 * m with n odd and m = 2 mod 4
    n, m = 2 * h + 1, 4 * j + 2
    idx = CanonicalIndex((1 << u) * n * n * m, u, n)
    assert decompose(representative(idx))[0] == idx


same_parity_tuples = st.builds(
    lambda x, half: tuple(2 * v + half for v in x),
    st.tuples(coords, coords, coords, coords),
    st.integers(0, 1),
)


@given(same_parity_tuples, st.one_of(same_parity_tuples, st.none()))
def test_element_is_its_doubled_coordinate_tuple(t, s):
    s = t if s is None else s
    q, r = HurwitzQuaternion(*t), HurwitzQuaternion(*s)
    assert q.dc == t and (q.a, q.b, q.c, q.d) == t
    assert (q == r) == (t == s) and (q != r) == (t != s)
    assert (q < r) == (t < s) and (r < q) == (s < t)
    assert hash(q) == hash(t)
    assert repr(q) == "HurwitzQuaternion({}, {}, {}, {})".format(*t)


@given(order_elements, order_elements)
def test_norm_multiplicative_and_parity_closure(x, y):
    # the constructor checks that product and sum keep the parity invariant
    prod = HurwitzQuaternion(*_mul(x.dc, y.dc))
    assert prod.norm() == x.norm() * y.norm()
    HurwitzQuaternion(*(x + y).dc)


@given(order_elements, order_elements)
def test_tuple_product_matches_quaternion_product(x, y):
    assert _mul(x.dc, y.dc) == (x * y).dc == hamilton_product(x.dc, y.dc)


@given(order_elements, st.sampled_from([3, 5, 7]), st.sampled_from([1, 2, 3, 5, 7, 9, 25, 49]))
def test_square_check_on_class_products_matches_full_sweep_wide(x, p, k):
    x = x.scale(k).dc
    assert square_divides_some_class_product(x, p) == square_divides_some_norm_p_product(x, p)


# ----------------------------------------------------------------- parsing

def test_parse_and_format_roundtrip():
    cases = [
        "1-ij",
        "2ij",
        "1/2+1/2i+1/2j+1/2k",
        "-3/2-1/2i-1/2j-1/2k",
        "1+i-j+k",
        "0",
        "3,0,0,-3",
        "1/2,1/2,-1/2,1/2",
    ]
    for text in cases:
        q = parse_quaternion(text)
        assert parse_quaternion(str(q)) == q


def test_parse_rejects_garbage():
    for text in ("", "1+q", "1/3", "1,2,3", "1..2", "i+", "1/2+1i/2", "1/2+i", "1/2,1,0,0",
                 "1/0i", "1/0+i", "2e200000,0,0,0", "1E5,0,0,0"):
        with pytest.raises(ValueError):
            parse_quaternion(text)
