"""Ring laws, evaluation and the even-symbol reduction of the formal layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mql.formal import (
    FormalCoefficient,
    UnassignedSymbolError,
    combine,
    evaluate,
    formal_from_json_obj,
    formal_to_json_obj,
    reduce_eigen2,
)

C = FormalCoefficient.symbol


def random_formal(rng):
    return FormalCoefficient(
        {rng.randint(1, 30): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))}
    )


def test_combine_examples():
    assert combine(C(1), C(1), 1, 1) == C(1).scale(2)
    assert combine(C(2), C(2), 1, -1) == FormalCoefficient.zero()
    half = Fraction(1, 2)
    assert combine(C(9) + C(1), C(9) - C(1), half, half) == C(9)


def test_zero_terms_dropped():
    x = FormalCoefficient({1: Fraction(0), 2: Fraction(3)})
    assert x.items() == ((2, Fraction(3)),)
    assert (x - x).is_zero()


def test_module_laws_random():
    rng = random.Random(10)
    for _ in range(10_000):
        a, b, c = random_formal(rng), random_formal(rng), random_formal(rng)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + b).scale(s) == a.scale(s) + b.scale(s)
        assert a.scale(s) + a.scale(1 - s) == a


def test_evaluate_examples():
    assert evaluate(C(1).scale(2), {1: 0.5}) == pytest.approx(1.0)
    assert evaluate(C(2) - C(1), {1: 1.0, 2: -0.5}) == pytest.approx(-1.5)
    assert evaluate(FormalCoefficient.zero(), {}) == 0.0


def test_evaluate_is_homomorphism():
    rng = random.Random(11)
    values = {m: rng.uniform(-3, 3) for m in range(1, 31)}
    for _ in range(500):
        a, b = random_formal(rng), random_formal(rng)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        lhs = evaluate(combine(a, b, s, t), values)
        rhs = float(s) * evaluate(a, values) + float(t) * evaluate(b, values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_evaluate_missing_symbol():
    with pytest.raises(UnassignedSymbolError, match="unassigned symbol 7"):
        evaluate(C(7), {1: 1.0})


def test_reduce_examples():
    assert reduce_eigen2(C(2), 1) == C(1).scale(Fraction(-1, 2))
    assert reduce_eigen2(C(4), 1) == C(1).scale(Fraction(1, 4))
    assert reduce_eigen2(C(3), 1) == C(3)
    assert reduce_eigen2(C(3), -1) == C(3)
    assert reduce_eigen2(C(2), -1) == C(1).scale(Fraction(1, 2))


def test_reduce_idempotent_and_odd_only():
    rng = random.Random(12)
    for eps in (1, -1):
        for _ in range(500):
            x = random_formal(rng)
            r = reduce_eigen2(x, eps)
            assert reduce_eigen2(r, eps) == r
            assert all(m % 2 == 1 for m, _ in r.items())


def test_reduce_is_linear():
    rng = random.Random(13)
    for _ in range(200):
        a, b = random_formal(rng), random_formal(rng)
        assert reduce_eigen2(a + b, 1) == reduce_eigen2(a, 1) + reduce_eigen2(b, 1)


def test_json_roundtrip_and_sorted_keys():
    x = FormalCoefficient({9: Fraction(1), 1: Fraction(-1, 2), 4: Fraction(7, 3)})
    obj = formal_to_json_obj(x)
    assert list(obj) == ["1", "4", "9"]
    assert obj["1"] == "-1/2"
    assert formal_from_json_obj(obj) == x


def test_symbol_index_validation():
    with pytest.raises(ValueError):
        FormalCoefficient({0: Fraction(1)})


# ------------------------------------------------------------ number protocol

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
formals = st.dictionaries(st.integers(1, 40), rationals, max_size=5).map(FormalCoefficient)
signs = st.sampled_from([1, -1])


@given(formals)
def test_zero_is_additive_identity(x):
    assert 0 + x == x + 0 == x
    assert Fraction(0) + x == x - 0 == x
    assert sum([x, x]) == x.scale(2)


@given(formals, rationals)
def test_number_multiplies_from_either_side(x, s):
    assert s * x == x * s == x.scale(s)
    assert s.numerator * x == x * s.numerator == x.scale(s.numerator)


@given(formals)
def test_equals_zero_iff_no_terms(x):
    assert (x == 0) == (0 == x) == (x == Fraction(0)) == x.is_zero()
    assert (x != 0) == (not x.is_zero())


@given(formals, formals, st.lists(st.integers(1, 40), max_size=3))
def test_equal_values_hash_equal(x, y, zero_terms):
    same = FormalCoefficient(list(reversed(x.items())) + [(m, 0) for m in zero_terms])
    assert same == x and hash(same) == hash(x)
    assert hash(x + y - y) == hash(x)
    if x.is_zero():
        assert hash(x) == hash(0) == hash(Fraction(0))


@given(formals, formals, rationals, rationals, signs)
def test_reduce_eigen2_is_linear_and_fixes_numbers(a, b, s, t, eps):
    lhs = reduce_eigen2(s * a + t * b, eps)
    assert lhs == s * reduce_eigen2(a, eps) + t * reduce_eigen2(b, eps)
    assert reduce_eigen2(s, eps) is s
    assert reduce_eigen2(0.25, eps) == 0.25


# ------------------------------------- integer numerators vs a Fraction model

def _clean(terms):
    return {m: q for m, q in terms.items() if q}


def _ref_reduce(terms, eps):
    """The even-symbol reduction on a {M: Fraction} dict, step by step."""
    acc = {}
    for m, q in terms.items():
        while m % 2 == 0:
            m //= 2
            q *= Fraction(-eps, 2)
        acc[m] = acc.get(m, 0) + q
    return _clean(acc)


# symbols 2**t * odd reach deep dyadic chains; coefficients include non-dyadic ones
symbols = st.builds(lambda t, o: (2 * o + 1) << t, st.integers(0, 12), st.integers(0, 20))
ref_terms = st.dictionaries(
    symbols, st.fractions(min_value=-50, max_value=50, max_denominator=40), max_size=6
)
scalars = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=15)
)
unit_floats = st.floats(-1e3, 1e3, allow_nan=False)


exact_values = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


@given(
    ref_terms, ref_terms, scalars, signs,
    st.lists(unit_floats, min_size=1, max_size=8),
    st.lists(exact_values, min_size=1, max_size=8),
)
def test_matches_fraction_reference(a, b, s, eps, pool, exact_pool):
    x, y = FormalCoefficient(a), FormalCoefficient(b)
    assert dict(x.items()) == _clean(a)
    assert dict((x + y).items()) == _clean({m: a.get(m, 0) + b.get(m, 0) for m in a | b})
    assert dict((x - y).items()) == _clean({m: a.get(m, 0) - b.get(m, 0) for m in a | b})
    assert dict(x.scale(s).items()) == _clean({m: q * s for m, q in a.items()})
    reduced = _ref_reduce(a, eps)
    assert dict(reduce_eigen2(x, eps).items()) == reduced
    values = {m: pool[m % len(pool)] for m in set(a) | set(reduced)}
    expected = 0.0
    for m, q in sorted(_clean(a).items()):
        expected += float(q) * values[m]
    assert evaluate(x, values) == expected
    exact = {m: exact_pool[m % len(exact_pool)] for m in values}
    got = evaluate(x, exact)
    assert isinstance(got, (int, Fraction))
    assert got == sum(q * exact[m] for m, q in _clean(a).items())
    obj = formal_to_json_obj(x)
    assert obj == {str(m): str(q) for m, q in sorted(_clean(a).items())}
    assert formal_from_json_obj(obj) == x


@pytest.mark.parametrize(
    "text", [" 3/4", "+3", "1_0", "1.5", "3/04", "-0", "٣", "", "-", "1/0", "-12/8", "7"]
)
def test_decoder_accepts_exactly_what_fraction_accepts(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            formal_from_json_obj({"1": text})
    else:
        assert formal_from_json_obj({"1": text}) == FormalCoefficient({1: expected})


def test_hot_path_builds_no_fraction(monkeypatch):
    x = FormalCoefficient({12: 1, 3: -1, 40: Fraction(5, 4)})
    y = FormalCoefficient({6: 2, 3: Fraction(1, 4)})
    s = Fraction(-3, 2)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    z = s * x + 3 * y - x + 0
    assert z == z.scale(1) and z != x
    r = reduce_eigen2(z, 1)
    evaluate(r, {3: 0.5, 5: -1.0})
    assert formal_from_json_obj(formal_to_json_obj(z)) == z
    assert built == []
