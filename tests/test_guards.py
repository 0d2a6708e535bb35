"""Argument guards and small forms that no other test reaches: each case is a
call and what it must return or raise."""

from fractions import Fraction

import pytest

from mql.cli import _json_text
from mql.formal import FormalCoefficient, formal_to_json_obj, reduce_eigen2
from mql.lift import (
    CoefficientTable,
    build_lift_table,
    dyadic_depth,
    random_maass_table,
    source_coefficient,
    SourceForm,
)
from mql.quaternion import (
    HurwitzQuaternion,
    _div_scalar,
    exact_divide,
    parse_quaternion,
    three_squares,
)
from mql.spectral import sigma_descriptor, synth_eigenform

C = FormalCoefficient.symbol
Q = HurwitzQuaternion.from_integral


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: repr(C(1) - C(3) * 2 + C(5) * Fraction(1, 2) - C(7)),
         "C(1)-2*C(3)+1/2*C(5)-C(7)"),
        (lambda: repr(FormalCoefficient.zero()), "0"),
        (lambda: C(1) == "C(1)", False),
        (lambda: _json_text(formal_to_json_obj(FormalCoefficient.zero())), "{}"),
        (lambda: Q(3, 1, 0, 0) - Q(1, 1, 1, 1), Q(2, 0, -1, -1)),
        (lambda: three_squares(-1), (ValueError, "m must be non-negative")),
        (lambda: three_squares(7), (ValueError, "7 has no admissible three-square")),
        (lambda: exact_divide(Q(2, 0, 0, 0), Q(1, 0, 0, 0), side="up"),
         (ValueError, "side must be 'left' or 'right', got 'up'")),
        (lambda: exact_divide(Q(2, 0, 0, 0), Q(0, 0, 0, 0)),
         (ZeroDivisionError, "quaternion divisor must be nonzero")),
        (lambda: _div_scalar((2, 0, 0, 0), 0), (ZeroDivisionError, "scalar divisor")),
        (lambda: parse_quaternion("1,x,0,0"), (ValueError, "bad component 'x' in '1,x,0,0'")),
        (lambda: dyadic_depth(0), (ValueError, "N must be positive, got 0")),
        (lambda: source_coefficient(build_lift_table(SourceForm(1), 8), 0),
         (ValueError, "N must be positive, got 0")),
        (lambda: reduce_eigen2(C(2), 0), (ValueError, "epsilon must be +-1, got 0")),
        (lambda: CoefficientTable(2, 8, {}, "numeric"), (ValueError, "epsilon must be +-1, got 2")),
        (lambda: CoefficientTable(1, 8, {}, "x"), (ValueError, "unknown backend 'x'")),
        (lambda: random_maass_table(2, 0, 8), (ValueError, "epsilon must be +-1, got 2")),
        (lambda: synth_eigenform(2, {}, 8), (ValueError, "epsilon must be +-1, got 2")),
        (lambda: sigma_descriptor(3), (ValueError, "odd place needs lambda_p")),
    ],
    ids=[
        "formal-repr",
        "formal-repr-zero",
        "formal-eq-str",
        "formal-json-zero",
        "quaternion-sub",
        "three-squares-negative",
        "three-squares-7",
        "exact-divide-side",
        "exact-divide-by-zero",
        "div-scalar-by-zero",
        "parse-bad-component",
        "dyadic-depth-0",
        "source-coefficient-0",
        "reduce-eigen2-epsilon",
        "table-epsilon",
        "table-backend",
        "random-maass-epsilon",
        "synth-epsilon",
        "sigma-odd-without-lambda",
    ],
)
def test_guard(call, expected):
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as info:
            call()
        assert message in str(info.value)
    else:
        assert call() == expected
