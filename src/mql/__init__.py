"""Exact-arithmetic engine for quaternionic Maass lifts over the Hurwitz order.

The package computes the lift of level-2 Maass cusp form coefficients to
coefficient tables on the 5-dimensional hyperbolic space, characterizes the
image through two exact recurrences, applies the Hecke operators by quaternion
class enumeration, and verifies the spectral consequences: eigenvalue
relations, Satake parameters, and the failure of the naive temperedness bound.
"""

from .formal import FormalCoefficient, combine, evaluate, reduce_eigen2
from .hecke import (
    HeckeOperator,
    adjoint_matrix_identities,
    apply,
    extract_lambda,
    hecke_image_table,
    stability_check,
    stability_sweep,
    verify_eigen_relations,
)
from .lift import (
    CoefficientTable,
    SourceForm,
    TableBoundsError,
    build_lift_table,
    check_maass,
    dyadic_depth,
    lift_coefficient,
    random_maass_table,
    source_coefficient,
)
from .quaternion import (
    CanonicalIndex,
    HurwitzQuaternion,
    UNIFORMIZER,
    decompose,
    divisibility_counts,
    elements_of_norm,
    exact_divide,
    is_valid_index,
    parse_quaternion,
    representative,
    unit_class_reps,
    units,
)
from .spectral import (
    LocalDescriptor,
    SatakeParams,
    SyntheticEigenform,
    ramanujan_violation_check,
    satake_from_lambda,
    sigma_descriptor,
    synth_eigenform,
    verify_cn_relations,
)

__version__ = "0.1.0"
