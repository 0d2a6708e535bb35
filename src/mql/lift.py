"""Coefficient tables on canonical indices: the lift, its inverse, and the two
recurrences cutting out the Maass space.

Tables store NORMALIZED coefficients.  Writing A for the raw coefficient of a
lattice point of norm K, the stored value is a = A / sqrt(K), so that the lift
of a source form with sign epsilon reads

    a(K, u, n) = sum_{t=0..u} sum_{d | n} (-epsilon)**t  C(K / (2**(t+1) d**2)),

a purely rational combination of the source symbols.  In this normalization
the dyadic recurrence becomes

    a(K, u, n) = (-3 eps / 2) a(K/2, u-1, n) - (1/2) a(K/4, u-2, n)

and the odd recurrence loses its divisor weights:

    a(K, u, n) = sum_{d | n} a(K/d**2, u, 1).

Both hold on the lift of a source that is an eigenform at 2, with
C(2M) = (-epsilon/2) C(M); random_maass_table is such a lift.  A source of
ints and Fractions lifts exactly, a float source to floats.

Presentation layers (the Hecke engine in particular) multiply by sqrt(K) to
recover raw coefficients.  Entries at invalid indices, or with u < 0, read as
the plain number 0 on both backends (formal values add to and compare with
it); lookups beyond the table bound raise instead of zero-filling, since a
silent truncation would corrupt eigenvalue extraction downstream.  Table
files are checked row by row on load: a numeric value that is not a finite
JSON number (a bool or a numeric string is not one), or a formal value that
is not a JSON object, is rejected with the row's index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .formal import (
    FormalCoefficient,
    combine,
    evaluate,
    formal_from_json_obj,
    formal_to_json_obj,
    reduce_eigen2,
    rel_err,
)
from .quaternion import CanonicalIndex, is_valid_index

__all__ = [
    "CoefficientTable",
    "MaassCheckReport",
    "SourceForm",
    "TableBoundsError",
    "build_lift_table",
    "check_maass",
    "dyadic_depth",
    "lift_coefficient",
    "random_maass_table",
    "source_coefficient",
    "table_from_json_dict",
    "table_to_json_dict",
    "valid_indices",
]


class TableBoundsError(LookupError):
    """A lookup needed an index beyond the table bound."""


@dataclass(frozen=True)
class SourceForm:
    """A source form: its sign at the even place and, for the numeric backend,
    the coefficient values {M: c(-M)}.  ``values=None`` selects the formal
    backend, where coefficients stay symbols."""

    epsilon: int
    values: Optional[dict] = None

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")


@dataclass
class CoefficientTable:
    """Normalized coefficients keyed by canonical index.

    ``backend`` is "formal" (FormalCoefficient values) or "numeric" (floats or
    exact rationals).
    """

    epsilon: int
    k_max: int
    entries: dict
    backend: str

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")
        if self.backend not in ("formal", "numeric"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def indices(self):
        return sorted(self.entries)

    def value_at(self, K: int, u: int, n: int):
        """Entry at (K, u, n); the number 0 at invalid indices or negative u,
        on either backend; error beyond the bound."""
        if u < 0 or not is_valid_index(K, u, n):
            return 0
        return self._read((K, u, n))

    def _read(self, key: tuple):
        """Entry at a valid index given as a plain (K, u, n) tuple, which
        hashes like its CanonicalIndex; error beyond the bound."""
        if key[0] > self.k_max:
            K, u, n = key
            raise TableBoundsError(
                f"index ({K},{u},{n}) exceeds table bound K_max={self.k_max}"
            )
        return self.entries.get(key, 0)


def valid_indices(k_max: int) -> list:
    """All valid indices with K <= k_max, sorted by (K, u, n).

    They are the K = 2**u * n**2 * m with n odd and m = 2 mod 4, enumerated
    directly by (u, n, m).
    """
    out = []
    u = 0
    while 2 << u <= k_max:
        n = 1
        while (2 << u) * n * n <= k_max:
            base = (1 << u) * n * n
            out.extend(
                CanonicalIndex(base * m, u, n) for m in range(2, k_max // base + 1, 4)
            )
            n += 2
        u += 1
    out.sort()
    return out


def lift_coefficient(index, epsilon: int) -> FormalCoefficient:
    """The normalized lifted coefficient at a valid index, as a symbol sum."""
    K, u, n = index
    if not is_valid_index(K, u, n):
        raise ValueError(f"invalid index {(K, u, n)}")
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +-1, got {epsilon}")
    return _lift_terms(K, u, n, epsilon)


def _lift_terms(K: int, u: int, n: int, epsilon: int) -> FormalCoefficient:
    """lift_coefficient without its checks, for indices and signs known valid."""
    # As K = 2**(u+1) * n**2 * odd, each quotient is exact and each (t, d)
    # gives a distinct symbol.
    divisors = _odd_divisors(n)
    terms = {}
    for t in range(u + 1):
        sign = (-epsilon) ** t
        for d in divisors:
            terms[K // ((2 << t) * d * d)] = sign
    return FormalCoefficient._from_numerators(terms)


def build_lift_table(source: SourceForm, k_max: int) -> CoefficientTable:
    """Lift a source form to a table over all valid indices with K <= k_max;
    int and Fraction values lift exactly, to Fraction entries."""
    values, den = source.values, None
    if values is not None and all(isinstance(v, (int, Fraction)) for v in values.values()):
        # Linearity: lift int numerators over one denominator, one Fraction per entry.
        den = math.lcm(*(v.denominator for v in values.values()))
        values = {m: v.numerator * (den // v.denominator) for m, v in values.items()}
    entries = {}
    # SourceForm has checked epsilon, and valid_indices yields valid indices.
    for idx in valid_indices(k_max):
        value = _lift_terms(*idx, source.epsilon)
        if values is not None:
            value = evaluate(value, values)
        entries[idx] = value if den is None else Fraction(value, den)
    backend = "formal" if values is None else "numeric"
    return CoefficientTable(source.epsilon, k_max, entries, backend)


def dyadic_depth(N: int) -> int:
    """Write N = 4**a * b with 4 not dividing b; return 2a for b = 1, 3 mod 4
    and 2a + 1 for b = 2 mod 4."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    a = 0
    while N % 4 == 0:
        N //= 4
        a += 1
    return 2 * a + (1 if N % 4 == 2 else 0)


def source_coefficient(table: CoefficientTable, N: int):
    """Recover the N-th source coefficient from a Maass-space table.

    Returns a(2N, u, 1) + epsilon * a(N, u-1, 1) with u the dyadic depth of N;
    on a formal lifted table this is exactly the symbol C(N).
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if 2 * N > table.k_max:
        raise TableBoundsError(f"need K = {2 * N} but table bound is {table.k_max}")
    u = dyadic_depth(N)
    return combine(
        table.value_at(2 * N, u, 1), table.value_at(N, u - 1, 1), 1, table.epsilon
    )


@lru_cache(maxsize=None)
def _odd_divisors(n: int) -> tuple:
    return tuple(d for d in range(1, n + 1, 2) if n % d == 0)


@dataclass
class MaassCheckReport:
    """Outcome of the recurrence checks on a table."""

    passed: bool
    epsilon: int
    indices_checked: int
    max_rel_err: float
    dyadic_failures: list
    divisor_sum_failures: list

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "epsilon": self.epsilon,
            "indices_checked": self.indices_checked,
            "max_rel_err": self.max_rel_err,
            "dyadic_failures": [list(i) for i in self.dyadic_failures],
            "divisor_sum_failures": [list(i) for i in self.divisor_sum_failures],
        }


def check_maass(table: CoefficientTable, tolerance: float = 1e-8) -> MaassCheckReport:
    """Check both Maass-space recurrences at every index of the table.

    Formal backend: the odd divisor-sum recurrence must hold exactly as
    written, the dyadic recurrence exactly after the eigenform-at-2 reduction.
    Numeric backend: both are checked to the relative tolerance, and a NaN
    fails.  An exact mismatch has no finite size, so it is listed but left out
    of max_rel_err.  All indices a check refers to are below the checked index,
    so nothing can leave the table bound here.
    """
    eps = table.epsilon
    a1, a2 = Fraction(-3 * eps, 2), Fraction(-1, 2)
    dyadic_failures = []
    divisor_failures = []
    max_err = 0.0
    checked = 0

    def record(err, idx, failures):
        nonlocal max_err, checked
        checked += 1
        if err < math.inf:
            max_err = max(max_err, err)
        if not err <= tolerance:
            failures.append(idx)

    for idx in table.indices():
        K, u, n = idx
        lhs = table.entries[idx]
        if n > 1:
            rhs = sum(table.value_at(K // (d * d), u, 1) for d in _odd_divisors(n))
            record(rel_err(lhs, rhs), idx, divisor_failures)
        if u >= 1:
            rhs = a1 * table.value_at(K // 2, u - 1, n)
            if u >= 2:
                rhs = rhs + a2 * table.value_at(K // 4, u - 2, n)
            err = rel_err(reduce_eigen2(lhs, eps), reduce_eigen2(rhs, eps))
            record(err, idx, dyadic_failures)
    passed = not dyadic_failures and not divisor_failures
    return MaassCheckReport(
        passed, eps, checked, max_err, dyadic_failures, divisor_failures
    )


def random_maass_table(epsilon: int, seed: int, k_max: int) -> CoefficientTable:
    """The exact lift of a random rational source that is an eigenform at 2.

    The free values a(m, 0, 1) = C(m/2), m = 2 mod 4, are drawn in ascending
    m, deterministically for a fixed seed; the even coefficients follow from
    C(2M) = (-epsilon/2) C(M), so the table passes check_maass exactly.
    """
    rng = random.Random(seed)
    source = {
        m // 2: Fraction(rng.randint(-999, 999), rng.randint(1, 24))
        for m in range(2, k_max + 1, 4)
    }
    half = Fraction(-epsilon, 2)
    for N in range(2, k_max // 2 + 1, 2):
        source[N] = half * source[N // 2]
    return build_lift_table(SourceForm(epsilon, source), k_max)


def table_to_json_dict(table: CoefficientTable) -> dict:
    """JSON form: metadata plus the entry array sorted by (K, u, n)."""
    rows = [
        {"K": i.K, "u": i.u, "n": i.n, "value": formal_to_json_obj(table.entries[i])}
        for i in table.indices()
    ]
    return {
        "epsilon": table.epsilon,
        "k_max": table.k_max,
        "backend": table.backend,
        "entries": rows,
    }


def _finite_float(value) -> float:
    """A JSON number (an int or float, not a bool) as a finite float."""
    if type(value) not in (int, float):  # a bool is not a JSON number here
        raise ValueError(f"value {value!r} is not a JSON number")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {value!r}")
    return x


def table_from_json_dict(obj: dict) -> CoefficientTable:
    """Inverse of table_to_json_dict.

    k_max, epsilon and each row's K, u and n must be JSON integers; the first
    that is not raises ValueError naming its field or row.  The rows must be
    exactly the valid indices with K <= k_max, each once.  A row with an
    invalid index, K beyond k_max, a repeated index, a numeric value that is
    not a finite JSON number (a bool or a string included) or a formal value
    that is not a JSON object raises ValueError naming the row's (K, u, n);
    so does the first missing index.
    """
    backend = obj["backend"]
    for field in ("k_max", "epsilon"):
        if type(obj[field]) is not int:  # a bool is not an int here
            raise ValueError(f"{field!r} = {obj[field]!r} is not an integer")
    k_max = obj["k_max"]
    decode = formal_from_json_obj if backend == "formal" else _finite_float
    entries = {}
    for pos, row in enumerate(obj["entries"]):
        K, u, n = row["K"], row["u"], row["n"]
        if not (type(K) is type(u) is type(n) is int):
            raise ValueError(f"entries[{pos}]: K, u, n = {K!r}, {u!r}, {n!r} are not all integers")
        idx = CanonicalIndex(K, u, n)
        if not is_valid_index(*idx):
            raise ValueError(f"invalid index {tuple(idx)} in table file")
        if idx.K > k_max:
            raise ValueError(f"row {tuple(idx)} exceeds the table bound k_max={k_max}")
        if idx in entries:
            raise ValueError(f"duplicate row {tuple(idx)}")
        try:
            entries[idx] = decode(row["value"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {tuple(idx)}: {exc}") from None
    # Every row is now a distinct valid index <= k_max.  Each K = 2 mod 4 is
    # valid (u = 0, n = 1), so if any index <= k_max is missing, the first
    # one has K <= top + 4, where top is the largest K present.
    top = max((idx.K for idx in entries), default=0)
    for idx in valid_indices(min(k_max, top + 4)):
        if idx not in entries:
            raise ValueError(f"missing row {tuple(idx)} of a table with k_max={k_max}")
    return CoefficientTable(obj["epsilon"], k_max, entries, backend)
