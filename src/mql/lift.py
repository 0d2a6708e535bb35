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
ints and Fractions lifts exactly, any other source to floats.

Presentation layers (the Hecke engine in particular) multiply by sqrt(K) to
recover raw coefficients.  Entries at invalid indices, or with u < 0, read as
the plain number 0 on both backends (formal values add to and compare with
it); lookups beyond the table bound or of a missing row raise, naming it,
since a silent zero would corrupt eigenvalue extraction downstream.  One
rule, CoefficientTable._check_rows, decides that a table's rows are exactly
the valid indices with K <= k_max: a table file passes it on load, and
check_maass before it reads each neighbour straight from the entries.
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
    UnassignedSymbolError,
    _check_epsilon,
    combine,
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
        _check_epsilon(self.epsilon)


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
        _check_epsilon(self.epsilon)
        if self.backend not in ("formal", "numeric"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def indices(self):
        return sorted(self.entries)

    def value_at(self, K: int, u: int, n: int):
        """Entry at (K, u, n); the number 0 at invalid indices or negative u,
        on either backend; error beyond the bound and at a missing row."""
        if not is_valid_index(K, u, n):
            return 0
        return self._read((K, u, n))

    def _read(self, key: tuple):
        """Entry at a valid index given as a plain (K, u, n) tuple, which
        hashes like its CanonicalIndex; error beyond the bound or at a missing row."""
        if key[0] > self.k_max:
            K, u, n = key
            raise TableBoundsError(
                f"index ({K},{u},{n}) exceeds table bound K_max={self.k_max}"
            )
        if (value := self.entries.get(key)) is None:
            raise ValueError(f"missing row {tuple(key)} of a table with k_max={self.k_max}")
        return value

    def _check_rows(self):
        """Unless the rows are exactly the valid indices <= k_max, raise
        ValueError naming the least missing row, else the least row that is
        not one.  One walk over _index_blocks looks up each valid index; until
        a miss each step finds a distinct row, so it takes at most rows + 1
        steps.  The least missing row has K <= min(k_max, 4 rows + 2), as the
        (K, 0, 1) there outnumber the rows: the work grows with the rows."""
        entries, k_max = self.entries, self.k_max
        walked = 0
        for u, n, b, ms in _index_blocks(k_max):
            for m in ms:
                if (b * m, u, n) not in entries:
                    valid = valid_indices(min(k_max, 4 * len(entries) + 2))
                    self._read(next(k for k in valid if k not in entries))  # raises
            walked += len(ms)
        if walked < len(entries):
            bad = min(k for k in entries if k[0] > k_max or not is_valid_index(*k))
            raise ValueError(f"row {tuple(bad)} is not a valid index <= k_max={k_max}")


def _index_blocks(k_max: int):
    """The valid indices with K <= k_max, in blocks (u, n, base, ms): the
    K = base * m, base = 2**u * n**2 with n odd, for the m = 2 mod 4 in ms."""
    u = 0
    while 2 << u <= k_max:
        n = 1
        while (2 << u) * n * n <= k_max:
            base = (1 << u) * n * n
            yield u, n, base, range(2, k_max // base + 1, 4)
            n += 2
        u += 1


def valid_indices(k_max: int) -> list:
    """All valid indices with K <= k_max, sorted by (K, u, n), enumerated
    directly by (u, n, m)."""
    out = [CanonicalIndex(base * m, u, n) for u, n, base, ms in _index_blocks(k_max) for m in ms]
    out.sort()
    return out


def lift_coefficient(index, epsilon: int) -> FormalCoefficient:
    """The normalized lifted coefficient at a valid index, as a symbol sum."""
    K, u, n = index
    if not is_valid_index(K, u, n):
        raise ValueError(f"invalid index {(K, u, n)}")
    _check_epsilon(epsilon)
    h = K // ((2 << u) * n * n)  # m/2 for K = 2**u n**2 m
    terms = _block_terms(u, n, epsilon)
    return FormalCoefficient._from_numerators({c * h: s for c, s in terms})


def _block_terms(u: int, n: int, epsilon: int) -> list:
    """The terms (c, sign) of the lift at the indices (2**u n**2 m, u, n),
    m = 2 mod 4, by ascending c, which is ascending symbol order: the entry
    is sum sign * C(c * m/2), one term per t <= u and d | n, with
    c = 2**(u-t) * (n/d)**2 and sign (-epsilon)**t.  As
    K / (2**(t+1) d**2) = c * m/2, each symbol is an integer, and each
    (t, d) gives a distinct one."""
    base = (1 << u) * n * n
    return sorted(
        ((base >> t) // (d * d), (-epsilon) ** t)
        for t in range(u + 1)
        for d in _odd_divisors(n)
    )


def _lift_entries(k_max: int, epsilon: int, values, den) -> dict:
    """The entries of the lift at every valid index with K <= k_max, keyed
    and inserted in sorted index order, filled one index block at a time,
    each block's _block_terms listed once.

    With values None the entries are symbol sums.  Otherwise every symbol
    must have a value: with den an int, values are int numerators over den,
    summed exactly into one Fraction(total, den) per entry; with den None
    each term float(sign) * value is added to 0.0 in ascending symbol order,
    the sum evaluate forms.
    """
    pairs = []
    for u, n, base, ms in _index_blocks(k_max):
        terms = _block_terms(u, n, epsilon)
        halves = range(1, 2 * len(ms), 2)  # m // 2 for m in ms
        if values is None:
            column = [
                FormalCoefficient._from_numerators({c * h: s for c, s in terms})
                for h in halves
            ]
        else:
            column = [0 if den else 0.0] * len(ms)
            for c, s in terms:
                w = s if den else float(s)
                column = [x + w * values[c * h] for x, h in zip(column, halves)]
            if den:
                column = [Fraction(x, den) for x in column]
        pairs.extend(zip([CanonicalIndex(base * m, u, n) for m in ms], column))
    return dict(sorted(pairs))  # the keys are distinct, so no value is compared


def build_lift_table(source: SourceForm, k_max: int) -> CoefficientTable:
    """Lift a source form to a table over all valid indices with K <= k_max.

    A source of ints and Fractions lifts exactly, to Fraction entries summed
    on int numerators over one common denominator; any other source lifts to
    float entries, each the float sum that evaluate(lift_coefficient(idx,
    epsilon), values) forms.  A numeric source needs a value at every symbol
    C(1) .. C(k_max // 2), which is every symbol the table reads; the
    smallest one missing raises UnassignedSymbolError.
    """
    values, den = source.values, None
    if values is not None:
        missing = next((M for M in range(1, k_max // 2 + 1) if M not in values), None)
        if missing is not None:
            raise UnassignedSymbolError(f"unassigned symbol {missing}")
        if all(isinstance(v, (int, Fraction)) for v in values.values()):
            # Linearity: lift int numerators over one denominator.
            den = math.lcm(*(v.denominator for v in values.values()))
            values = {m: v.numerator * (den // v.denominator) for m, v in values.items()}
    entries = _lift_entries(k_max, source.epsilon, values, den)
    backend = "formal" if values is None else "numeric"
    return CoefficientTable(source.epsilon, k_max, entries, backend)


def dyadic_depth(N: int) -> int:
    """The 2-adic valuation of N: the u of the index (2N, u, 1) of C(N)."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return (N & -N).bit_length() - 1


def source_coefficient(table: CoefficientTable, N: int):
    """Recover the N-th source coefficient from a Maass-space table.

    Returns a(2N, u, 1) + epsilon * a(N, u-1, 1) with u the dyadic depth of N
    (TableBoundsError for 2N > k_max); on a formal lifted table this is C(N).
    """
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
    of max_rel_err.  A bound below 4 raises ValueError: no index there has
    u >= 1 or n > 1, so nothing would be checked; so do rows that are not the
    valid indices with K <= k_max.  Past that check, every index a check
    refers to is a valid one below the checked index, so a row, read directly.
    """
    if table.k_max < 4:
        raise ValueError(f"table bound {table.k_max} is below 4: no index to check")
    table._check_rows()
    eps, entries = table.epsilon, table.entries
    # Fraction * float is float(Fraction) * float: a float entry takes f1, f2.
    a1, a2 = Fraction(-3 * eps, 2), Fraction(-1, 2)
    f1, f2 = float(a1), float(a2)
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
        lhs = entries[idx]
        if n > 1:
            rhs = sum(entries[K // (d * d), u, 1] for d in _odd_divisors(n))
            record(rel_err(lhs, rhs), idx, divisor_failures)
        if u >= 1:
            v = entries[K // 2, u - 1, n]
            rhs = (f1 if type(v) is float else a1) * v
            if u >= 2:
                v = entries[K // 4, u - 2, n]
                rhs = rhs + (f2 if type(v) is float else a2) * v
            err = rel_err(reduce_eigen2(lhs, eps), reduce_eigen2(rhs, eps))
            record(err, idx, dyadic_failures)
    passed = not dyadic_failures and not divisor_failures
    return MaassCheckReport(passed, eps, checked, max_err, dyadic_failures, divisor_failures)


def random_maass_table(epsilon: int, seed: int, k_max: int) -> CoefficientTable:
    """The exact lift of a random rational source that is an eigenform at 2.

    The free values a(m, 0, 1) = C(m/2), m = 2 mod 4, are drawn in ascending
    m, deterministically for a fixed seed, as Fraction(randint(-999, 999),
    randint(1, 24)); the even coefficients follow from
    C(2M) = (-epsilon/2) C(M), so the table passes check_maass exactly.  The
    source is held as int numerators over den = lcm(1..24) * 2**top, 2**top
    the largest power of two up to k_max // 2, so that every halving is an
    exact shift, and lifted as build_lift_table lifts it.
    """
    _check_epsilon(epsilon)
    rng = random.Random(seed)
    top = max(k_max // 2, 1).bit_length() - 1
    den = math.lcm(*range(1, 25)) << top
    num = {
        m // 2: rng.randint(-999, 999) * (den // rng.randint(1, 24))
        for m in range(2, k_max + 1, 4)
    }
    for N in range(2, k_max // 2 + 1, 2):
        num[N] = -epsilon * num[N // 2] >> 1
    return CoefficientTable(epsilon, k_max, _lift_entries(k_max, epsilon, num, den), "numeric")


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


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return type(value) is int


def _is_number(value) -> bool:
    """A JSON number (an int or float, not a bool) whose float value is finite."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite_float(value) -> float:
    """A finite JSON number as a float."""
    if not _is_number(value):
        raise ValueError(f"value {value!r} is not a finite JSON number")
    return float(value)


def table_from_json_dict(obj: dict) -> CoefficientTable:
    """Inverse of table_to_json_dict.

    k_max, epsilon and each row's K, u and n must be JSON integers; the first
    that is not raises ValueError naming its field or row.  A row with K
    beyond k_max, a repeated index, a numeric value that is not a finite JSON
    number (a bool or a string included) or a formal value that is not a JSON
    object raises ValueError naming the row's (K, u, n); then _check_rows
    names the least missing row, else the least row that is not a valid index.
    """
    backend = obj["backend"]
    for field in ("k_max", "epsilon"):
        if not _is_int(obj[field]):
            raise ValueError(f"{field!r} = {obj[field]!r} is not an integer")
    k_max = obj["k_max"]
    decode = formal_from_json_obj if backend == "formal" else _finite_float
    entries = {}
    for pos, row in enumerate(obj["entries"]):
        K, u, n = row["K"], row["u"], row["n"]
        if not (_is_int(K) and _is_int(u) and _is_int(n)):
            raise ValueError(f"entries[{pos}]: K, u, n = {K!r}, {u!r}, {n!r} are not all integers")
        idx = CanonicalIndex(K, u, n)
        if idx.K > k_max:
            raise ValueError(f"row {tuple(idx)} exceeds the table bound k_max={k_max}")
        if idx in entries:
            raise ValueError(f"duplicate row {tuple(idx)}")
        try:
            entries[idx] = decode(row["value"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {tuple(idx)}: {exc}") from None
    table = CoefficientTable(obj["epsilon"], k_max, entries, backend)
    table._check_rows()
    return table
