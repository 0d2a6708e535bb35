"""Hecke double-coset operators on coefficient tables.

The operator action is computed literally by class enumeration: a canonical
representative beta of the requested index is produced, the finitely many
quaternion products the coset decomposition prescribes are formed, each
product is canonically decomposed, and the table is read at the resulting
indices.  Everything happens in raw (un-normalized) coefficient space
A = sqrt(K) * a, in floating point: the eigenvalue identities carry sqrt(p)
and sqrt(2) factors that have no place in the rational layer.

T2 is the coset of diag(1+i, 1) at the even place; H2, H3, H4 are the three
nontrivial generators at an odd prime p.  Writing A for the raw coefficient
at a dual-lattice point and letting alpha run over the p+1 norm-p unit
classes, the actions are

    T2:  2 ( A(beta w^-1) + A(beta w) ),                w = 1 + i
    H2:  p ( sum A(beta conj(alpha)^-1) + sum A(conj(alpha) beta) )
    H4:  p ( sum A(alpha^-1 beta)       + sum A(beta alpha) )
    H3:  p^2 A(beta/p) + p^2 A(p beta) + p sum_{a1,a2} A(a1^-1 beta a2)

with A read as zero off the dual lattice.  The central generators act
trivially and are not materialized.

The public functions take and return ``HurwitzQuaternion`` values; the class
sums themselves run on plain doubled-coordinate tuples through the private
kernel of the quaternion module (product, exact scalar division, closed-form
canonical index, the cached class tuples), so no wrapper object is built per
product.  Every lookup goes through a raw view of the table, which forms
sqrt(K) * a on the first read of an index and keeps it: ``apply`` makes one
per call, ``stability_sweep`` one for all its images, which also share one
list of representatives.  A point whose closed-form index fails
``is_valid_index`` raises ArithmeticError instead of reading as zero.

Lookups that would pass the table bound raise TableBoundsError rather than
zero-fill; a truncation here would silently corrupt every ratio computed
downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .formal import rel_err
from .lift import CoefficientTable, TableBoundsError, check_maass, valid_indices
from .quaternion import (
    UNIFORMIZER,
    CanonicalIndex,
    HurwitzQuaternion,
    _W,
    _W_CONJ,
    _class_tuples,
    _div_scalar,
    _in_dual_lattice,
    _lattice_index,
    _mul,
    _smallest_odd_prime_factor,
    decompose,
    is_valid_index,
    representative,
)

__all__ = [
    "AdjointReport",
    "EigenReport",
    "HeckeOperator",
    "InconsistentRatiosError",
    "NoUsableIndexError",
    "StabilityReport",
    "adjoint_matrix_identities",
    "apply",
    "extract_lambda",
    "h3_sum_identity_residual",
    "hecke_image_table",
    "stability_check",
    "stability_sweep",
    "verify_eigen_relations",
]

KINDS = ("T2", "H2", "H3", "H4")


class NoUsableIndexError(ValueError):
    """No base index with a usable nonzero coefficient was found."""


class InconsistentRatiosError(ValueError):
    """Ratio estimates disagreed beyond tolerance."""


@dataclass(frozen=True)
class HeckeOperator:
    """One generator of the local Hecke algebra: kind T2 at the even place,
    H2/H3/H4 at an odd prime."""

    kind: str
    prime: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "T2":
            if self.prime != 2:
                raise ValueError("T2 requires prime 2")
        elif _smallest_odd_prime_factor(self.prime) != self.prime:
            raise ValueError(f"{self.kind} requires an odd prime, got {self.prime}")

    @property
    def norm_growth(self) -> int:
        """Factor by which the operator can enlarge the norm of an index."""
        if self.kind == "T2":
            return 2
        return self.prime * self.prime if self.kind == "H3" else self.prime


def _raw(table: CoefficientTable, idx: CanonicalIndex) -> float:
    """Un-normalized coefficient sqrt(K) * a at a valid in-bounds index; a
    formal entry raises TypeError, as it multiplies only by exact numbers."""
    return table.value_at(*idx) * math.sqrt(idx.K)


class _RawView:
    """Un-normalized coefficients of one table at lattice points, each formed
    on the first read of its index and kept for the later reads.

    The value is table._read(key) * sqrt(K) as for a single lookup: a
    Fraction entry meets the float factor as float(entry), so the bits do not
    depend on the memo, and a formal entry raises TypeError.  The closed-form
    index is checked with is_valid_index on its first read only; bounds go
    through ``_read``, so a lookup past the table raises TableBoundsError.
    """

    __slots__ = ("_table", "_seen")

    def __init__(self, table: CoefficientTable):
        self._table = table
        self._seen = {}

    def at(self, q: Optional[tuple]) -> float:
        """The coefficient at a point in doubled coordinates; zero off the
        dual lattice.

        An exact division can land in the order yet outside the dual lattice
        (odd norm); the coefficient function vanishes there.
        """
        if q is None or not _in_dual_lattice(q):
            return 0.0
        key = _lattice_index(q)
        value = self._seen.get(key)
        if value is None:
            if not is_valid_index(*key):
                raise ArithmeticError(f"closed-form index {key} of {q} is not valid")
            value = self._seen[key] = self._table._read(key) * math.sqrt(key[0])
        return value


def _action(op: HeckeOperator, view: _RawView):
    """The operator as a function from a representative's doubled coordinates
    to the raw image coefficient, reading the source through ``view``."""
    at = view.at
    if op.kind == "T2":
        # beta w^-1 = beta conj(w) / 2
        return lambda b: 2.0 * (at(_div_scalar(_mul(b, _W_CONJ), 2)) + at(_mul(b, _W)))
    p = op.prime
    reps, conjs = _class_tuples(p)
    if op.kind in ("H2", "H4"):
        # Both mirror generators sum over the two families conj(alpha) beta
        # and beta alpha; H4 divides the first by p, H2 the second.
        divide_left = op.kind == "H4"

        def mirror(b):
            left = [_mul(c, b) for c in conjs]
            right = [_mul(b, al) for al in reps]
            divided, kept = (left, right) if divide_left else (right, left)
            s1 = sum(at(_div_scalar(q, p)) for q in divided)
            s2 = sum(at(q) for q in kept)
            return p * (s1 + s2)

        return mirror

    def h3(b):
        total = p * p * at(_div_scalar(b, p))
        total += p * p * at(tuple(v * p for v in b))
        middle = 0.0
        for c in conjs:
            a1c_beta = _mul(c, b)
            for a2 in reps:
                middle += at(_div_scalar(_mul(a1c_beta, a2), p))
        return total + p * middle

    return h3


def apply(op: HeckeOperator, table: CoefficientTable, index, beta=None) -> float:
    """The raw coefficient of the operator image at the given index.

    A canonical representative of the index is used unless ``beta`` (any
    representative of the same index) is supplied; the output is a function of
    the index alone.
    """
    idx = CanonicalIndex(*index)
    if not is_valid_index(*idx):
        raise ValueError(f"invalid index {tuple(idx)}")
    if idx.K > table.k_max:
        raise TableBoundsError(
            f"index {tuple(idx)} exceeds table bound K_max={table.k_max}"
        )
    if beta is not None and decompose(beta)[0] != idx:
        raise ValueError(f"beta {beta!r} does not represent index {tuple(idx)}")
    b = (representative(idx) if beta is None else beta).dc
    return _action(op, _RawView(table))(b)


def _images(ops, table: CoefficientTable) -> list:
    """The normalized image of the table under each operator, in one sweep:
    one raw view of the table and one list of representatives serve every
    image, each cut at its own bound (valid_indices is sorted by K)."""
    view = _RawView(table)
    bounds = [table.k_max // op.norm_growth for op in ops]
    reps = [(idx, representative(idx).dc) for idx in valid_indices(max(bounds))]
    images = []
    for op, bound in zip(ops, bounds):
        act = _action(op, view)
        entries = {
            idx: act(b) / math.sqrt(idx.K)
            for idx, b in reps[: bisect_right(reps, bound, key=lambda r: r[0].K)]
        }
        images.append(CoefficientTable(table.epsilon, bound, entries, "numeric"))
    return images


def hecke_image_table(op: HeckeOperator, table: CoefficientTable) -> CoefficientTable:
    """The operator image as a normalized numeric table.

    The image bound is table.k_max divided by the norm growth of the operator,
    so that every lookup the action needs stays inside the source table.  Each
    entry equals apply(op, table, idx) / sqrt(K) bit for bit.
    """
    return _images([op], table)[0]


def _usable_bases(table, growth):
    """Indices whose operator closure stays in bounds and whose raw coefficient
    exceeds 1e-9 * max(1, largest such magnitude), in canonical order."""
    cands = [i for i in table.indices() if i.K * growth <= table.k_max]
    if not cands:
        return []
    raws = {i: _raw(table, i) for i in cands}
    scale = max(abs(v) for v in raws.values())
    cutoff = 1e-9 * max(1.0, scale)
    return [(i, raws[i]) for i in cands if abs(raws[i]) > cutoff]


def extract_lambda(table: CoefficientTable, p: int, tolerance: float = 1e-9) -> float:
    """The odd-prime eigenvalue read off the table along the p-power ladder.

    At a base index (K, 0, 1) with nonzero coefficient the estimate is
    (A(pK,0,1) + A(K/p,0,1)) / A(K,0,1), the second term dropping when p does
    not divide K.  The estimates from the first eight usable bases, of which
    there must be at least three, must agree within the tolerance.
    """
    usable = [
        (i, v)
        for i, v in _usable_bases(table, p)
        if i.u == 0 and i.n == 1
    ]
    if len(usable) < 3:
        raise NoUsableIndexError(f"no usable index for prime {p}")
    ests = []
    for idx, denom in usable[:8]:
        K = idx.K
        num = _raw(table, CanonicalIndex(p * K, 0, 1))
        if K % p == 0:
            num += _raw(table, CanonicalIndex(K // p, 0, 1))
        ests.append(num / denom)
    # max and min skip a NaN that is not first, so a non-finite estimate
    # makes the spread NaN itself, which fails the test below.
    spread = max(ests) - min(ests) if all(map(math.isfinite, ests)) else math.nan
    if not spread <= tolerance * max(1.0, max(abs(e) for e in ests)):
        raise InconsistentRatiosError(
            f"inconsistent eigenvalue estimates at prime {p}: spread {spread:.3e}"
        )
    return ests[0]


@dataclass
class EigenReport:
    """Eigenvalue diagnostics for one prime."""

    prime: int
    mu: dict
    lambda_p: Optional[float]
    relations: dict
    indices_checked: int
    max_rel_err: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kind": ",".join(sorted(self.mu)),
            "mu": dict(sorted(self.mu.items())),
            "lambda_p": self.lambda_p,
            "relations": dict(sorted(self.relations.items())),
            "indices_checked": self.indices_checked,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }


def _fit_ratio(values):
    """First ratio plus the worst relative spread across the rest; the spread
    is inf when a ratio is not finite, so it fails every tolerance test."""
    mu = values[0]
    if not all(map(math.isfinite, values)):
        return mu, math.inf
    scale = max(1.0, max(abs(v) for v in values))
    err = max(abs(v - mu) for v in values) / scale
    return mu, err


def verify_eigen_relations(table: CoefficientTable, primes, tolerance: float = 1e-8) -> list:
    """Fit operator eigenvalues as output/input ratios and check the relations
    mu2 = mu4 = p(p+1) lambda_p and mu3 = p^2 lambda_p^2 + p^3 + p at each odd
    prime, and the scalar -3 sqrt(2) epsilon at the even place.  Each ratio is
    fit on the first 12 usable indices, of which there must be at least 10.

    On a non-eigen table the ratios fail to be constant and the report flags
    it rather than raising.
    """
    reports = []
    for p in sorted(primes):
        if p == 2:
            usable = _usable_bases(table, 2)
            if len(usable) < 10:
                raise NoUsableIndexError("not enough usable indices at prime 2")
            sel = usable[:12]
            op = HeckeOperator("T2", 2)
            ratios = [apply(op, table, i) / v for i, v in sel]
            mu, err = _fit_ratio(ratios)
            expected = -3.0 * math.sqrt(2.0) * table.epsilon
            relations = {
                "constant": err <= tolerance,
                "t2_scalar": rel_err(mu, expected) <= tolerance,
            }
            reports.append(
                EigenReport(
                    2, {"T2": mu}, None, relations, len(sel), err, all(relations.values())
                )
            )
            continue
        usable = _usable_bases(table, p * p)
        if len(usable) < 10:
            raise NoUsableIndexError(f"only {len(usable)} usable indices at prime {p}, need 10")
        sel = usable[:12]
        mu = {}
        max_err = 0.0
        for kind in ("H2", "H3", "H4"):
            op = HeckeOperator(kind, p)
            ratios = [apply(op, table, i) / v for i, v in sel]
            mu[kind], err = _fit_ratio(ratios)
            max_err = max(max_err, err)
        relations = {"constant": max_err <= tolerance}
        lam = None
        try:
            lam = extract_lambda(table, p, tolerance=max(tolerance, 1e-9))
        except (NoUsableIndexError, InconsistentRatiosError):
            relations["lambda_extracted"] = False
        if lam is not None:
            relations["lambda_extracted"] = True
            relations["mu2_eq_mu4"] = rel_err(mu["H2"], mu["H4"]) <= tolerance
            relations["mu2_scaling"] = rel_err(mu["H2"], p * (p + 1) * lam) <= tolerance
            relations["mu3_formula"] = (
                rel_err(mu["H3"], p * p * lam * lam + p ** 3 + p) <= tolerance
            )
        reports.append(
            EigenReport(
                p, mu, lam, relations, len(sel), max_err, all(relations.values())
            )
        )
    return reports


def h3_sum_identity_residual(table: CoefficientTable, p: int, m: int, l: int) -> float:
    """Relative residual of the H3 shift identity at the index (2 p**m, 0, p**l):

        H3 F(2 p^m, 0, p^l) = sum_{i=0..l} p^i H3 F(2 p^(m-2i), 0, 1)

    which expresses that the operator image still satisfies the odd divisor-sum
    recurrence along the p-power tower.  Requires m >= 2l and in-bounds data.
    """
    if m < 2 * l:
        raise ValueError("need m >= 2l for every referenced index to exist")
    op = HeckeOperator("H3", p)
    lhs = apply(op, table, (2 * p ** m, 0, p ** l))
    rhs = sum((p ** i) * apply(op, table, (2 * p ** (m - 2 * i), 0, 1)) for i in range(l + 1))
    return rel_err(lhs, rhs)


@dataclass
class StabilityReport:
    """Whether an operator image lands back in the Maass space."""

    prime: int
    kind: str
    image_k_max: int
    maass: object
    shift_checks: list = field(default_factory=list)
    passed: bool = False

    def to_json_dict(self) -> dict:
        worst_shift = max((r["rel_err"] for r in self.shift_checks), default=0.0)
        return {
            "prime": self.prime,
            "kind": self.kind,
            "indices_checked": self.maass.indices_checked,
            "max_rel_err": max(self.maass.max_rel_err, worst_shift),
            "pass": self.passed,
            "image_k_max": self.image_k_max,
            "maass": self.maass.to_json_dict(),
            "shift_checks": self.shift_checks,
        }


def stability_check(
    op: HeckeOperator, table: CoefficientTable, tolerance: float = 1e-8
) -> StabilityReport:
    """Recompute the operator image and verify it satisfies both recurrences;
    for H3 also run the shift identity at every in-bounds p-power shape.

    The input table is expected to pass check_maass already.  An image bound
    below 4 raises ValueError: no index there has u >= 1 or n > 1, so the
    check would pass having checked nothing.
    """
    return stability_sweep([op], table, tolerance)[0]


def stability_sweep(ops, table: CoefficientTable, tolerance: float = 1e-8) -> list:
    """stability_check for each operator in turn, as one sweep: the images
    share one raw view of the table and one list of representatives, cut at
    each image bound.  An empty list of operators raises ValueError."""
    ops = list(ops)
    if not ops:
        raise ValueError("no operator to check")
    for op in ops:
        bound = table.k_max // op.norm_growth
        if bound < 4:
            raise ValueError(f"{op.kind} image bound {bound} is below 4: no index to check")
    reports = []
    for op, image in zip(ops, _images(ops, table)):
        maass = check_maass(image, tolerance)
        shifts = []
        if op.kind == "H3":
            p = op.prime
            for l in (1, 2):
                m = 2 * l
                while (p ** (m + 2)) * 2 <= table.k_max:
                    res = h3_sum_identity_residual(table, p, m, l)
                    shifts.append({"m": m, "l": l, "rel_err": res})
                    m += 1
        passed = maass.passed and all(r["rel_err"] <= tolerance for r in shifts)
        reports.append(StabilityReport(op.prime, op.kind, image.k_max, maass, shifts, passed))
    return reports


def _mat_mul(A, B, zero):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = zero
            for k in range(inner):
                s = s + A[i][k] * B[k][j]
            out[i][j] = s
    return out


def _diag(values, zero):
    n = len(values)
    return [[values[i] if i == j else zero for j in range(n)] for i in range(n)]


@dataclass
class AdjointReport:
    checks: list
    passed: bool

    def to_json_dict(self) -> dict:
        return {"pass": self.passed, "checks": self.checks}


def adjoint_matrix_identities(odd_primes=(3, 5)) -> AdjointReport:
    """Exact adjoint identities of the double-coset generator matrices.

    At an odd prime, with w the 4x4 antidiagonal permutation and z = p*I, the
    conjugated inverses swap the outer generators and fix the middle one:
    w z h4^-1 w = h2,  w z h3^-1 w = h3,  w z h2^-1 w = h4, verified both as
    exact rational matrix equalities and in the inverse-free integral form
    w z = h_adj w h.  At the even place the 2x2 quaternionic analogue
    w z g^-1 w = g with z = diag(w2, w2), g = diag(w2, 1) is verified in the
    inverse-free form over doubled coordinates.
    """
    checks = []
    for p in odd_primes:
        zero = Fraction(0)
        one = Fraction(1)
        pf = Fraction(p)
        w = [[one if i + j == 3 else zero for j in range(4)] for i in range(4)]
        z = _diag([pf] * 4, zero)
        h = {
            2: _diag([pf, pf, pf, one], zero),
            3: _diag([pf, pf, one, one], zero),
            4: _diag([pf, one, one, one], zero),
        }
        hinv = {
            k: _diag([one / mat[i][i] for i in range(4)], zero) for k, mat in h.items()
        }
        for a, b in ((2, 4), (3, 3), (4, 2)):
            lhs = _mat_mul(_mat_mul(_mat_mul(w, z, zero), hinv[b], zero), w, zero)
            direct = lhs == h[a]
            integral = _mat_mul(w, z, zero) == _mat_mul(
                _mat_mul(h[a], w, zero), h[b], zero
            )
            checks.append(
                {
                    "prime": p,
                    "kind": f"adjoint h{b}->h{a}",
                    "pass": bool(direct and integral),
                }
            )
    qzero = HurwitzQuaternion(0, 0, 0, 0, _check=False)
    qone = HurwitzQuaternion(2, 0, 0, 0, _check=False)
    wq = [[qzero, qone], [qone, qzero]]
    zq = _diag([UNIFORMIZER, UNIFORMIZER], qzero)
    gq = _diag([UNIFORMIZER, qone], qzero)
    integral2 = _mat_mul(wq, zq, qzero) == _mat_mul(
        _mat_mul(gq, wq, qzero), gq, qzero
    )
    checks.append({"prime": 2, "kind": "adjoint T2->T2", "pass": bool(integral2)})
    return AdjointReport(checks, all(c["pass"] for c in checks))
