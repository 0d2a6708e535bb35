"""Hecke double-coset operators on coefficient tables.

The operator action is computed literally by class enumeration: a canonical
representative beta of the requested index is produced, the finitely many
quaternion products the coset decomposition prescribes are formed, the
canonical index of each is found, and the table is read at those indices.
Everything happens in raw (un-normalized) coefficient space A = sqrt(K) * a,
in floating point: the eigenvalue identities carry sqrt(p) and sqrt(2)
factors that have no place in the rational layer.

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
kernel of the quaternion module, so no wrapper object is built per term.

Each term's index is known without forming its product.  The norm is
multiplicative and p is odd, so every term of one family has the same norm
K' and the same u' = v2(K') - 1: Kp for the kept products of H2 and H4, K/p
for the divided ones, K/p^2, p^2 K and K for the three parts of H3, 2K and
K/2 for T2 (u' = u + 1 and u - 1).  A point of the order with even norm lies
in the dual lattice, and every product read has even norm, so none is
tested for membership.  T2 and the outer terms of H3 need no product at all:
multiplying by w keeps the odd content n, beta/p lies in the order exactly
when p | n, with content n/p, and p beta has content p n.  At u = 0,
beta w^-1 has odd norm K/2, lies off the dual lattice and reads as zero, so
it is not read.  The class sums read each class's odd content off the
pattern of beta mod p (see ``_action``): H2 and H4 form no product, and H3
forms p + 1, one per left class.  A divided product p does not divide reads
as +0.0 in a sum that starts at 0, so it is skipped, as exact division
would skip it.  Each family adds its terms one at a time into a running
float, in class order, and the H3 middle sum threads a single float through
all its families, so no sum is regrouped.  The literal class products
survive in ``divisibility_counts`` and in the tests' reference.

Every read of the table goes through a raw view, which forms
float(a) * sqrt(K) on the first read of an index and keeps it, as it keeps
the class patterns met so far, and each public call makes exactly one:
``stability_sweep`` shares its view, and one list of representatives,
across all its images, and ``verify_eigen_relations`` across its bases,
every operator ratio and its lambda_p ladders.  An index that fails
``is_valid_index`` raises ArithmeticError instead of reading as zero.
``stability_sweep`` checks each image by ``check_maass`` alone; the H3
p-power shift identity is its divisor-sum row at (2p^m, 0, p^l).

Lookups that would pass the table bound raise TableBoundsError rather than
zero-fill; a truncation here would silently corrupt every ratio computed
downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from typing import Optional

from .formal import rel_err
from .lift import CoefficientTable, TableBoundsError, check_maass, valid_indices
from .quaternion import (
    CanonicalIndex,
    _W,
    _class_tuples,
    _conj,
    _divided_products,
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


class _RawView:
    """Un-normalized coefficients of one table, each formed on the first read
    of its index and kept for the later reads; the only reader of table values
    in this module.

    The value is float(table._read(key)) * sqrt(K), the bits a single lookup
    gives (a Fraction entry times a float is float(entry) times it), so they
    do not depend on the memo; a formal entry raises TypeError.  The index is
    checked with is_valid_index on its first read only; bounds go through
    ``_read``, so a lookup past the table raises TableBoundsError.  The view
    also keeps the class pattern of each residue it has met, so a public call
    shares them across its images and starts with none.
    """

    __slots__ = ("table", "_seen", "_patterns")

    def __init__(self, table: CoefficientTable):
        self.table = table
        self._seen = {}
        self._patterns = {}

    def raw(self, key: tuple) -> float:
        """The coefficient at a canonical (K, u, n)."""
        value = self._seen.get(key)
        if value is None:
            if not is_valid_index(*key):
                raise ArithmeticError(f"index {tuple(key)} is not valid")
            value = self._seen[key] = float(self.table._read(key)) * math.sqrt(key[0])
        return value

    def pattern(self, x: tuple, p: int) -> tuple:
        """``_class_pattern(x, p)``, formed once per residue of x mod p."""
        key = (p, x[0] % p, x[1] % p, x[2] % p, x[3] % p)
        found = self._patterns.get(key)
        if found is None:
            found = self._patterns[key] = _class_pattern(x, p)
        return found


def _class_pattern(x: tuple, p: int) -> tuple:
    """The pattern (L, R) of a nonzero point x at p: L[j] is 1 when p divides
    conj(alpha_j) x and R[j] is 1 when p divides x alpha_j, else 0, over the
    norm-p class representatives alpha_j in order.

    One ``_divided_products`` call per side forms the products p divides, and
    each quotient q names its class: with m = N(x)/p, an integer whenever p
    divides such a product, q conj(x) = m conj(alpha_j) on the left and
    conj(x) q = m alpha_j on the right."""
    reps, conjs = _class_tuples(p)
    cx = _conj(x)
    m = sum(v * v for v in x) // (4 * p)
    left = {tuple(v // m for v in _mul(q, cx)) for q in _divided_products(x, conjs, p, True)}
    right = {tuple(v // m for v in _mul(cx, q)) for q in _divided_products(x, reps, p, False)}
    return tuple(int(c in left) for c in conjs), tuple(int(a in right) for a in reps)


def _action(op: HeckeOperator, view: _RawView):
    """The operator as a function act(idx, b) from an index and the doubled
    coordinates b of a representative of it to the raw image coefficient,
    reading the source through ``view``.

    The class sums read each term's index off a pattern, not off a product.
    Write b = n x with x of odd content 1, and let alpha run over the norm-p
    class representatives.  Lemma: whether p divides conj(alpha) x or
    x alpha depends on x mod p alone, as p is odd and the raw convolution is
    bilinear over Z; and such a product has odd content 1 or p, since
    alpha conj(alpha) = p, so an odd prime q != p, or p^2, dividing it would
    divide p x and so q or p would divide x.  With (L, R) = ``_class_pattern``
    of x, conj(alpha_j) beta has content n p^L[j] and beta alpha_j has
    n p^R[j]; a divided term reads that over p, and is skipped when that is
    not an integer.  The H3 middle term conj(alpha_j) beta alpha_k / p has
    content n p^(L[j] + R(g)[k]) / p with g = conj(alpha_j) x / p^L[j], so it
    takes one product per class j.  The view keeps each residue's pattern.
    """
    raw = view.raw
    if op.kind == "T2":
        # beta w has index (2K, u + 1, n), and beta w^-1 = beta conj(w) / 2
        # has (K/2, u - 1, n) for u >= 1: multiplying by w keeps the odd
        # content.  At u = 0 its norm K/2 is odd, off the dual lattice.
        def t2(idx, b):
            K, u, n = idx
            down = raw((K // 2, u - 1, n)) if u else 0.0
            return 2.0 * (down + raw((2 * K, u + 1, n)))

        return t2
    p = op.prime
    pattern = view.pattern

    def split(b, n):
        """The odd contents (n p^e) / p for e = 0, 1, 2 (0 where that is not
        an integer), and x = b / n."""
        x = b if n == 1 else (b[0] // n, b[1] // n, b[2] // n, b[3] // n)
        return (0 if n % p else n // p, n, n * p), x

    def add(total, K, u, contents, es, shift):
        """total plus the coefficient at (K, u, contents[e + shift]) for each
        e in es, one at a time in order, skipping a content of 0."""
        for e in es:
            m = contents[e + shift]
            if m:
                total += raw((K, u, m))
        return total

    if op.kind in ("H2", "H4"):
        # Both mirror generators sum over the two families conj(alpha) beta
        # and beta alpha; H4 divides the first by p, H2 the second.
        left = op.kind == "H4"

        def mirror(idx, b):
            K, u, n = idx
            contents, x = split(b, n)
            L, R = pattern(x, p)
            divided, kept = (L, R) if left else (R, L)
            s1 = add(0.0, K // p, u, contents, divided, 0)
            s2 = add(0.0, K * p, u, contents, kept, 1)
            return p * (s1 + s2)

        return mirror
    conjs = _class_tuples(p)[1]

    def h3(idx, b):
        # beta/p lies in the order exactly when p | n, at (K/p^2, u, n/p);
        # p beta is at (p^2 K, u, p n).  The middle sum threads one float.
        K, u, n = idx
        total = p * p * (raw((K // (p * p), u, n // p)) if n % p == 0 else 0.0)
        total += p * p * raw((p * p * K, u, p * n))
        contents, x = split(b, n)
        middle = 0.0
        for c, l in zip(conjs, pattern(x, p)[0]):
            g = _mul(c, x)
            if l:
                g = (g[0] // p, g[1] // p, g[2] // p, g[3] // p)
            middle = add(middle, K, u, contents, pattern(g, p)[1], l)
        return total + p * middle

    return h3


def apply(op: HeckeOperator, table: CoefficientTable, index, beta=None) -> float:
    """The raw coefficient of the operator image at the given index.

    A canonical representative of the index is used unless ``beta`` (any
    representative of the same index) is supplied; the output is a function of
    the index alone.  An index whose closure passes the table bound (as every
    index beyond it does) raises TableBoundsError before beta is checked or
    any class is enumerated, naming an index of norm K * norm_growth that the
    image reads: beta w for T2, p beta for H3, and for H2 and H4 (K p, u, n),
    which all kept class products but at most one read.
    """
    idx = CanonicalIndex(*index)
    if not is_valid_index(*idx):
        raise ValueError(f"invalid index {tuple(idx)}")
    K, u, n = idx
    if K * op.norm_growth > table.k_max:
        if op.kind == "T2":
            u += 1
        elif op.kind == "H3":
            n *= op.prime
        raise TableBoundsError(
            f"index ({K * op.norm_growth},{u},{n}) exceeds table bound K_max={table.k_max}"
        )
    if beta is not None and decompose(beta)[0] != idx:
        raise ValueError(f"beta {beta!r} does not represent index {tuple(idx)}")
    b = (representative(idx) if beta is None else beta).dc
    return _action(op, _RawView(table))(idx, b)


def _images(ops, view: _RawView) -> list:
    """The normalized image of the viewed table under each operator, in one
    sweep: the view and one list of representatives serve every image, each
    cut at its own bound (valid_indices is sorted by K).  The list reaches
    only the largest bound of an operator that reads it; T2 reads none."""
    table = view.table
    bounds = [table.k_max // op.norm_growth for op in ops]
    indices = valid_indices(max(bounds))
    cut = lambda bound: bisect_right(indices, bound, key=attrgetter("K"))
    read = max((bd for op, bd in zip(ops, bounds) if op.kind != "T2"), default=0)
    reps = [representative(idx).dc for idx in indices[: cut(read)]]
    images = []
    for op, bound in zip(ops, bounds):
        act = _action(op, view)
        betas = repeat(None) if op.kind == "T2" else reps
        entries = {
            idx: act(idx, b) / math.sqrt(idx.K) for idx, b in zip(indices[: cut(bound)], betas)
        }
        images.append(CoefficientTable(table.epsilon, bound, entries, "numeric"))
    return images


def hecke_image_table(op: HeckeOperator, table: CoefficientTable) -> CoefficientTable:
    """The operator image as a normalized numeric table.

    The image bound is table.k_max divided by the norm growth of the operator,
    so that every lookup the action needs stays inside the source table.  Each
    entry equals apply(op, table, idx) / sqrt(K) bit for bit.
    """
    return _images([op], _RawView(table))[0]


def _usable_bases(view: _RawView, growth):
    """Indices whose operator closure stays in bounds and whose raw coefficient
    exceeds 1e-9 * max(1, largest such magnitude), in canonical order."""
    cands = [i for i in view.table.indices() if i.K * growth <= view.table.k_max]
    if not cands:
        return []
    raws = {i: view.raw(i) for i in cands}
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
    return _ladder_lambda(_RawView(table), p, tolerance)


def _ladder_lambda(view: _RawView, p: int, tolerance: float) -> float:
    """extract_lambda on the viewed table."""
    usable = [(i, v) for i, v in _usable_bases(view, p) if i.u == 0 and i.n == 1]
    if len(usable) < 3:
        raise NoUsableIndexError(f"no usable index for prime {p}")
    ests = []
    for idx, denom in usable[:8]:
        K = idx.K
        num = view.raw((p * K, 0, 1))
        if K % p == 0:
            num += view.raw((K // p, 0, 1))
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
    view = _RawView(table)
    reports = []
    for p in sorted(primes):
        ops = [HeckeOperator(kind, p) for kind in (("T2",) if p == 2 else ("H2", "H3", "H4"))]
        usable = _usable_bases(view, max(op.norm_growth for op in ops))
        if len(usable) < 10:
            raise NoUsableIndexError(f"only {len(usable)} usable indices at prime {p}, need 10")
        sel = [(i, representative(i).dc, v) for i, v in usable[:12]]
        mu = {}
        max_err = 0.0
        for op in ops:
            act = _action(op, view)
            ratios = [act(i, b) / v for i, b, v in sel]
            mu[op.kind], err = _fit_ratio(ratios)
            max_err = max(max_err, err)
        relations = {"constant": max_err <= tolerance}
        lam = None
        if p == 2:
            expected = -3.0 * math.sqrt(2.0) * table.epsilon
            relations["t2_scalar"] = rel_err(mu["T2"], expected) <= tolerance
        else:
            try:
                lam = _ladder_lambda(view, p, max(tolerance, 1e-9))
            except (NoUsableIndexError, InconsistentRatiosError):
                relations["lambda_extracted"] = False
            else:
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


@dataclass
class StabilityReport:
    """Whether an operator image lands back in the Maass space."""

    prime: int
    kind: str
    image_k_max: int
    maass: object
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kind": self.kind,
            "indices_checked": self.maass.indices_checked,
            "max_rel_err": self.maass.max_rel_err,
            "pass": self.passed,
            "image_k_max": self.image_k_max,
            "maass": self.maass.to_json_dict(),
        }


def stability_check(
    op: HeckeOperator, table: CoefficientTable, tolerance: float = 1e-8
) -> StabilityReport:
    """Recompute the operator image and verify it satisfies both recurrences.

    The input table is expected to pass check_maass already.  An image bound
    below 4 raises ValueError: no index there has u >= 1 or n > 1, so the
    check would pass having checked nothing.
    """
    return stability_sweep([op], table, tolerance)[0]


def stability_sweep(ops, table: CoefficientTable, tolerance: float = 1e-8) -> list:
    """stability_check for each operator in turn, as one sweep: the images
    share one raw view of the table and one list of representatives, cut at
    each image bound, and each image is checked by check_maass alone.  An
    empty list of operators raises ValueError."""
    ops = list(ops)
    if not ops:
        raise ValueError("no operator to check")
    for op in ops:
        bound = table.k_max // op.norm_growth
        if bound < 4:
            raise ValueError(f"{op.kind} image bound {bound} is below 4: no index to check")
    reports = []
    for op, image in zip(ops, _images(ops, _RawView(table))):
        maass = check_maass(image, tolerance)
        reports.append(StabilityReport(op.prime, op.kind, image.k_max, maass, maass.passed))
    return reports


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
    exact rational equalities and in the inverse-free integral form
    w z = h_adj w h.  At the even place the 2x2 quaternionic analogue
    w z g^-1 w = g with z = diag(w2, w2), g = diag(w2, 1) is verified in the
    inverse-free form over doubled coordinates.

    Each matrix is diagonal or w times a diagonal, so each identity is read
    entrywise: w z diag(x)^-1 w = diag(p / x reversed); the nonzero entry
    (i, 3 - i) is p in w z and h_adj[i] * h[3 - i] in h_adj w h; and the
    antidiagonal entries are w2 in w z and w2 * 1, 1 * w2 in g w g.
    """
    checks = []
    for p in odd_primes:
        h = {2: (p, p, p, 1), 3: (p, p, 1, 1), 4: (p, 1, 1, 1)}
        for a, b in ((2, 4), (3, 3), (4, 2)):
            direct = tuple(Fraction(p, d) for d in reversed(h[b])) == h[a]
            integral = all(h[a][i] * h[b][3 - i] == p for i in range(4))
            kind = f"adjoint h{b}->h{a}"
            checks.append({"prime": p, "kind": kind, "pass": direct and integral})
    one = (2, 0, 0, 0)
    integral2 = _mul(_W, one) == _W and _mul(one, _W) == _W
    checks.append({"prime": 2, "kind": "adjoint T2->T2", "pass": integral2})
    return AdjointReport(checks, all(c["pass"] for c in checks))
