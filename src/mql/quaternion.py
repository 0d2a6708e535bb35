"""Exact arithmetic in the Hurwitz quaternion order and its dual lattice.

Quaternions are stored in doubled coordinates: ``HurwitzQuaternion(a, b, c, d)``
represents (a + b*i + c*j + d*k)/2 with i**2 = j**2 = k**2 = -1 and ij = -ji = k.
The Hurwitz order is exactly the set of points whose doubled coordinates share
one parity, so membership tests, products and exact divisions all stay in plain
integer arithmetic.

The dual lattice of the order under the pairing Re = tr/2 is the two-sided
ideal generated by 1 + i; concretely it is the set of integral quaternions of
even reduced norm.  Every nonzero dual-lattice element splits uniquely as

    (1 + i)**u * n * beta0

with n an odd positive integer and beta0 primitive (norm 2 mod 4, coordinate
gcd 1).  The triple (K, u, n) with K the reduced norm is the canonical index
that coefficient tables elsewhere in the package are keyed by.

The index has a closed form that needs no division.  For q = (x, y, z, w)
with integer coordinates, K = x^2 + y^2 + z^2 + w^2, u = v2(K) - 1 and n is
the odd part of gcd(x, y, z, w).  Indeed K = 2**u * n**2 * N(beta0) with
N(beta0) = 2 mod 4 and n odd, which gives u; and multiplying by 1 + i sends
(x, y, z, w) to (x - y, x + y, z - w, z + w), so an odd prime divides every
coordinate of (1 + i)**u * beta0 exactly when it divides every coordinate of
beta0, which it does not, beta0 being primitive; hence n is the odd part of
the coordinate gcd of q.

This module also supplies the combinatorial layer behind the Hecke operators:
enumeration of elements by reduced norm, the 24-element unit group, canonical
representatives of the norm-p unit classes, and divisibility counts of the
products of those representatives with a primitive element.  Both the counts
and the check that p^2 never divides a norm-p product with a primitive
element read the products with the p + 1 representatives alone, on each
side, and form only those the divisor divides: every norm-p element is a
representative times a unit, and a unit is invertible in the order, so
multiplying by it changes no divisibility by an integer.
Enumeration by norm (``_norm_tuples``) pairs up the sums of two squares from
one table, so each element costs a lookup rather than a search, and yields
plain tuples; ``elements_of_norm`` wraps and caches them for the public API.
The unit classes are found on those tuples: a class's representative is the
least member of its orbit under the 24 units, and a closed-form test on the
coordinates picks out the few elements that can be one, so only those build
their orbit and only the p + 1 representatives are wrapped.

``HurwitzQuaternion`` is the boundary type: every public function takes and
returns it.  An element is one tuple of doubled coordinates, ``dc``, read by
``a`` to ``d`` and never changed, so a cached element stays what it was.  Its
constructor always checks that the doubled coordinates share one parity;
coordinates the package computes itself, already known to lie in the order,
are wrapped without the check by ``_wrap``.  Inside the package the hot loops
(the Hecke operators, the divisibility sweep, unit-class orbits,
norm enumeration, ``decompose``) run on plain ``(a, b, c, d)`` tuples of
doubled coordinates through a small private kernel, which spares a wrapper
object per intermediate result: ``_mul`` (the product formula),
``_div_scalar`` (exact division by an integer, or None), ``_divided_products``
(the quotients by an odd s of the products of one element with a list, each
product formed one coordinate at a time and dropped at the first coordinate s
does not divide; s is a prime p or its square) and ``_lattice_index`` (the
closed-form index above).  The Hecke class sums form almost no products:
they call ``_divided_products`` once per side and residue mod p, to learn
which classes p divides, and read every term's index off that.
``_divided_products`` skips nothing that
``_div_scalar`` would keep: for odd s, s divides a product exactly when it
divides every coordinate of the raw convolution, and the quotient then has
the product's parity.  Primitivity reads the same closed form: an element is
primitive exactly when its index is (K, 0, 1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import add, attrgetter, sub
from typing import NamedTuple, Optional

__all__ = [
    "CanonicalIndex",
    "DivisibilityCounts",
    "HurwitzQuaternion",
    "UNIFORMIZER",
    "decompose",
    "divisibility_counts",
    "elements_of_norm",
    "exact_divide",
    "is_valid_index",
    "parse_quaternion",
    "representative",
    "three_squares",
    "unit_class_reps",
    "units",
]


class HurwitzQuaternion:
    """A quaternion of the Hurwitz order, held as its doubled coordinates ``dc``."""

    __slots__ = ("_dc",)

    def __init__(self, a: int, b: int, c: int, d: int):
        p = a & 1
        if (b & 1) != p or (c & 1) != p or (d & 1) != p:
            raise ValueError(f"doubled coordinates must share one parity: {(a, b, c, d)}")
        self._dc = (a, b, c, d)

    @classmethod
    def from_integral(cls, x: int, y: int, z: int, w: int) -> "HurwitzQuaternion":
        """The element x + y*i + z*j + w*k with integer coordinates."""
        return _wrap((2 * x, 2 * y, 2 * z, 2 * w))

    dc = property(attrgetter("_dc"))
    a = property(lambda self: self._dc[0])
    b = property(lambda self: self._dc[1])
    c = property(lambda self: self._dc[2])
    d = property(lambda self: self._dc[3])

    def __eq__(self, other):
        return isinstance(other, HurwitzQuaternion) and self._dc == other._dc

    def __hash__(self):
        return hash(self._dc)

    def __lt__(self, other):
        return self._dc < other._dc

    def __repr__(self):
        return f"HurwitzQuaternion{self._dc}"

    def __str__(self):
        parts = []
        for v, unit in zip(self._dc, ("", "i", "j", "k")):
            if v == 0:
                continue
            q = Fraction(v, 2)
            mag = abs(q)
            if unit and mag == 1:
                body = unit
            elif unit:
                body = f"{mag}{unit}"
            else:
                body = str(mag)
            parts.append(("-" if q < 0 else "+") + body)
        if not parts:
            return "0"
        head = parts[0].lstrip("+")
        return head + "".join(parts[1:])

    def __add__(self, other):
        return _wrap(tuple(map(add, self._dc, other._dc)))

    def __sub__(self, other):
        return _wrap(tuple(map(sub, self._dc, other._dc)))

    def __neg__(self):
        return _wrap(tuple(-v for v in self._dc))

    def __mul__(self, other):
        return _wrap(_mul(self._dc, other._dc))

    def conjugate(self) -> "HurwitzQuaternion":
        return _wrap(_conj(self._dc))

    def norm(self) -> int:
        """Reduced norm; a non-negative integer on the order."""
        return sum(v * v for v in self._dc) // 4

    def trace(self) -> int:
        """Reduced trace x + conj(x); equals the first doubled coordinate."""
        return self._dc[0]

    def is_zero(self) -> bool:
        return not any(self._dc)

    def scale(self, k: int) -> "HurwitzQuaternion":
        return _wrap(tuple(v * k for v in self._dc))

    def divide_scalar(self, s: int) -> Optional["HurwitzQuaternion"]:
        """self / s when the quotient stays in the order, else None."""
        q = _div_scalar(self._dc, s)
        return None if q is None else _wrap(q)

    def integer_coords(self) -> Optional[tuple]:
        """(x, y, z, w) when all coordinates are integers, else None; the
        doubled coordinates share the parity of the first."""
        if self._dc[0] & 1:
            return None
        return tuple(v // 2 for v in self._dc)

    def in_dual_lattice(self) -> bool:
        """Integral coordinates with even coordinate sum (= even reduced norm)."""
        return _in_dual_lattice(self._dc)

    def is_primitive(self) -> bool:
        """Nonzero dual-lattice element with norm 2 mod 4 and coordinate gcd 1,
        that is, of canonical index (K, 0, 1).  The closed form needs no
        membership test first: u = 0 means K = 2 mod 4, while a point with odd
        doubled coordinates has odd K."""
        return not self.is_zero() and _lattice_index(self._dc)[1:] == (0, 1)


# -- tuple kernel: doubled coordinates (a, b, c, d) as plain int tuples ------

_W = (2, 2, 0, 0)  # 1 + i
_W_CONJ = (2, -2, 0, 0)  # 1 - i


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two order elements.  The doubled coordinates of the product
    are half of the raw convolution; the halves are exact whenever both
    factors have valid parity."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2) // 2,
        (a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2) // 2,
        (a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2) // 2,
        (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2) // 2,
    )


def _wrap(x: tuple) -> HurwitzQuaternion:
    """The boundary type on doubled coordinates known to share one parity,
    built without the constructor's check; every build inside the package
    goes through here."""
    q = object.__new__(HurwitzQuaternion)
    q._dc = x
    return q


#: 1 + i, the even-place uniformizer; the dual lattice is its two-sided ideal.
UNIFORMIZER = _wrap(_W)


def _conj(x: tuple) -> tuple:
    a, b, c, d = x
    return (a, -b, -c, -d)


def _div_scalar(x: tuple, s: int) -> Optional[tuple]:
    """x / s when the quotient stays in the order, else None."""
    if s == 0:
        raise ZeroDivisionError("scalar divisor must be nonzero")
    s = abs(s)
    a, b, c, d = x
    if a % s or b % s or c % s or d % s:
        return None
    a, b, c, d = a // s, b // s, c // s, d // s
    p = a & 1
    if (b & 1) != p or (c & 1) != p or (d & 1) != p:
        return None
    return (a, b, c, d)


def _in_dual_lattice(x: tuple) -> bool:
    """Integer coordinates (all doubled ones even) with even coordinate sum."""
    a, b, c, d = x
    return not ((a | b | c | d) & 1 or (a + b + c + d) & 3)


def _lattice_index(x: tuple) -> tuple:
    """The canonical index (K, u, n) of a nonzero dual-lattice point, in
    closed form (see the module docstring): n is the odd part of the
    coordinate gcd, as the gcd of the doubled coordinates is twice that of
    the integer ones, with the same odd part."""
    a, b, c, d = x
    K = (a * a + b * b + c * c + d * d) // 4
    g = gcd(a, b, c, d)
    return (K, (K & -K).bit_length() - 2, g // (g & -g))


class CanonicalIndex(NamedTuple):
    """The invariants (K, u, n) of a dual-lattice element."""

    K: int
    u: int
    n: int


class DivisibilityCounts(NamedTuple):
    """Counts of norm-p class representatives alpha with p | conj(alpha)*beta
    (``left``) respectively p | beta*alpha (``right``)."""

    left: int
    right: int


def is_valid_index(K: int, u: int, n: int) -> bool:
    """True when (K, u, n) indexes an actual dual-lattice element.

    The criterion is that the cofactor m = K / (2**u * n**2) is an integer
    congruent to 2 mod 4; equivalently a representative of the index exists.
    For u >= 0 and odd n >= 1 that is _lattice_index's closed form,
    (K & -K).bit_length() - 2 == u and K % n**2 == 0; no 2**u is formed, so
    the cost does not depend on u.
    """
    if K < 1 or u < 0 or n < 1 or n % 2 == 0:
        return False
    return (K & -K).bit_length() - 2 == u and K % (n * n) == 0


def _norm_tuples(m: int) -> list:
    """The doubled coordinates of all order elements of reduced norm m, as a
    sorted list of tuples.

    The doubled coordinates (a, b, c, d) share one parity and have
    a^2 + b^2 + c^2 + d^2 = 4m.  One table maps each sum x^2 + y^2 <= 4m of an
    equal-parity pair to its pairs (x, y); every (a, b) then meets its (c, d)
    in a single lookup of the remainder.  Parity needs no check: an even pair
    sums to 0 mod 4 and an odd pair to 2 mod 8, so the remainder of an even
    (a, b) is a sum of even pairs only, and that of an odd one of odd pairs.
    """
    if m < 1:
        raise ValueError("norm must be positive")
    target = 4 * m
    r = isqrt(target)
    pairs = {}
    for x in range(-r, r + 1):
        ymax = isqrt(target - x * x)
        if (ymax - x) & 1:
            ymax -= 1
        for y in range(-ymax, ymax + 1, 2):
            pairs.setdefault(x * x + y * y, []).append((x, y))
    out = [
        ab + cd
        for s, abs_ in pairs.items()
        if (cds := pairs.get(target - s))
        for ab in abs_
        for cd in cds
    ]
    out.sort()
    return out


@lru_cache(maxsize=None)
def elements_of_norm(m: int) -> tuple:
    """All order elements of reduced norm m, sorted by doubled coordinates
    (``_norm_tuples`` wrapped)."""
    return tuple(map(_wrap, _norm_tuples(m)))


def units() -> tuple:
    """The 24 units of the order, as a fixed ordered tuple."""
    return elements_of_norm(1)


def _smallest_odd_prime_factor(n: int):
    """The least prime factor of an odd n >= 3, which is n itself exactly when
    n is prime; None for even n or n < 3.  So ``_smallest_odd_prime_factor(p)
    == p`` tests whether p is an odd prime."""
    if n < 3 or n % 2 == 0:
        return None
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


_OMEGA = (-1, 1, 1, 1)  # (-1 + i + j + k)/2, a unit of order 3
_OMEGA2 = (-1, -1, -1, -1)  # omega^2 = conj(omega)


def _unit_orbit(x: tuple) -> set:
    """The products x * u over the 24 units u, as a set of tuples.

    The units are Q8 = {+-1, +-i, +-j, +-k} times 1, omega and omega^2, and
    right multiplication by Q8 is a signed shuffle of the coordinates (x * i
    = (-b, a, d, -c), x * j = (-c, -d, a, b), x * k = (-d, c, -b, a)), so the
    orbit takes two products.
    """
    orbit = set()
    for a, b, c, d in (x, _mul(x, _OMEGA), _mul(x, _OMEGA2)):
        orbit.update((
            (a, b, c, d), (-b, a, d, -c), (-c, -d, a, b), (-d, c, -b, a),
            (-a, -b, -c, -d), (b, -a, -d, c), (c, d, -a, -b), (d, -c, b, -a),
        ))
    return orbit


@lru_cache(maxsize=None)
def unit_class_reps(p: int) -> tuple:
    """Canonical representatives of the norm-p elements modulo right unit
    multiplication.

    There are exactly p + 1 classes of 24 elements each; the representative of
    a class is its smallest member in doubled-coordinate order, and the tuple
    is sorted, so the output is deterministic.

    The classes are found on tuples, and only the representatives are
    wrapped.  The orbit of x = (a, b, c, d) is x * Q8, x * omega * Q8 and
    x * omega^2 * Q8, and right multiplication by Q8 brings each coordinate
    of its left factor to the front with either sign, so the least member of
    the orbit leads with -M, where M is the largest |coordinate| of x,
    x * omega and x * omega^2.  The coordinates of x * omega and
    x * omega^2 are (a +- b +- c +- d)/2 over all eight signs, so
    M = max(|a|, |b|, |c|, |d|, (|a| + |b| + |c| + |d|)/2), and a = -M holds
    exactly when -a >= |b| + |c| + |d|.  Only the elements that pass this
    test build their orbit, and each is kept when it is the orbit's least
    member.  Every orbit's least member passes, so this keeps exactly the
    orbit minima, in enumeration order, and builds every orbit, checking
    that it has 24 members, at least once.  The test needs a < 0 and
    a^2 >= b^2 + c^2 + d^2 = 4p - a^2, which no element after the first
    with a^2 < 2p meets, so the ascending scan stops there.
    """
    if _smallest_odd_prime_factor(p) != p:
        raise ValueError(f"p must be an odd prime, got {p}")
    reps = []
    for x in _norm_tuples(p):
        a, b, c, d = x
        if a * a < 2 * p:
            break
        if -a < abs(b) + abs(c) + abs(d):
            continue
        orbit = _unit_orbit(x)
        if len(orbit) != 24:
            raise ArithmeticError(f"unit class of {_wrap(x)!r} has size {len(orbit)}")
        if x == min(orbit):
            reps.append(x)
    if len(reps) != p + 1:
        raise ArithmeticError(f"expected {p + 1} classes at {p}, found {len(reps)}")
    return tuple(map(_wrap, reps))


def decompose(q: HurwitzQuaternion):
    """Split a nonzero dual-lattice element as uniformizer**u * n * beta0.

    Returns ``(CanonicalIndex(K, u, n), beta0)``: K is the reduced norm of q,
    n the largest odd integer dividing all coordinates, u = v2(K) - 1 the
    number of left divisions by (1 - i)/2 that bring the norm to 2 mod 4, and
    beta0 the primitive part.  The index comes in closed form; the divisions
    are carried out only to build beta0, which is checked to be primitive.
    The factorization is exact and unique.
    """
    x = q.dc
    if not any(x) or not _in_dual_lattice(x):
        raise ValueError(f"not a nonzero dual-lattice element: {q!r}")
    K, u, n = _lattice_index(x)
    beta = x if n == 1 else _div_scalar(x, n)
    for _ in range(u):
        beta = _div_scalar(_mul(_W_CONJ, beta), 2)
        if beta is None:
            raise ArithmeticError(f"uniformizer division left the order at {q!r}")
    if _lattice_index(beta)[1:] != (0, 1):
        raise ArithmeticError(f"decomposition of {q!r} did not reach a primitive part")
    return CanonicalIndex(K, u, n), _wrap(beta)


@lru_cache(maxsize=None)
def three_squares(m: int) -> tuple:
    """Deterministic (x, y, z) with x >= y >= z >= 0, x^2+y^2+z^2 = m and not
    all of x, y, z odd; smallest (z, y, x) first."""
    if m < 0:
        raise ValueError("m must be non-negative")
    for z in range(isqrt(m // 3) + 1):
        rz = m - z * z
        for y in range(z, isqrt(rz // 2) + 1):
            r = rz - y * y
            x = isqrt(r)
            if x * x == r and x >= y and not (x & 1 and y & 1 and z & 1):
                return (x, y, z)
    raise ValueError(f"{m} has no admissible three-square representation")


def representative(index) -> HurwitzQuaternion:
    """A dual-lattice element whose canonical decomposition equals ``index``.

    The primitive part is assembled as x + y*i + z*j + k from the deterministic
    three-square representation of the cofactor minus one, then the uniformizer
    power and the odd content are multiplied back on.
    """
    K, u, n = index
    if not is_valid_index(K, u, n):
        raise ValueError(f"no representative exists for index {(K, u, n)}")
    m = K // ((1 << u) * n * n)
    x, y, z = three_squares(m - 1)
    beta = (2 * x, 2 * y, 2 * z, 2)
    for _ in range(u):
        beta = _mul(_W, beta)
    a, b, c, d = beta
    return _wrap((a * n, b * n, c * n, d * n))


def exact_divide(x: HurwitzQuaternion, by, side: str = "left"):
    """Divide x by ``by`` exactly or not at all.

    ``by`` may be an integer scalar or a quaternion.  For a quaternion divisor
    q the result is q**-1 * x (side "left") or x * q**-1 (side "right"),
    computed through the conjugate; None is returned whenever the quotient
    leaves the order.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(by, HurwitzQuaternion):
        if by.is_zero():
            raise ZeroDivisionError("quaternion divisor must be nonzero")
        prod = by.conjugate() * x if side == "left" else x * by.conjugate()
        return prod.divide_scalar(by.norm())
    return x.divide_scalar(by)


@lru_cache(maxsize=None)
def _class_tuples(p: int) -> tuple:
    """The norm-p class representatives alpha and their conjugates, as two
    tuples of doubled coordinates in representative order."""
    reps = tuple(al.dc for al in unit_class_reps(p))
    return reps, tuple(_conj(al) for al in reps)


def _divided_products(b: tuple, ys, s: int, left: bool) -> list:
    """The quotients by an odd s of the products y * b (``left``) or b * y
    over ys, keeping only those s divides, in ys order: the same tuples as
    ``_div_scalar(_mul(.), s)`` where that is not None.  The Hecke sums and
    the divisibility counts divide by a prime p, the square check by p^2.

    Each product is built one coordinate of the raw convolution at a time,
    and a coordinate s does not divide ends it.  As s is odd, s divides the
    product exactly when it divides the raw convolution, and the quotient
    has the product's parity, so the order check of ``_div_scalar`` always
    passes.  The two sides differ only in the sign of the cross terms.
    """
    e, f, g, h = b
    sf, sg, sh = (f, g, h) if left else (-f, -g, -h)
    s2 = 2 * s
    out = []
    for w, x, y, z in ys:
        r0 = e * w - f * x - g * y - h * z
        if r0 % s:
            continue
        r1 = f * w + e * x + sh * y - sg * z
        if r1 % s:
            continue
        r2 = g * w - sh * x + e * y + sf * z
        if r2 % s:
            continue
        r3 = h * w + sg * x - sf * y + e * z
        if r3 % s:
            continue
        out.append((r0 // s2, r1 // s2, r2 // s2, r3 // s2))
    return out


def divisibility_counts(beta: HurwitzQuaternion, p: int) -> DivisibilityCounts:
    """Count norm-p unit classes whose product with a primitive beta is
    divisible by p.

    ``left`` counts classes alpha with p | conj(alpha) * beta and ``right``
    those with p | beta * alpha.  Both predicates are constant on right unit
    classes, so the counts do not depend on the chosen representatives; each
    equals 1 exactly when p divides the norm of beta, else 0.  The counts
    form only the products p divides (``_divided_products`` at p).

    The square p^2 never divides such a product; that is enforced here and a
    violation raises, since it would be a genuine arithmetic bug.  The check
    runs only when p^3 divides the norm of beta, and then reads the class
    products alone (``_divided_products`` at p^2), yet covers the products
    of beta with every norm-p element alpha, on both sides.  The norm-p
    elements are closed under conjugation and split into the classes
    alpha_r * v with v running over the 24 units, so alpha * beta =
    conj(v) * (conj(alpha_r) * beta) for conj(alpha) = alpha_r * v, and
    beta * alpha = (beta * alpha_r) * v for alpha = alpha_r * v.  A unit is
    invertible in the order, so p^2 divides a product with a unit factor
    exactly when it divides the product without it.
    """
    reps, conjs = _class_tuples(p)  # unit_class_reps rejects p unless an odd prime
    b = beta.dc
    # primitive means of index (K, 0, 1); zero has no index and is not primitive
    K, u, n = _lattice_index(b) if any(b) else (0, 0, 0)
    if (u, n) != (0, 1):
        raise ValueError(f"beta must be primitive, got {beta!r}")
    left = len(_divided_products(b, conjs, p, True))
    right = len(_divided_products(b, reps, p, False))
    # p^2 | alpha*beta forces p^4 | nu(alpha*beta) = p*nu(beta), so a square
    # can only divide when p^3 divides nu(beta).
    if K % (p ** 3) == 0:
        sq = p * p
        if _divided_products(b, conjs, sq, True) or _divided_products(b, reps, sq, False):
            raise ArithmeticError(f"p^2 divides a norm-{p} product with {beta!r}")
    return DivisibilityCounts(left, right)


_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(ij|i|j|k)?$")
_AXES = {"": 0, "i": 1, "j": 2, "ij": 3, "k": 3}


def parse_quaternion(text: str) -> HurwitzQuaternion:
    """Parse "a+bi+cj+dk" (also accepting "ij" for k and halves like "1/2i"),
    or a comma-separated 4-tuple of rational coordinates."""
    s = text.replace(" ", "").strip("()")
    if not s:
        raise ValueError("empty quaternion literal")
    coords = [Fraction(0)] * 4
    if "," in s:
        pieces = s.split(",")
        if len(pieces) != 4:
            raise ValueError(f"expected 4 components in {text!r}")
        for i, piece in enumerate(pieces):
            if "e" in piece or "E" in piece:  # Fraction would expand it in full
                raise ValueError(f"component {piece!r} in {text!r} is an exponent form")
            try:
                coords[i] = Fraction(piece)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad component {piece!r} in {text!r}") from None
    else:
        tokens = re.findall(r"[+-]?[^+-]+", s)
        if "".join(tokens) != s:
            raise ValueError(f"bad quaternion literal {text!r}")
        for tok in tokens:
            m = _TERM_RE.fullmatch(tok)
            if not m or (m.group(2) is None and not m.group(3)):
                raise ValueError(f"bad term {tok!r} in {text!r}")
            sign = -1 if m.group(1) == "-" else 1
            try:
                mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            except ZeroDivisionError:
                raise ValueError(f"term {tok!r} in {text!r} has a zero denominator") from None
            except ValueError:  # past the interpreter's int-to-str digit limit
                raise ValueError(f"term {tok!r} in {text!r} has too many digits") from None
            coords[_AXES[m.group(3) or ""]] += sign * mag
    doubled = []
    for q in coords:
        dq = 2 * q
        if dq.denominator != 1:
            raise ValueError(f"{text!r} is not in the order (coordinates must be halves)")
        doubled.append(int(dq))
    return HurwitzQuaternion(*doubled)
