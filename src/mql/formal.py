"""Exact rational linear combinations of source-form coefficient symbols.

The symbol C(M), M >= 1, stands for the source form's Fourier coefficient at
-M.  A :class:`FormalCoefficient` is a finite sum  sum_M q_M * C(M)  with
rational q_M, kept in canonical form, which makes equality decidable and all
identities in the lift layer exact.  It is stored as integer numerators
{M: n_M} over one positive common denominator den (q_M = n_M / den), with zero
terms dropped and den coprime to the numerators as a whole.  Arithmetic,
evaluation, the even-symbol reduction and both JSON codecs run on these ints.
Fractions appear only at the public boundary: the constructor takes any
rationals, ``items()`` returns Fractions, a scale factor may be one, and a
JSON coefficient that is not a canonical ``p`` or ``p/q`` string is parsed by
``Fraction``.  Every value the engine produces has a power-of-two
denominator; other denominators (a ``1/3`` in a file) work too.

Formal values follow the number protocol of floats and Fractions (``x + 0``,
``s * x`` for an int or Fraction s, ``x == 0`` iff x has no terms), so the
engine is written once for both backends; an off-lattice read is a plain 0.

Evaluation substitutes values for the symbols, exactly for ints and
Fractions; the reduction ``C(2M) -> (-epsilon/2) C(M)`` expresses that the
source form is a Hecke eigenform at the even place and rewrites any
combination into odd symbols only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "FormalCoefficient",
    "UnassignedSymbolError",
    "combine",
    "evaluate",
    "formal_from_json_obj",
    "formal_to_json_obj",
    "reduce_eigen2",
    "rel_err",
]


class UnassignedSymbolError(KeyError):
    """An evaluation met a symbol with no assigned value."""


class FormalCoefficient:
    """A sparse rational combination of symbols C(M), stored as integer
    numerators {M: n} over one positive common denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self._set(*_sum_ratios([(m, Fraction(q)) for m, q in items]))

    def _set(self, num: dict, den: int):
        """Store num/den in canonical form: zero terms dropped and
        gcd(den, all numerators) = 1, so that equality is plain equality."""
        num = {m: n for m, n in num.items() if n}
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {m: n // g for m, n in num.items()}
                den //= g
        self._num = num
        self._den = den

    @classmethod
    def _from_numerators(cls, num: dict, den: int = 1) -> "FormalCoefficient":
        """The value sum_M (num[M] / den) C(M) for int numerators, symbols
        M >= 1 and a positive int den; no Fraction is built."""
        x = object.__new__(cls)
        x._set(num, den)
        return x

    @classmethod
    def zero(cls) -> "FormalCoefficient":
        return cls()

    @classmethod
    def symbol(cls, m: int) -> "FormalCoefficient":
        return cls(((m, 1),))

    def items(self):
        """Terms as (M, Fraction coefficient) pairs in ascending M."""
        return tuple((m, Fraction(self._num[m], self._den)) for m in sorted(self._num))

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other):
        if not isinstance(other, FormalCoefficient):
            exact_zero = isinstance(other, (int, Fraction)) and other == 0
            return self if exact_zero else NotImplemented
        da, db = self._den, other._den
        if da == db:
            acc = dict(self._num)
            fb = 1
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            acc = {m: n * fa for m, n in self._num.items()}
            da *= fa
        for m, n in other._num.items():
            acc[m] = acc.get(m, 0) + n * fb
        return FormalCoefficient._from_numerators(acc, da)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, s):
        return self.scale(s) if isinstance(s, (int, Fraction)) else NotImplemented

    __rmul__ = __mul__

    def scale(self, s) -> "FormalCoefficient":
        if isinstance(s, int):
            p, q = s, 1
        else:
            s = s if isinstance(s, Fraction) else Fraction(s)
            p, q = s.numerator, s.denominator
        if p == q:
            return self
        return FormalCoefficient._from_numerators(
            {m: n * p for m, n in self._num.items()}, self._den * q
        )

    def __eq__(self, other):
        if isinstance(other, FormalCoefficient):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return not self._num and other == 0
        return NotImplemented

    def __hash__(self):
        # The zero value equals the number 0, so it must hash like it.
        if not self._num:
            return hash(0)
        return hash((self._den, tuple(sorted(self._num.items()))))

    def __repr__(self):
        if not self._num:
            return "0"
        parts = []
        for m, q in self.items():
            if q == 1:
                body = f"C({m})"
            elif q == -1:
                body = f"-C({m})"
            else:
                body = f"{q}*C({m})"
            parts.append(body if not parts or body.startswith("-") else "+" + body)
        return "".join(parts)


def _sum_ratios(pairs):
    """(numerators, den) of sum_M q C(M) over (M, q) pairs, q a rational or a
    JSON coefficient string, in one pass: repeated symbols add up, and den,
    the lcm of the denominators, grows only at one it does not already hold."""
    num, den = {}, 1
    for m, q in pairs:
        m = int(m)
        if m < 1:
            raise ValueError(f"symbol index must be >= 1, got {m}")
        p, d = _str_ratio(q) if isinstance(q, str) else _ratio(q)
        if d != 1 and den % d:
            f = d // math.gcd(den, d)
            num = {k: n * f for k, n in num.items()}
            den *= f
        num[m] = num.get(m, 0) + p * (den // d)
    return num, den


def combine(a, b, s, t):
    """s*a + t*b for values of either backend, s and t taken as exact
    rationals (an int already is one, and scales a float cheaply)."""
    if not (isinstance(s, int) and isinstance(t, int)):
        s, t = Fraction(s), Fraction(t)
    return s * a + t * b


def evaluate(x: FormalCoefficient, values: dict):
    """Substitute values {M: value} for the symbols of x: the exact sum, an int
    or Fraction, if every value is an int or Fraction; else the float sum of
    (n / den) * value in ascending M, where int true division makes each term
    float(q) * value."""
    num, den = x._num, x._den
    symbols = sorted(num)
    try:
        total = 0
        for m in symbols:
            v = values[m]
            if not isinstance(v, (int, Fraction)):
                break
            total += num[m] * v
        else:
            return total if den == 1 else Fraction(total, den)
        total = 0.0
        for m in symbols:
            total += (num[m] / den) * values[m]
    except KeyError as exc:
        raise UnassignedSymbolError(f"unassigned symbol {exc.args[0]}") from None
    return total


def _check_epsilon(epsilon) -> None:
    """Raise unless epsilon, the sign at the even place, is 1 or -1."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +-1, got {epsilon}")


def reduce_eigen2(x, epsilon: int):
    """Rewrite C(2M) -> (-epsilon/2) C(M) until only odd symbols remain; a
    number has no symbols and is returned unchanged.

    A term n C(2**t M) becomes (-epsilon)**t n C(M) / 2**t; over the common
    denominator den * 2**top, top the largest t, its numerator is shifted
    left by top - t."""
    _check_epsilon(epsilon)
    if not isinstance(x, FormalCoefficient):
        return x
    top = max(((m & -m).bit_length() for m in x._num), default=1) - 1
    if not top:
        return x
    acc = {}
    for m, n in x._num.items():
        t = (m & -m).bit_length() - 1
        n <<= top - t
        if epsilon == 1 and t & 1:
            n = -n
        m >>= t
        acc[m] = acc.get(m, 0) + n
    return FormalCoefficient._from_numerators(acc, x._den << top)


def rel_err(lhs, rhs, scale=None) -> float:
    """|lhs - rhs| / max(1, |lhs|, |scale|), scale defaulting to rhs; NaN in,
    NaN out, so compare with ``not err <= tolerance``.  Formal values have no
    size: the error is 0.0 when they are equal and inf otherwise."""
    if isinstance(lhs, FormalCoefficient) or isinstance(rhs, FormalCoefficient):
        return 0.0 if lhs == rhs else math.inf
    ref = rhs if scale is None else scale
    return abs(float(lhs - rhs)) / max(1.0, abs(float(lhs)), abs(float(ref)))


def formal_to_json_obj(x):
    """JSON form of a value: a sorted object {"M": "p/q", ...} for a formal
    value, each coefficient written as str(Fraction) writes it, and a float
    for a number."""
    if not isinstance(x, FormalCoefficient):
        return float(x)
    num, den = x._num, x._den
    out = {}
    for m in sorted(num):
        n = num[m]
        g = math.gcd(n, den)
        out[str(m)] = str(n // g) if g == den else f"{n // g}/{den // g}"
    return out


#: The coefficient strings formal_to_json_obj writes; any other string is
#: parsed by Fraction, so the decoder accepts what Fraction(str) does, except
#: exponent forms, which Fraction expands in full (a 9-character "1e3000000"
#: takes seconds).
_CANONICAL_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(q) -> tuple:
    """(p, d) with q == p / d and d > 0, for a JSON coefficient."""
    match = _CANONICAL_RATIO.fullmatch(q) if isinstance(q, str) else None
    if match:
        p, d = match.groups()
        d = 1 if d is None else int(d)
        if not d:
            raise ValueError(f"coefficient {q!r} has a zero denominator")
        return int(p), d
    if isinstance(q, str) and ("e" in q or "E" in q):
        raise ValueError(f"coefficient {q!r}: exponent forms are not accepted")
    try:
        q = Fraction(q)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"coefficient {q!r}: {exc}") from None
    return q.numerator, q.denominator


#: _ratio of a string, each distinct one parsed once per process up to the
#: bound; a rejected string is not memoized, so it raises every time it is read.
_str_ratio = lru_cache(maxsize=1024)(_ratio)


def formal_from_json_obj(obj: dict) -> FormalCoefficient:
    if not isinstance(obj, dict):
        raise ValueError(f"formal value must be a JSON object, got {obj!r}")
    return FormalCoefficient._from_numerators(*_sum_ratios(obj.items()))
