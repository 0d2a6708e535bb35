"""Exact rational linear combinations of source-form coefficient symbols.

The symbol C(M), M >= 1, stands for the source form's Fourier coefficient at
-M.  A :class:`FormalCoefficient` is a finite sum  sum_M q_M * C(M)  with
rational q_M, kept in canonical form (zero terms dropped), which makes
equality decidable and all identities in the lift layer exact.

Formal values follow the number protocol of floats and Fractions (``x + 0``,
``s * x`` for an int or Fraction s, ``x == 0`` iff x has no terms), so the
engine is written once for both backends; an off-lattice read is a plain 0.

Evaluation substitutes floats for the symbols; the reduction
``C(2M) -> (-epsilon/2) C(M)`` expresses that the source form is a Hecke
eigenform at the even place and rewrites any combination into odd symbols
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Assignment",
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
    """A sparse rational combination of symbols C(M)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, q in items:
            m = int(m)
            if m < 1:
                raise ValueError(f"symbol index must be >= 1, got {m}")
            acc[m] = acc.get(m, Fraction(0)) + Fraction(q)
        self._terms = {m: q for m, q in acc.items() if q}

    @classmethod
    def zero(cls) -> "FormalCoefficient":
        return cls()

    @classmethod
    def symbol(cls, m: int) -> "FormalCoefficient":
        return cls(((m, Fraction(1)),))

    def items(self):
        """Terms as (M, coefficient) pairs in ascending M."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, m: int) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def max_symbol(self) -> int:
        return max(self._terms) if self._terms else 0

    def __add__(self, other):
        if not isinstance(other, FormalCoefficient):
            exact_zero = isinstance(other, (int, Fraction)) and other == 0
            return self if exact_zero else NotImplemented
        acc = dict(self._terms)
        for m, q in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + q
        return FormalCoefficient(acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, s):
        return self.scale(s) if isinstance(s, (int, Fraction)) else NotImplemented

    __rmul__ = __mul__

    def scale(self, s) -> "FormalCoefficient":
        s = Fraction(s)
        if not s:
            return FormalCoefficient()
        return FormalCoefficient({m: q * s for m, q in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, FormalCoefficient):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return not self._terms and other == 0
        return NotImplemented

    def __hash__(self):
        # The zero value equals the number 0, so it must hash like it.
        return hash(self.items()) if self._terms else hash(0)

    def __repr__(self):
        if not self._terms:
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


@dataclass(frozen=True)
class Assignment:
    """Float values for symbols, together with the even-place sign."""

    values: dict
    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")


def combine(a, b, s, t):
    """s*a + t*b for values of either backend, s and t taken as exact
    rationals (an int already is one, and scales a float cheaply)."""
    if not (isinstance(s, int) and isinstance(t, int)):
        s, t = Fraction(s), Fraction(t)
    return s * a + t * b


def evaluate(x: FormalCoefficient, assignment: Assignment) -> float:
    """Substitute the assignment into x; rationals convert at the final step."""
    total = 0.0
    for m, q in x.items():
        try:
            v = assignment.values[m]
        except KeyError:
            raise UnassignedSymbolError(f"unassigned symbol {m}") from None
        total += float(q) * v
    return total


def reduce_eigen2(x, epsilon: int):
    """Rewrite C(2M) -> (-epsilon/2) C(M) until only odd symbols remain; a
    number has no symbols and is returned unchanged."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +-1, got {epsilon}")
    if not isinstance(x, FormalCoefficient):
        return x
    acc = {}
    for m, q in x.items():
        while m % 2 == 0:
            m //= 2
            q *= Fraction(-epsilon, 2)
        acc[m] = acc.get(m, Fraction(0)) + q
    return FormalCoefficient(acc)


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
    value, a float for a number."""
    if isinstance(x, FormalCoefficient):
        return {str(m): str(q) for m, q in x.items()}
    return float(x)


def formal_from_json_obj(obj: dict) -> FormalCoefficient:
    if not isinstance(obj, dict):
        raise ValueError(f"formal value must be a JSON object, got {obj!r}")
    return FormalCoefficient({int(m): Fraction(q) for m, q in obj.items()})
