"""Per-prime spectral data: Satake parameters, local component descriptors,
synthetic eigenform generation, and the temperedness bound check.

A Hecke eigenvalue lambda_p determines the four unramified character values

    chi_{1,2}(p) = p^(1/2)  (lambda_p +- sqrt(lambda_p^2 - 4)) / 2
    chi_{3,4}(p) = p^(-1/2) (lambda_p +- sqrt(lambda_p^2 - 4)) / 2

whose complex moduli are p^(+-1/2) whenever |lambda_p| <= 2.  Reading |.| as
the complex modulus and taking log base p, the largest exponent is then 1/2
exactly, which exceeds the cuspidal temperedness bound 1/2 - 1/17: every lift
violates the naive Ramanujan bound.  (The absolute-value notation for these
exponents is ambiguous in the source material; the complex-modulus reading is
the one consistent with the cancellation alpha+ + alpha- = 0 and is recorded
in every report this module emits.)

Synthetic eigenforms provide computable stand-ins for genuine Hecke
eigenforms: starting from c(-1) = 1 the coefficients are generated by

    c(-2N) = -(epsilon/2) c(-N)
    c(-pN) = p^(-1/2) lambda_p c(-N) - p^(-1) c(-N/p)      (p odd)

with c(-N/p) read as zero when p does not divide N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .formal import _check_epsilon, reduce_eigen2, rel_err
from .lift import CoefficientTable, SourceForm, source_coefficient
from .quaternion import _smallest_odd_prime_factor

__all__ = [
    "LocalDescriptor",
    "MODULUS_READING_NOTE",
    "MissingLambdaError",
    "RAMANUJAN_BOUND",
    "SatakeParams",
    "SyntheticEigenform",
    "ramanujan_violation_check",
    "satake_from_lambda",
    "satake_csv_rows",
    "sigma_descriptor",
    "synth_eigenform",
    "verify_cn_relations",
]

#: Cuspidal temperedness bound for the 4-dimensional group: 1/2 - 1/(4^2 + 1).
RAMANUJAN_BOUND = 0.5 - 1.0 / 17.0

MODULUS_READING_NOTE = (
    "character moduli are complex absolute values; exponents are logarithms base p"
)


class MissingLambdaError(KeyError):
    """A required odd-prime eigenvalue was not supplied."""


@dataclass(frozen=True)
class SatakeParams:
    """The four unramified character values attached to one odd prime."""

    prime: int
    lambda_p: float
    chi: tuple

    def invariant_residuals(self) -> dict:
        """Deviations of the defining multiplicative relations from zero."""
        c1, c2, c3, c4 = self.chi
        p = self.prime
        return {
            "chi1*chi2 - p": abs(c1 * c2 - p),
            "chi3*chi4 - 1/p": abs(c3 * c4 - 1.0 / p),
            "chi1/chi3 - p": abs(c1 / c3 - p),
            "chi2/chi4 - p": abs(c2 / c4 - p),
            "chi1*chi4 - 1": abs(c1 * c4 - 1.0),
            "chi2*chi3 - 1": abs(c2 * c3 - 1.0),
        }


def _unit_roots(lambda_p: float) -> tuple:
    """The roots (lambda_p + s) / 2 and (lambda_p - s) / 2 of x^2 - lambda_p x + 1,
    s the complex square root of lambda_p^2 - 4, as complex numbers.

    Beyond |lambda_p| = 2 the roots are real with product 1: the larger one is
    formed without squaring lambda_p, which could overflow, and the smaller one
    as its reciprocal, which the subtraction would cancel to 0.
    """
    if abs(lambda_p) <= 2.0:
        s = cmath.sqrt(complex(lambda_p * lambda_p - 4.0))
        return (lambda_p + s) / 2.0, (lambda_p - s) / 2.0
    a = abs(lambda_p)
    big = math.copysign(0.5 * a + 0.5 * math.sqrt(a - 2.0) * math.sqrt(a + 2.0), lambda_p)
    small = complex(1.0 / big, 0.0)
    return (complex(big, 0.0), small) if lambda_p > 0 else (small, complex(big, 0.0))


def satake_from_lambda(p: int, lambda_p: float) -> SatakeParams:
    """Satake parameters of the lift at an odd prime with eigenvalue lambda_p.

    The square root is taken in the complex plane, so |lambda_p| < 2 lands on
    the unit circle times p^(+-1/2).
    """
    r_plus, r_minus = _unit_roots(lambda_p)
    sq = math.sqrt(p)
    return SatakeParams(
        p, float(lambda_p), (sq * r_plus, sq * r_minus, r_plus / sq, r_minus / sq)
    )


def ramanujan_violation_check(params: SatakeParams) -> dict:
    """Exponent report for one prime: log-base-p moduli of the four characters,
    whether their maximum exceeds the temperedness bound, and the cancellation
    alpha+ + alpha- of the unit-circle factors.  A character p^(+-1/2) r whose
    modulus overflows to inf or underflows to 0 takes +-1/2 + log|r| / log p."""
    logp = math.log(params.prime)
    exponents = [
        math.log(abs(ch)) / logp if 0.0 < abs(ch) < math.inf else half + math.log(abs(r)) / logp
        for ch, half, r in zip(params.chi, (0.5, 0.5, -0.5, -0.5), _unit_roots(params.lambda_p) * 2)
    ]
    max_abs = max(abs(v) for v in exponents)
    alpha_plus = exponents[0] - 0.5
    alpha_minus = exponents[1] - 0.5
    return {
        "prime": params.prime,
        "lambda_p": params.lambda_p,
        "exponents": exponents,
        "max_abs_exponent": max_abs,
        "bound": RAMANUJAN_BOUND,
        "violated": max_abs > RAMANUJAN_BOUND,
        "alpha_sum": alpha_plus + alpha_minus,
        "note": MODULUS_READING_NOTE,
    }


@dataclass(frozen=True)
class LocalDescriptor:
    """Shape of the local component attached to one place: unramified
    principal series at odd primes, a twisted Steinberg at the even place,
    principal series at the archimedean place."""

    place: object  # odd prime, 2, or the string "inf"
    shape: str
    value: complex

    def to_json_dict(self) -> dict:
        return {
            "place": self.place,
            "shape": self.shape,
            "value": [self.value.real, self.value.imag],
        }


def sigma_descriptor(place, lambda_p=None, epsilon=None, r=None) -> LocalDescriptor:
    """Local component descriptor for one place.

    Odd prime: unramified principal series with character value
    (lambda_p + sqrt(lambda_p^2 - 4)) / 2.  Even place: twisted Steinberg with
    character value -epsilon.  Archimedean place ("inf"): principal series
    with parameter s = i r / 2.
    """
    if place == "inf":
        if r is None:
            raise ValueError("archimedean place needs r")
        return LocalDescriptor("inf", "archimedean-principal-series", complex(0, r / 2.0))
    if place == 2:
        if epsilon not in (1, -1):
            raise ValueError("even place needs epsilon = +-1")
        return LocalDescriptor(2, "twisted-steinberg", complex(-epsilon, 0))
    if not isinstance(place, int) or _smallest_odd_prime_factor(place) != place:
        raise ValueError(f"place must be an odd prime, 2 or 'inf', got {place!r}")
    if lambda_p is None:
        raise ValueError("odd place needs lambda_p")
    return LocalDescriptor(place, "unramified-principal-series", _unit_roots(lambda_p)[0])


@dataclass(frozen=True)
class SyntheticEigenform:
    """Coefficients generated from c(-1) = 1 by the eigenform recursions."""

    epsilon: int
    lambdas: dict
    n_max: int
    coefficients: dict

    def source_form(self) -> SourceForm:
        return SourceForm(self.epsilon, dict(self.coefficients))


def synth_eigenform(epsilon: int, lambdas: dict, n_max: int) -> SyntheticEigenform:
    """Generate c(-N) for N <= n_max from the multiplicative recursions.

    Deterministic; raises MissingLambdaError when a needed odd prime has no
    supplied eigenvalue.
    """
    _check_epsilon(epsilon)
    c = {1: 1.0}
    for N in range(2, n_max + 1):
        if N % 2 == 0:
            c[N] = -0.5 * epsilon * c[N // 2]
            continue
        p = _smallest_odd_prime_factor(N)
        if p not in lambdas:
            raise MissingLambdaError(f"missing lambda for prime {p}")
        lam = lambdas[p]
        deeper = c[N // (p * p)] if N % (p * p) == 0 else 0.0
        c[N] = lam / math.sqrt(p) * c[N // p] - deeper / p
    return SyntheticEigenform(epsilon, dict(lambdas), n_max, c)


def verify_cn_relations(
    table: CoefficientTable, lambdas: Optional[dict] = None, tolerance: float = 1e-8
) -> dict:
    """Check the recursions of the extracted source coefficients.

    The doubling relation c(-2N) = -(epsilon/2) c(-N) must hold on any table
    in the Maass space (exactly on formal and rational backends).  When odd
    eigenvalues are supplied the Hecke relation
    sqrt(p) c(-pN) + c(-N/p)/sqrt(p) = lambda_p c(-N) is checked as well.
    A NaN fails either check.  A check that would cover nothing raises
    ValueError: a bound below 4, odd eigenvalues with a formal table, or an
    odd prime above k_max // 2.
    """
    n_max = table.k_max // 2
    if n_max < 2:
        raise ValueError(f"table bound {table.k_max} is below 4: no N to check doubling at")
    primes = sorted(p for p in lambdas or () if p != 2)
    if primes and table.backend != "numeric":
        raise ValueError(f"lambdas at {primes} need a numeric table, not a {table.backend} one")
    if primes and primes[-1] > n_max:
        raise ValueError(f"lambdas prime {primes[-1]} exceeds k_max // 2 = {n_max}: no N to check")
    eps = table.epsilon
    # The eigenform-at-2 reduction makes the formal doubling check exact.  It
    # is linear and leaves numbers unchanged, so each c(-N) is reduced once.
    c = {
        N: reduce_eigen2(source_coefficient(table, N), eps) for N in range(1, n_max + 1)
    }
    half = Fraction(-eps, 2)
    doubling_failures = []
    max_err = 0.0
    for N in range(1, n_max // 2 + 1):
        # Scaled by |c(-N)|, not by the halved right side.
        err = rel_err(c[2 * N], half * c[N], scale=c[N])
        max_err = max(max_err, err)
        if not err <= tolerance:
            doubling_failures.append(N)
    report = {
        "doubling": {
            "checked": n_max // 2,
            "failures": doubling_failures,
            "max_rel_err": max_err if max_err != float("inf") else 1.0,
        },
        "note": MODULUS_READING_NOTE,
    }
    hecke = {}
    for p in primes:
        lam = lambdas[p]
        failures = []
        worst = 0.0
        sq = math.sqrt(p)
        for N in range(1, n_max // p + 1):
            lhs = sq * float(c[p * N])
            if N % p == 0:
                lhs += float(c[N // p]) / sq
            err = rel_err(lhs, lam * float(c[N]))
            worst = max(worst, err)
            if not err <= tolerance:
                failures.append(N)
        hecke[str(p)] = {"checked": n_max // p, "failures": failures, "max_rel_err": worst}
    report["hecke"] = hecke
    report["pass"] = not doubling_failures and all(
        not v["failures"] for v in hecke.values()
    )
    return report


def satake_csv_rows(reports) -> list:
    """CSV rows (header first) for a sequence of violation reports."""
    header = [
        "p",
        "lambda",
        "re_chi1",
        "im_chi1",
        "re_chi2",
        "im_chi2",
        "re_chi3",
        "im_chi3",
        "re_chi4",
        "im_chi4",
        "violated",
    ]
    rows = [header]
    for rep, params in reports:
        row = [str(params.prime), repr(params.lambda_p)]
        for ch in params.chi:
            row.extend([repr(ch.real), repr(ch.imag)])
        row.append("true" if rep["violated"] else "false")
        rows.append(row)
    return rows
