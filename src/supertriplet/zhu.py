"""Polynomial data of the twisted Zhu algebra for the super triplet family.

Everything here is a closed-form consequence of the free-field eigenvalue
formulas for the twisted zero modes acting on a highest-weight vector with
lattice pairing t:

* G(0)  -> +-(t - m) / sqrt(2 (2m+1)),
* L(0)  -> t (t - 2m) / (2 (2m+1)) + 1/16,
* H(0)  -> +-(1/sqrt 2) C(t - 1/2, 2m),
* Hhat(0) -> ((m - t)/(2m+1)) C(t - 1/2, 2m).

Square roots are never materialized: each +-sqrt quantity is stored as its
square together with a sign, so every verification below is an exact
identity of rational polynomials in t.  Sign convention: the "+" module
carries +(t - m)/sqrt(2(2m+1)) and +(1/sqrt 2) C(t - 1/2, 2m); the product
of the two signs is branch-independent, which is what the mixed relation
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .arith import UniPoly, binom
from .characters import central_charge, conformal_weight

__all__ = [
    "SingletEigenvalues",
    "TwistedModuleRecord",
    "HabData",
    "singlet_eigen",
    "hab_polynomial",
    "fmr_polynomial",
    "fmr_roots",
    "coeff_A",
    "Fm",
    "binomial_sum_lhs",
    "classify_twisted",
    "relation_suite",
    "RelationCheck",
]


@dataclass(frozen=True)
class SingletEigenvalues:
    """Zero-mode eigenvalue data at lattice pairing t (plus-branch signs)."""

    t: Fraction
    m: int
    g0_squared: Fraction
    g0_sign: int
    l0: Fraction
    h0_sq: Fraction
    hhat0: Fraction


def singlet_eigen(t, m: int) -> SingletEigenvalues:
    t = Fraction(t)
    p = 2 * m + 1
    g0_sq = (t - m) ** 2 / (2 * p)
    sign = 1 if t >= m else -1
    l0 = t * (t - 2 * m) / (2 * p) + Fraction(1, 16)
    b = binom(t - Fraction(1, 2), 2 * m)
    return SingletEigenvalues(
        t=t,
        m=m,
        g0_squared=g0_sq,
        g0_sign=sign,
        l0=l0,
        h0_sq=b * b / 2,
        hhat0=Fraction(m - t, p) * b,
    )


@dataclass(frozen=True)
class HabData:
    """The even generator relation b^2 = C_m (prod_i (a^2 - r_i))^2.

    ``inner_in_a2`` is the monic degree-m polynomial prod (u - r_i) in the
    variable u = a^2; the roots r_i are (2i+1-2m)^2 / (8(2m+1)), i < m.
    """

    m: int
    c_m: Fraction
    inner_roots: Tuple[Fraction, ...]
    inner_in_a2: UniPoly

    def evaluate(self, a_squared, b_squared) -> Fraction:
        """H(a, b) = b^2 - C_m * (prod (a^2 - r_i))^2 at given squares."""
        inner = self.inner_in_a2.eval_at(Fraction(a_squared))
        return Fraction(b_squared) - self.c_m * inner * inner


def hab_polynomial(m: int) -> HabData:
    if m < 1:
        raise ValueError("m must be >= 1")
    p = 2 * m + 1
    c_m = Fraction(2 ** (2 * m - 1) * p ** (2 * m), math.factorial(2 * m) ** 2)
    roots = tuple(
        Fraction((2 * i + 1 - 2 * m) ** 2, 8 * p) for i in range(m)
    )
    return HabData(m=m, c_m=c_m, inner_roots=roots, inner_in_a2=UniPoly.from_roots(roots))


def fmr_roots(m: int) -> List[Tuple[Fraction, int]]:
    """Roots of the vanishing polynomial with multiplicities.

    The grid rows i in [0, m-1] appear squared (the rows [m, 2m-1] repeat
    them), the rows i in [2m, 3m] are simple.
    """
    out: List[Tuple[Fraction, int]] = []
    for i in range(m):
        out.append((conformal_weight(i, 0, m), 2))
    for i in range(2 * m, 3 * m + 1):
        out.append((conformal_weight(i, 0, m), 1))
    return out


def fmr_polynomial(m: int) -> UniPoly:
    """Monic polynomial of degree 3m+1 annihilating the conformal generator
    on every irreducible twisted top level: prod over i in [0, 3m] of
    (x - h(2i+2, 1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    roots: List[Fraction] = []
    for r, mult in fmr_roots(m):
        roots.extend([r] * mult)
    return UniPoly.from_roots(roots)


def coeff_A(m: int) -> Fraction:
    """Prefactor (-1)^m C(2m, m) / C(4m+1, m) of the evaluated screening square."""
    return (-1) ** m * Fraction(binom(2 * m, m), binom(4 * m + 1, m))


def Fm(t, m: int) -> Fraction:
    """Closed form A_m C(t+m+1/2, 3m+1) C(t-1/2, 3m+1)."""
    t = Fraction(t)
    return (
        coeff_A(m)
        * binom(t + m + Fraction(1, 2), 3 * m + 1)
        * binom(t - Fraction(1, 2), 3 * m + 1)
    )


def binomial_sum_lhs(t, m: int) -> Fraction:
    """Alternating double-binomial sum that the closed form evaluates:
    sum_k (-1)^k C(2m,k) C(t+1/2, 4m+1-k) C(t-1/2, 2m+1+k)."""
    t = Fraction(t)
    acc = Fraction(0)
    for k in range(2 * m + 1):
        acc += (
            (-1) ** k
            * binom(2 * m, k)
            * binom(t + Fraction(1, 2), 4 * m + 1 - k)
            * binom(t - Fraction(1, 2), 2 * m + 1 + k)
        )
    return acc


@dataclass(frozen=True)
class TwistedModuleRecord:
    """One classified graded irreducible twisted module."""

    family: str
    index: int
    i_index: int
    lowest_weight: Fraction
    top_dim_graded: int
    g0_squared: Fraction

    def to_json(self) -> dict:
        return {
            **vars(self),
            "lowest_weight": [str(self.lowest_weight.numerator), str(self.lowest_weight.denominator)],
            "g0_squared": [str(self.g0_squared.numerator), str(self.g0_squared.denominator)],
        }


def classify_twisted(m: int) -> List[TwistedModuleRecord]:
    """The 2m+1 graded irreducible twisted modules with exact head data.

    RLambda(j) sits on grid row i = j - 1 (j = 1..m, two-dimensional graded
    top); RPi(j) sits on row i = 3m+1-j (j = 1..m+1, four-dimensional graded
    top).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    c = central_charge(m)
    records: List[TwistedModuleRecord] = []
    for j in range(1, m + 1):
        i = j - 1
        w = conformal_weight(i, 0, m)
        records.append(
            TwistedModuleRecord("RLambda", j, i, w, 2, w - c / 24)
        )
    for j in range(1, m + 2):
        i = 3 * m + 1 - j
        w = conformal_weight(i, 0, m)
        records.append(
            TwistedModuleRecord("RPi", j, i, w, 4, w - c / 24)
        )
    return records


# ----------------------------------------------------------------------
# relation suite: exact polynomial identities in t
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    detail: str


def _binom_shift_poly(m: int) -> UniPoly:
    """C(t - 1/2, 2m) as a polynomial in t."""
    roots = [Fraction(2 * r + 1, 2) for r in range(2 * m)]
    return UniPoly.from_roots(roots) * Fraction(1, math.factorial(2 * m))


def _l0_poly(m: int) -> UniPoly:
    p = 2 * m + 1
    return UniPoly([Fraction(1, 16), Fraction(-m, p), Fraction(1, 2 * p)])


def _g0sq_poly(m: int) -> UniPoly:
    p = 2 * m + 1
    return UniPoly.from_roots([m, m]) * Fraction(1, 2 * p)


def relation_suite(m: int) -> List[RelationCheck]:
    """Verify the twisted Zhu relations as exact polynomial identities in t.

    Squared forms are used wherever a square root appears; the one mixed
    relation is rationalized by multiplying through by 2 sqrt(2m+1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = 2 * m + 1
    c = central_charge(m)
    l0 = _l0_poly(m)
    g0sq = _g0sq_poly(m)
    b = _binom_shift_poly(m)
    h0sq = b * b * Fraction(1, 2)
    # ((m - t)/(2m+1)) C(t - 1/2, 2m) from its own roots, not from b, so the mixed relations compare two forms
    hhat0 = UniPoly.from_roots([m, *(r + Fraction(1, 2) for r in range(2 * m))]) * Fraction(-1, p * math.factorial(2 * m))
    hab = hab_polynomial(m)
    heads = [conformal_weight(i, 0, m) for i in range(m)]

    prod_sq = UniPoly.one()
    for h in heads:
        factor = l0 - UniPoly.constant(h)
        prod_sq = prod_sq * factor * factor

    checks: List[RelationCheck] = []

    lhs = g0sq
    rhs = l0 - UniPoly.constant(c / 24)
    checks.append(
        RelationCheck(
            "conformal-square: g0^2 = l0 - c/24",
            lhs == rhs,
            "polynomial identity in t",
        )
    )

    lhs = g0sq * h0sq
    rhs = hhat0 * hhat0 * Fraction(p, 4)
    checks.append(
        RelationCheck(
            "mixed: (g0 h0)^2 = ((2m+1)/4) hhat0^2",
            lhs == rhs,
            "squared form of the mixed zero-mode relation",
        )
    )

    lhs = UniPoly([Fraction(-m), Fraction(1)]) * b
    rhs = hhat0 * Fraction(-p)
    checks.append(
        RelationCheck(
            "mixed sign: (t-m) C(t-1/2,2m) = -(2m+1) hhat0",
            lhs == rhs,
            "rationalized by 2 sqrt(2m+1); holds on both parity branches",
        )
    )

    checks.append(
        RelationCheck(
            "even generator square: h0^2 = C_m prod (l0 - heads)^2",
            h0sq == prod_sq * hab.c_m,
            f"C_m = {hab.c_m}",
        )
    )

    lhs = hhat0 * hhat0
    rhs = prod_sq * (l0 - UniPoly.constant(c / 24)) * (Fraction(4, p) * hab.c_m)
    checks.append(
        RelationCheck(
            "hatted square: hhat0^2 = (4/(2m+1)) C_m (l0 - c/24) prod (l0 - heads)^2",
            lhs == rhs,
            "polynomial identity in t",
        )
    )

    # the two closed forms of the even-generator square, as polynomials in
    # u = a^2: (1/2) ((1/(2m)!) prod (2(2m+1) u - (2i+1)^2/4))^2
    #          = C_m prod (u - (2i+1-2m)^2 / (8(2m+1)))^2
    left = UniPoly.one()
    for i in range(m):
        left = left * UniPoly([-Fraction((2 * i + 1) ** 2, 4), Fraction(2 * p)])
    left = left * Fraction(1, math.factorial(2 * m))
    left = left * left * Fraction(1, 2)
    right = hab.inner_in_a2 * hab.inner_in_a2 * hab.c_m
    checks.append(
        RelationCheck(
            "even generator square, binomial vs product form",
            left == right,
            "identity in u = a^2",
        )
    )

    return checks
