"""Grade-truncated fermionic Fock spaces over Q(sqrt 2).

Two small exterior-algebra models live here:

* the parity-twisted module ``M`` with integer-moded Clifford generators
  phi(n), anti-brackets {phi(a), phi(b)} = delta_{a+b,0} and the
  self-pairing phi(0)^2 = 1/2.  Monomials are strictly decreasing tuples
  (n_1 > ... > n_k >= 0) standing for phi(-n_1)...phi(-n_k) applied to the
  twisted ground state; coefficients live in Q(sqrt 2) so the parity-split
  ground states (1 +- sqrt2 phi(0)) 1 are representable.
* the untwisted space ``F`` with half-integer modes, where a stored integer
  n >= 0 stands for the creation mode phi(-n-1/2).  The lowering-operator
  coefficient table C and its generating function live on this side.

Normal ordering puts annihilators on the right with a sign per
transposition; at a self-paired mode the product is antisymmetrized, which
is what makes the diagonal conformal weight come out as grade + 1/16 with
no further constant.

Vectors beyond the grade cutoff are dropped and flagged, never silently
wrapped around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .arith import QuadRational, SQRT2, binom
from .qseries import QExpansion

Monomial = Tuple[int, ...]
Scalar = Union[QuadRational, Fraction, int]

DEFAULT_GRADE_CUTOFF = 8

__all__ = [
    "FockVector",
    "UntwistedFockVector",
    "phi",
    "virasoro_mode",
    "virasoro_mode_quadratic",
    "vacuum",
    "vacuum_pm",
    "basis_monomials",
    "cmn",
    "cmn_table",
    "cmn_generating_check",
    "u_annihilate",
    "u_create",
    "untwisted_vacuum",
    "untwisted_omega",
    "delta_x",
    "delta_apply_to_omega",
    "graded_dimension_M",
    "graded_dimension_M_half",
]


def _as_quad(x: Scalar) -> QuadRational:
    return x if isinstance(x, QuadRational) else QuadRational(x)


class FockVector:
    """Finite Q(sqrt 2)-combination of twisted Clifford monomials."""

    __slots__ = ("terms", "cutoff", "truncated")

    def __init__(
        self,
        terms: Union[Dict[Monomial, Scalar], Iterable[Tuple[Monomial, Scalar]]] = (),
        cutoff: int = DEFAULT_GRADE_CUTOFF,
        truncated: bool = False,
    ) -> None:
        items = terms.items() if isinstance(terms, dict) else terms
        acc: Dict[Monomial, QuadRational] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if any(mono[i] <= mono[i + 1] for i in range(len(mono) - 1)):
                raise ValueError(f"monomial {mono} is not strictly decreasing")
            if mono and mono[-1] < 0:
                raise ValueError(f"monomial {mono} has a negative mode")
            if sum(mono) > cutoff:
                truncated = True
                continue
            q = acc.get(mono, QuadRational(0)) + _as_quad(coeff)
            acc[mono] = q
        object.__setattr__(
            self, "terms", {m: c for m, c in acc.items() if c}
        )
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "truncated", truncated)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.cutoff != other.cutoff:
            raise ValueError("grade cutoffs differ")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, QuadRational(0)) + c
        return FockVector(acc, self.cutoff, self.truncated or other.truncated)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, scalar: Scalar) -> "FockVector":
        s = _as_quad(scalar)
        return FockVector(
            {m: c * s for m, c in self.terms.items()}, self.cutoff, self.truncated
        )

    def coeff(self, mono: Monomial) -> QuadRational:
        return self.terms.get(tuple(mono), QuadRational(0))

    def grades(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for m in self.terms:
            g = sum(m)
            out[g] = out.get(g, 0) + 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __repr__(self) -> str:
        parts = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())][:4]
        more = ", ..." if len(self.terms) > 4 else ""
        flag = ", truncated" if self.truncated else ""
        return f"FockVector({', '.join(parts)}{more}{flag})"


def vacuum(cutoff: int = DEFAULT_GRADE_CUTOFF) -> FockVector:
    """The twisted ground state."""
    return FockVector({(): 1}, cutoff)


def vacuum_pm(sign: int, cutoff: int = DEFAULT_GRADE_CUTOFF) -> FockVector:
    """Parity eigenstates 1 +- sqrt2 phi(0) 1; eigenvalue of phi(0) is +-1/sqrt2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return FockVector({(): 1, (0,): sign * SQRT2}, cutoff)


def basis_monomials(max_grade: int) -> List[Monomial]:
    """All strictly decreasing mode tuples (entries >= 0) of total grade <= max_grade."""
    out: List[Monomial] = [()]
    def extend(prefix: Tuple[int, ...], smallest: int, budget: int):
        for n in range(min(smallest - 1, budget), -1, -1):
            mono = prefix + (n,)
            out.append(mono)
            if n > 0:
                extend(mono, n, budget - n)
    extend((), max_grade + 1, max_grade)
    return out


def phi(n: int, v: FockVector) -> FockVector:
    """Clifford generator phi(n): creation for n < 0, annihilation for n > 0,
    the self-paired zero mode for n = 0."""
    out: Dict[Monomial, QuadRational] = {}
    truncated = v.truncated
    half = Fraction(1, 2)
    for mono, coeff in v.terms.items():
        if n < 0:
            j = -n
            if j in mono:
                continue
            pos = 0
            while pos < len(mono) and mono[pos] > j:
                pos += 1
            new = mono[:pos] + (j,) + mono[pos:]
            if sum(new) > v.cutoff:
                truncated = True
                continue
            sign = -1 if pos & 1 else 1
            c = coeff * sign
        elif n > 0:
            if n not in mono:
                continue
            pos = mono.index(n)
            new = mono[:pos] + mono[pos + 1 :]
            sign = -1 if pos & 1 else 1
            c = coeff * sign
        else:
            if 0 in mono:
                pos = len(mono) - 1  # zero mode is always last
                new = mono[:pos]
                sign = -1 if pos & 1 else 1
                c = coeff * sign * half
            else:
                new = mono + (0,)
                sign = -1 if len(mono) & 1 else 1
                c = coeff * sign
        if new in out:
            out[new] = out[new] + c
        else:
            out[new] = c
    return FockVector(out, v.cutoff, truncated)


def virasoro_mode(n: int, v: FockVector) -> FockVector:
    """Twisted conformal mode L(n).

    L(0) acts diagonally as grade + 1/16 (the quadratic form reproduces this,
    see :func:`virasoro_mode_quadratic`); other modes are the normal-ordered
    quadratic sums of Clifford generators.
    """
    if n == 0:
        out = {
            mono: coeff * (Fraction(sum(mono)) + Fraction(1, 16))
            for mono, coeff in v.terms.items()
        }
        return FockVector(out, v.cutoff, v.truncated)
    return virasoro_mode_quadratic(n, v)


def virasoro_mode_quadratic(n: int, v: FockVector) -> FockVector:
    """L(n) as (1/2) sum_{r < n/2} (n - 2r) :phi(r) phi(n-r): (+ 1/16 at n=0)."""
    acc = FockVector({}, v.cutoff, v.truncated)
    r_lo = -v.cutoff - abs(n) - 1
    r_hi = (n - 1) // 2 if n % 2 else n // 2 - 1
    for r in range(r_lo, r_hi + 1):
        s = n - r
        term = phi(r, phi(s, v))
        if term.is_zero() and not term.truncated:
            continue
        acc = acc + term.scale(Fraction(n - 2 * r, 2))
    if n == 0:
        acc = acc + v.scale(Fraction(1, 16))
    return acc


# ----------------------------------------------------------------------
# lowering-coefficient table and generating function
# ----------------------------------------------------------------------


def cmn(m: int, n: int) -> Fraction:
    """Closed form (1/2) (m-n)/(m+n+1) C(-1/2, m) C(-1/2, n)."""
    if m < 0 or n < 0:
        raise ValueError("table indices must be >= 0")
    return (
        Fraction(1, 2)
        * Fraction(m - n, m + n + 1)
        * binom(Fraction(-1, 2), m)
        * binom(Fraction(-1, 2), n)
    )


def cmn_table(size: int) -> List[List[Fraction]]:
    return [[cmn(m, n) for n in range(size + 1)] for m in range(size + 1)]


@dataclass(frozen=True)
class GeneratingCheck:
    max_total_degree: int
    matches: bool
    mismatches: Tuple[Tuple[int, int], ...]


def cmn_generating_check(max_total_degree: int) -> GeneratingCheck:
    """Expand the closed-form generating function and compare with the table.

    The numerator (1/2)[(1+x1)^{1/2}(1+x2)^{-1/2} + (1+x1)^{-1/2}(1+x2)^{1/2}] - 1
    vanishes on the diagonal, so division by (x2 - x1) is exact; it is
    carried out coefficientwise one total degree at a time.
    """
    N = max_total_degree
    half = Fraction(1, 2)
    f = [binom(half, a) for a in range(N + 2)]
    g = [binom(-half, a) for a in range(N + 2)]

    def s_coeff(a: int, b: int) -> Fraction:
        val = Fraction(1, 2) * (f[a] * g[b] + g[a] * f[b])
        if a == 0 and b == 0:
            val -= 1
        return val

    table: Dict[Tuple[int, int], Fraction] = {}
    for d in range(N + 1):
        # coefficients of x1^a x2^b in G at total degree d, from degree d+1
        # of the numerator: G[a][b-1] - G[a-1][b] = s[a][b]
        prev = Fraction(0)
        for a in range(d + 1):
            b = d + 1 - a
            cur = s_coeff(a, b) + prev
            table[(a, d - a)] = cur
            prev = cur
        # remaining numerator relation at (d+1, 0) forces -G[d][0]
        if s_coeff(d + 1, 0) != -table[(d, 0)]:
            return GeneratingCheck(N, False, ((d, 0),))

    mismatches = []
    for a in range(N + 1):
        for b in range(N + 1 - a):
            if table[(a, b)] != cmn(a, b):
                mismatches.append((a, b))
    return GeneratingCheck(N, not mismatches, tuple(mismatches))


# ----------------------------------------------------------------------
# untwisted space and the lowering operator
# ----------------------------------------------------------------------


class UntwistedFockVector:
    """Finite rational combination of half-integer-mode monomials.

    A stored tuple (n_1 > ... > n_k >= 0) stands for
    phi(-n_1 - 1/2) ... phi(-n_k - 1/2) applied to the untwisted vacuum.
    """

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Union[Dict[Monomial, Fraction], Iterable[Tuple[Monomial, Fraction]]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, dict) else terms
        acc: Dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if any(mono[i] <= mono[i + 1] for i in range(len(mono) - 1)):
                raise ValueError(f"monomial {mono} is not strictly decreasing")
            acc[mono] = acc.get(mono, Fraction(0)) + Fraction(coeff)
        object.__setattr__(self, "terms", {m: c for m, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("UntwistedFockVector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UntwistedFockVector") -> "UntwistedFockVector":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return UntwistedFockVector(acc)

    def __sub__(self, other: "UntwistedFockVector") -> "UntwistedFockVector":
        return self + other.scale(-1)

    def scale(self, scalar) -> "UntwistedFockVector":
        s = Fraction(scalar)
        return UntwistedFockVector({m: c * s for m, c in self.terms.items()})

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def max_mode(self) -> int:
        return max((m[0] for m in self.terms if m), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UntwistedFockVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        parts = [f"{c}*{m}" for m, c in sorted(self.terms.items())][:4]
        return f"UntwistedFockVector({', '.join(parts)})"


def untwisted_vacuum() -> UntwistedFockVector:
    return UntwistedFockVector({(): 1})


def untwisted_omega() -> UntwistedFockVector:
    """The conformal vector (1/2) phi(-3/2) phi(-1/2) vacuum."""
    return UntwistedFockVector({(1, 0): Fraction(1, 2)})


def u_create(n: int, v: UntwistedFockVector) -> UntwistedFockVector:
    """Creation mode phi(-n-1/2), n >= 0."""
    if n < 0:
        raise ValueError("creation label must be >= 0")
    out: Dict[Monomial, Fraction] = {}
    for mono, coeff in v.terms.items():
        if n in mono:
            continue
        pos = 0
        while pos < len(mono) and mono[pos] > n:
            pos += 1
        new = mono[:pos] + (n,) + mono[pos:]
        sign = -1 if pos & 1 else 1
        out[new] = out.get(new, Fraction(0)) + coeff * sign
    return UntwistedFockVector(out)


def u_annihilate(m: int, v: UntwistedFockVector) -> UntwistedFockVector:
    """Annihilation mode phi(m+1/2), m >= 0; contracts with phi(-m-1/2)."""
    if m < 0:
        raise ValueError("annihilation label must be >= 0")
    out: Dict[Monomial, Fraction] = {}
    for mono, coeff in v.terms.items():
        if m not in mono:
            continue
        pos = mono.index(m)
        new = mono[:pos] + mono[pos + 1 :]
        sign = -1 if pos & 1 else 1
        out[new] = out.get(new, Fraction(0)) + coeff * sign
    return UntwistedFockVector(out)


def delta_x(v: UntwistedFockVector) -> Dict[int, UntwistedFockVector]:
    """The double-annihilation lowering operator, returned by power of x.

    Delta_x = (1/2) sum_{m,n >= 0} C_{m,n} phi(m+1/2) phi(n+1/2) x^{-m-n-1};
    the result maps each occurring x-power to the image vector.
    """
    out: Dict[int, UntwistedFockVector] = {}
    top = v.max_mode()
    for m in range(top + 1):
        for n in range(top + 1):
            coeff = cmn(m, n)
            if coeff == 0:
                continue
            w = u_annihilate(m, u_annihilate(n, v)).scale(coeff / 2)
            if w.is_zero():
                continue
            power = -m - n - 1
            out[power] = out.get(power, UntwistedFockVector()) + w
    return {k: w for k, w in out.items() if not w.is_zero()}


@dataclass(frozen=True)
class DeltaReport:
    first_order: Dict[int, UntwistedFockVector]
    second_order_vanishes: bool
    matches_conformal_correction: bool


def delta_apply_to_omega() -> DeltaReport:
    """Apply the lowering operator to the conformal vector.

    Expected: a single component (1/16) x^{-2} vacuum, and a vanishing
    second application, so the exponential correction stops after one step.
    """
    omega = untwisted_omega()
    first = delta_x(omega)
    expected = {-2: untwisted_vacuum().scale(Fraction(1, 16))}
    matches = set(first) == set(expected) and all(
        (first[k] - expected[k]).is_zero() for k in expected
    )
    second_ok = True
    for w in first.values():
        if any(not img.is_zero() for img in delta_x(w).values()):
            second_ok = False
    return DeltaReport(first, second_ok, matches)


# ----------------------------------------------------------------------
# graded dimensions
# ----------------------------------------------------------------------


def _distinct_partition_counts(limit: int) -> List[int]:
    """Number of partitions of g into distinct positive parts, g = 0..limit."""
    counts = [0] * (limit + 1)
    counts[0] = 1
    for part in range(1, limit + 1):
        for g in range(limit, part - 1, -1):
            counts[g] += counts[g - part]
    return counts


def graded_dimension_M(cutoff) -> QExpansion:
    """Trace of q^{L(0) - c/24} over the twisted module, c = 1/2.

    Monomials of grade g are subsets of {0, 1, 2, ...} with sum g; the
    optional zero mode doubles the count of distinct-part partitions.
    Exponents are g + 1/16 - 1/48 = g + 1/24.
    """
    return graded_dimension_M_half(cutoff).scale(2)


def graded_dimension_M_half(cutoff) -> QExpansion:
    """Graded dimension of either parity half: distinct-part partitions only."""
    cutoff = Fraction(cutoff)
    limit = int(cutoff - Fraction(1, 24)) if cutoff > Fraction(1, 24) else 0
    counts = _distinct_partition_counts(limit)
    return QExpansion.from_lattice(Fraction(1, 24), 1, counts, 1, cutoff)
