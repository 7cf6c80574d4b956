"""Fermionic Fock spaces over Q(sqrt 2): one exterior algebra, two sectors.

A monomial is a strictly decreasing tuple (n_1 > ... > n_k >= 0) of stored
modes, and one Clifford kernel acts on both readings of a stored mode n:

* the parity-twisted module ``M``: n is the integer mode phi(-n) on the
  twisted ground state, with anti-brackets {phi(a), phi(b)} = delta_{a+b,0}
  and the self-pairing phi(0)^2 = 1/2, so phi(0) is the kernel's creation
  of mode 0 plus half its contraction; sqrt 2 enters through the
  parity-split ground states (1 +- sqrt2 phi(0)) 1,
* the untwisted space ``F``: n is the creation mode phi(-n-1/2).  The
  lowering-operator coefficient table C and its generating function live
  on this side.

Coefficients stay ints and Fractions until sqrt 2 enters; ``coeff`` reads
them as ``QuadRational``.  The kernel only adds, negates and multiplies, so
the scalars form a ring and nothing here divides.  Normal ordering puts
annihilators on the right with a sign per transposition; at a self-paired
mode the product is antisymmetrized, which is what makes the diagonal
conformal weight come out as grade + 1/16 with no further constant.

Twisted vectors beyond the grade cutoff are dropped and flagged, never
silently wrapped around; untwisted vectors have no cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .arith import QuadRational, SQRT2, binom
from .qseries import QExpansion, _exponent

Monomial = Tuple[int, ...]
Scalar = Union[QuadRational, Fraction, int]

DEFAULT_GRADE_CUTOFF = 8

__all__ = [
    "FockVector",
    "phi",
    "virasoro_mode",
    "virasoro_mode_quadratic",
    "vacuum",
    "vacuum_pm",
    "basis_monomials",
    "cmn",
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


def _exact(value: Scalar) -> Scalar:
    """``value``, refused with ``TypeError`` unless an int, Fraction or QuadRational."""
    if not isinstance(value, (int, Fraction, QuadRational)):
        raise TypeError(f"Fock coefficients must be exact, not {value!r}")
    return value


class FockVector:
    """Finite Q(sqrt 2)-combination of Clifford monomials; ``cutoff`` bounds
    the total grade, ``None`` (the untwisted sector) means no truncation."""

    __slots__ = ("terms", "cutoff", "truncated")

    def __init__(
        self,
        terms: Union[Dict[Monomial, Scalar], Iterable[Tuple[Monomial, Scalar]]] = (),
        cutoff: Optional[int] = DEFAULT_GRADE_CUTOFF,
    ) -> None:
        if cutoff is not None and (not isinstance(cutoff, int) or cutoff < 0):
            raise ValueError(f"grade cutoff must be None or an int >= 0, not {cutoff!r}")
        items = terms.items() if isinstance(terms, dict) else terms
        acc: Dict[Monomial, Scalar] = {}
        for mono, coeff in items:
            mono, coeff = tuple(mono), _exact(coeff)
            if any(mono[i] <= mono[i + 1] for i in range(len(mono) - 1)):
                raise ValueError(f"monomial {mono} is not strictly decreasing")
            if mono and mono[-1] < 0:
                raise ValueError(f"monomial {mono} has a negative mode")
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
        self._fill(acc, cutoff, False)

    def _fill(self, acc: Dict[Monomial, Scalar], cutoff: Optional[int], truncated: bool) -> "FockVector":
        """Store ``acc``, whose monomials are valid and exact by construction:
        drop zero coefficients, and monomials over ``cutoff`` with a flag."""
        terms: Dict[Monomial, Scalar] = {}
        for mono, coeff in acc.items():
            if cutoff is not None and sum(mono) > cutoff:
                truncated = True
            elif coeff:
                terms[mono] = coeff
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "truncated", truncated)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.cutoff != other.cutoff:
            raise ValueError("grade cutoffs differ")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc[m] + c if m in acc else c
        return _trusted(acc, self.cutoff, self.truncated or other.truncated)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, scalar: Scalar) -> "FockVector":
        scalar = _exact(scalar)
        return _trusted({m: c * scalar for m, c in self.terms.items()}, self.cutoff, self.truncated)

    def coeff(self, mono: Monomial) -> QuadRational:
        c = self.terms.get(tuple(mono), 0)
        return c if isinstance(c, QuadRational) else QuadRational(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __repr__(self) -> str:
        parts = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())][:4]
        more = ", ..." if len(self.terms) > 4 else ""
        flag = ", truncated" if self.truncated else ""
        return f"FockVector({', '.join(parts)}{more}{flag})"


def _trusted(acc: Dict[Monomial, Scalar], cutoff: Optional[int], truncated: bool) -> FockVector:
    """The kernel's builder: ``FockVector`` without the checks its results pass."""
    return object.__new__(FockVector)._fill(acc, cutoff, truncated)


# ----------------------------------------------------------------------
# Clifford kernel, shared by both sectors
# ----------------------------------------------------------------------


def _create(j: int, mono: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Prepend mode ``j`` and sort it past ``pos`` larger modes: sign (-1)^pos
    and the new monomial, or ``None`` if ``j`` already occurs."""
    if j in mono:
        return None
    pos = sum(n > j for n in mono)
    return (-1 if pos & 1 else 1), mono[:pos] + (j,) + mono[pos:]


def _contract(j: int, mono: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Contract mode ``j`` at position ``pos``: sign (-1)^pos and the monomial
    without it, or ``None`` if ``j`` does not occur."""
    if j not in mono:
        return None
    pos = mono.index(j)
    return (-1 if pos & 1 else 1), mono[:pos] + mono[pos + 1 :]


def _act(op, j: int, v: FockVector) -> FockVector:
    """Apply the kernel ``op`` for mode ``j`` to every monomial of ``v``."""
    out: Dict[Monomial, Scalar] = {}
    for mono, coeff in v.terms.items():
        hit = op(j, mono)
        if hit is not None:
            sign, new = hit
            c = coeff if sign > 0 else -coeff
            out[new] = out[new] + c if new in out else c
    return _trusted(out, v.cutoff, v.truncated)


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


def _require_twisted(v: FockVector) -> None:
    if v.cutoff is None:
        raise ValueError("twisted-sector mode applied to an untwisted vector (cutoff=None)")


def phi(n: int, v: FockVector) -> FockVector:
    """Clifford generator phi(n): creation for n < 0, annihilation for n > 0,
    the self-paired zero mode for n = 0."""
    _require_twisted(v)
    if n < 0:
        return _act(_create, -n, v)
    if n > 0:
        return _act(_contract, n, v)
    # mode 0 is always last, so the kernel's signs are (-1)^len and (-1)^(len-1)
    return _act(_create, 0, v) + _act(_contract, 0, v).scale(Fraction(1, 2))


def virasoro_mode(n: int, v: FockVector) -> FockVector:
    """Twisted conformal mode L(n).

    L(0) acts diagonally as grade + 1/16 (the quadratic form reproduces this,
    see :func:`virasoro_mode_quadratic`); other modes are the normal-ordered
    quadratic sums of Clifford generators.
    """
    _require_twisted(v)
    if n == 0:
        out = {mono: c * (sum(mono) + Fraction(1, 16)) for mono, c in v.terms.items()}
        return _trusted(out, v.cutoff, v.truncated)
    return virasoro_mode_quadratic(n, v)


def virasoro_mode_quadratic(n: int, v: FockVector) -> FockVector:
    """L(n) as (1/2) sum_{r < n/2} (n - 2r) :phi(r) phi(n-r): (+ 1/16 at n=0).

    A term with partner s = n - r > 0 is zero unless mode s occurs in ``v``,
    so r runs over n - s for the occurring s, then over n <= r < n/2.
    """
    _require_twisted(v)
    r_hi = (n - 1) // 2
    modes = sorted({s for mono in v.terms for s in mono if s > 0 and n - s <= r_hi}, reverse=True)
    rs = [n - s for s in modes] + list(range(n, r_hi + 1))
    parts = [(phi(r, phi(n - r, v)), Fraction(n - 2 * r, 2)) for r in rs]
    if n == 0:
        parts.append((v, Fraction(1, 16)))
    acc: Dict[Monomial, Scalar] = {}
    for term, weight in parts:
        for mono, c in term.terms.items():
            c = c * weight
            acc[mono] = acc[mono] + c if mono in acc else c
    return _trusted(acc, v.cutoff, v.truncated or any(t.truncated for t, _ in parts))


# ----------------------------------------------------------------------
# lowering-coefficient table and generating function
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _central_binom(n: int) -> Fraction:
    """C(-1/2, n), computed once per n for ``cmn`` and the generating check."""
    return binom(Fraction(-1, 2), n)


def cmn(m: int, n: int) -> Fraction:
    """Closed form (1/2) (m-n)/(m+n+1) C(-1/2, m) C(-1/2, n)."""
    if m < 0 or n < 0:
        raise ValueError("table indices must be >= 0")
    return Fraction(m - n, 2 * (m + n + 1)) * _central_binom(m) * _central_binom(n)


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
    g = [_central_binom(a) for a in range(N + 2)]

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


def untwisted_vacuum() -> FockVector:
    """The untwisted vacuum; a stored mode n stands for phi(-n-1/2)."""
    return FockVector({(): 1}, None)


def untwisted_omega() -> FockVector:
    """The conformal vector (1/2) phi(-3/2) phi(-1/2) vacuum."""
    return FockVector({(1, 0): Fraction(1, 2)}, None)


def u_create(n: int, v: FockVector) -> FockVector:
    """Creation mode phi(-n-1/2), n >= 0."""
    if n < 0:
        raise ValueError("creation label must be >= 0")
    return _act(_create, n, v)


def u_annihilate(m: int, v: FockVector) -> FockVector:
    """Annihilation mode phi(m+1/2), m >= 0; contracts with phi(-m-1/2)."""
    if m < 0:
        raise ValueError("annihilation label must be >= 0")
    return _act(_contract, m, v)


def delta_x(v: FockVector) -> Dict[int, FockVector]:
    """The double-annihilation lowering operator, returned by power of x.

    Delta_x = (1/2) sum_{m,n >= 0} C_{m,n} phi(m+1/2) phi(n+1/2) x^{-m-n-1};
    the result maps each occurring x-power to the image vector.
    """
    out: Dict[int, FockVector] = {}
    top = max((mono[0] for mono in v.terms if mono), default=-1)
    for m in range(top + 1):
        for n in range(top + 1):
            coeff = cmn(m, n)
            if coeff == 0:
                continue
            w = u_annihilate(m, u_annihilate(n, v)).scale(coeff / 2)
            power = -m - n - 1
            out[power] = out[power] + w if power in out else w
    return {k: w for k, w in out.items() if not w.is_zero()}


@dataclass(frozen=True)
class DeltaReport:
    first_order: Dict[int, FockVector]
    second_order_vanishes: bool
    matches_conformal_correction: bool


def delta_apply_to_omega() -> DeltaReport:
    """Apply the lowering operator to the conformal vector.

    Expected: a single component (1/16) x^{-2} vacuum, and a vanishing
    second application, so the exponential correction stops after one step.
    """
    first = delta_x(untwisted_omega())
    matches = first == {-2: untwisted_vacuum().scale(Fraction(1, 16))}
    # delta_x keeps only nonzero images
    second_ok = not any(delta_x(w) for w in first.values())
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
    cutoff = _exponent(cutoff)
    limit = int(cutoff - Fraction(1, 24)) if cutoff > Fraction(1, 24) else 0
    counts = _distinct_partition_counts(limit)
    return QExpansion.from_lattice(Fraction(1, 24), 1, counts, 1, cutoff)
