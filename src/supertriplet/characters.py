"""Graded dimensions of the N=1 super triplet algebra family.

For a fixed integer m >= 1 (lattice norm 2m+1), this module builds the
q-expansions of

* the 2m+1 parity-twisted irreducible characters (families ``RLambda`` and
  ``RPi``),
* the 2m+1 untwisted irreducible characters and their supercharacters
  (families ``SLambda`` and ``SPi``),
* irreducible highest-weight characters of the Ramond superconformal
  algebra on the weight grid h(2i+2, 2n+1),
* lattice Fock module characters, and
* the derived triplet algebra W(2m+1) characters obtained by rescaling the
  modular variable (the "bridge" table).

Everything here is exact: coefficients are rationals (in fact integers for
all characters) and exponents are rationals on an m-dependent lattice.

Twisted characters are graded over both parity eigenspaces; the two halves
are exactly equal, so the split characters are available through a halving
flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Literal, Tuple

from .qseries import QExpansion, _exponent
from .specialfn import ThetaIndex, eta, frak_f, frak_f1, frak_f2, g_deriv, g_series, theta, theta_deriv

Family = Literal["RLambda", "RPi", "SLambda", "SPi"]
Flavor = Literal["character", "supercharacter"]

TWISTED_FAMILIES = ("RLambda", "RPi")
UNTWISTED_FAMILIES = ("SLambda", "SPi")

__all__ = [
    "ModuleLabel",
    "BasisFunction",
    "theta_rows",
    "character_terms",
    "central_charge",
    "conformal_weight",
    "twisted_char",
    "untwisted_char",
    "ramond_irred_char",
    "fock_char",
    "triplet_char_bridge",
    "all_labels",
]


def _index_range(family: str, m: int) -> range:
    if family == "RLambda" or family == "SPi":
        return range(1, m + 1)
    if family == "RPi" or family == "SLambda":
        return range(1, m + 2)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ModuleLabel:
    """Label of an irreducible module: family, 1-based index, and m."""

    family: Family
    index: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.family not in TWISTED_FAMILIES + UNTWISTED_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        rng = _index_range(self.family, self.m)
        if self.index not in rng:
            raise ValueError(
                f"{self.family} index must lie in [{rng.start}, {rng.stop - 1}] "
                f"for m={self.m}, got {self.index}"
            )

    @property
    def twisted(self) -> bool:
        return self.family in TWISTED_FAMILIES


def central_charge(m: int) -> Fraction:
    """Central charge 3/2 - 12 m^2 / (2m+1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(3, 2) - Fraction(12 * m * m, 2 * m + 1)


def conformal_weight(i: int, n: int, m: int) -> Fraction:
    """Weight-grid entry h(2i+2, 2n+1); the second argument may be negative.

    h = ((2i+2 - (2n+1)(2m+1))^2 - 4 m^2) / (8 (2m+1)) + 1/16.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = 2 * m + 1
    a = 2 * i + 2 - (2 * n + 1) * p
    return Fraction(a * a - 4 * m * m, 8 * p) + Fraction(1, 16)


# ----------------------------------------------------------------------
# shared eta-quotient prefactors, built with margin then truncated
# ----------------------------------------------------------------------

_PAD = Fraction(2)


_PREFACTOR_BUILDERS = {"f": frak_f, "f1": frak_f1, "f2": frak_f2}


@lru_cache(maxsize=None)
def _quotient(tag: str, cutoff: Fraction) -> QExpansion:
    """The prefactor ``tag/eta`` for tag ``f``, ``f1`` or ``f2``, exact below ``cutoff``."""
    build = cutoff + _PAD
    return (_PREFACTOR_BUILDERS[tag](build) / eta(build)).truncated(cutoff)


# ----------------------------------------------------------------------
# the theta-row table behind every character and the closure basis
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def theta_rows(m: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The ``(integer j, half-odd j)`` theta rows of the m-th family, all at
    k = (2m+1)/2: the top row ``(0, (2m+1)/2)``, then ``(m-i, m-i-1/2)`` for i < m."""
    return ((Fraction(0), Fraction(2 * m + 1, 2)),) + tuple(
        (Fraction(m - i), Fraction(2 * (m - i) - 1, 2)) for i in range(m)
    )


# prefactor, theta kind, derivative kind and row entry (0: integer j, 1: half-odd j)
# of each sector, in closure-basis order
_SECTORS = {
    "supercharacter": ("f1", "g", "dg", 0),
    "character": ("f", "theta", "dtheta", 0),
    "twisted": ("f2", "theta", "dtheta", 1),
}


@dataclass(frozen=True)
class BasisFunction:
    """One member of the closure-space basis, ``(prefactor/eta) * kind[j, k]``.

    ``prefactor`` selects f/eta, f1/eta or f2/eta; ``kind`` selects the theta
    part; ``tau_power`` is 1 for the tau-weighted derivative members.
    """

    prefactor: str  # 'f', 'f1', 'f2'
    kind: str  # 'theta', 'g', 'dtheta', 'dg'
    j: Fraction
    k: Fraction
    tau_power: int = 0

    @property
    def name(self) -> str:
        tau = "tau*" if self.tau_power else ""
        return f"{tau}({self.prefactor}/eta)*{self.kind}[{self.j},{self.k}]"


_THETA_BUILDERS = {"theta": theta, "g": g_series, "dtheta": theta_deriv, "dg": g_deriv}


def character_terms(label: ModuleLabel, flavor: Flavor) -> Tuple[Tuple[Fraction, BasisFunction], ...]:
    """The theta part of a character as ``(coefficient, BasisFunction)`` pairs.

    Index a reads ``theta_rows(m)[a]`` for a Lambda label and row m+1-a for
    a Pi label; index m+1 (RPi, SLambda) reads row 0, the top row.  With
    p = 2m+1 a Lambda label on row j is (1-2j/p) theta_j + (2/p) dtheta_j, a
    Pi label (2j/p) theta_j - (2/p) dtheta_j and a top-row label theta_j;
    twisted labels read the half-odd j of the row, untwisted ones the integer j.
    """
    m, p = label.m, 2 * label.m + 1
    prefactor, kind, dkind, part = _SECTORS["twisted" if label.twisted else flavor]
    lam = label.family.endswith("Lambda")
    row = 0 if label.index == m + 1 else label.index if lam else m + 1 - label.index
    j, k = theta_rows(m)[row][part], Fraction(p, 2)
    plain = BasisFunction(prefactor, kind, j, k)
    if row == 0:
        return ((Fraction(1), plain),)
    a, b = (1 - 2 * j / p, Fraction(2, p)) if lam else (2 * j / p, Fraction(-2, p))
    return ((a, plain), (b, BasisFunction(prefactor, dkind, j, k)))


def _character(label: ModuleLabel, flavor: Flavor, cutoff, factor: int) -> QExpansion:
    """``factor`` times the prefactor quotient times the theta part, exact below ``cutoff``."""
    cutoff = _exponent(cutoff)
    build = cutoff + 1
    (a, first), *rest = character_terms(label, flavor)
    body = _THETA_BUILDERS[first.kind](ThetaIndex(first.j, first.k), build) * a
    for b, fn in rest:
        body = body + _THETA_BUILDERS[fn.kind](ThetaIndex(fn.j, fn.k), build) * b
    return (_quotient(first.prefactor, build) * body).scale(factor).truncated(cutoff)


@lru_cache(maxsize=None)
def twisted_char(label: ModuleLabel, cutoff, halve: bool = False) -> QExpansion:
    """Character of a parity-twisted irreducible module, graded over both parities.

    With ``halve=True`` returns the character of either single-parity half
    (the two halves coincide).  Memoised per process.
    """
    if not label.twisted:
        raise ValueError("twisted_char expects an RLambda or RPi label")
    return _character(label, "character", cutoff, 1 if halve else 2)


@lru_cache(maxsize=None)
def untwisted_char(label: ModuleLabel, flavor: Flavor, cutoff) -> QExpansion:
    """Character or supercharacter of an untwisted irreducible module, memoised per process."""
    if label.twisted:
        raise ValueError("untwisted_char expects an SLambda or SPi label")
    if flavor not in ("character", "supercharacter"):
        raise ValueError("flavor must be 'character' or 'supercharacter'")
    return _character(label, flavor, cutoff, 1)


def ramond_irred_char(i: int, n: int, m: int, cutoff, halve: bool = False) -> QExpansion:
    """Graded character of the irreducible Ramond highest-weight module
    on the grid row (i, second index 2n+1).

    The expansion is 2 q^{-c/24} (f2/eta) (q^{h1} - q^{h2}) where h1, h2 are
    the grid weights at second index 2n+1 and -(2n+1), ordered so that the
    subtracted power is the larger one.  For negative second index this
    ordering makes the label (i, n) equivalent to (i, -n-1); see the module
    docs for why that convention is a choice rather than a consequence.
    """
    if not 0 <= i <= 2 * m:
        raise ValueError(f"grid row i must lie in [0, {2 * m}] for m={m}")
    cutoff = _exponent(cutoff)
    h1 = conformal_weight(i, n, m)
    h2 = conformal_weight(i, -n - 1, m)
    if h1 > h2:
        h1, h2 = h2, h1
    c = central_charge(m)
    pref = _quotient("f2", cutoff + 1)
    return (pref.shifted(h1 - c / 24) - pref.shifted(h2 - c / 24)).scale(1 if halve else 2).truncated(cutoff)


def fock_char(i: int, m: int, cutoff) -> QExpansion:
    """Character of the i-th twisted lattice Fock module, 0 <= i <= 2m.

    Built from first principles: lowest weights minus c/24 run over
    (t - m)^2 / (2 (2m+1)) with t = 1/2 + i + n (2m+1), n over the integers,
    each Fock summand contributing 2 q^{h - c/24} f2/eta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= i <= 2 * m:
        raise ValueError(f"Fock index must lie in [0, {2 * m}] for m={m}")
    cutoff = _exponent(cutoff)
    build = cutoff + 1
    # (t - m)^2 / (2(2m+1)) with t - m = (2m+1) n + (i - m + 1/2): a theta sum
    lattice_part = theta((Fraction(2 * (i - m) + 1, 2), Fraction(2 * m + 1, 2)), build)
    return (_quotient("f2", build) * lattice_part.scale(2)).truncated(cutoff)


# ----------------------------------------------------------------------
# bridge to the triplet algebra W(2m+1)
# ----------------------------------------------------------------------


def triplet_char_bridge(m: int, cutoff) -> Dict[str, Dict[int, QExpansion]]:
    """Derived triplet algebra W(2m+1) characters, indexed 1..2m+1.

    The four defining relations, read at the doubled modular variable:

    * Lambda(2a)   from the twisted RLambda(a) character times f/2,
    * Lambda(2a-1) from the untwisted SLambda(a) character times f2,
    * Pi(2a-1)     from the twisted RPi(a) character times f/2,
    * Pi(2a)       from the untwisted SPi(a) character times f2.

    Every entry is exact below ``cutoff`` with integer coefficients.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cutoff = _exponent(cutoff)
    half_cut = cutoff / 2 + 1
    f = frak_f(half_cut)
    f2 = frak_f2(half_cut)
    table: Dict[str, Dict[int, QExpansion]] = {"Lambda": {}, "Pi": {}}
    for label, flavor in all_labels(m):
        if flavor != "character":
            continue
        kind = label.family[1:]
        chi = character_series(label, flavor, half_cut)
        series = f * chi / 2 if label.twisted else f2 * chi
        s = 2 * label.index if label.twisted == (kind == "Lambda") else 2 * label.index - 1
        table[kind][s] = series.double_exponents().truncated(cutoff)
    return table


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_labels(m: int) -> Tuple[Tuple[ModuleLabel, Flavor], ...]:
    """All character rows for a given m: twisted, untwisted, supercharacters."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rows: List[Tuple[ModuleLabel, Flavor]] = []
    for family in TWISTED_FAMILIES:
        for index in _index_range(family, m):
            rows.append((ModuleLabel(family, index, m), "character"))
    for flavor in ("character", "supercharacter"):
        for family in UNTWISTED_FAMILIES:
            for index in _index_range(family, m):
                rows.append((ModuleLabel(family, index, m), flavor))
    return tuple(rows)


def character_series(label: ModuleLabel, flavor: Flavor, cutoff) -> QExpansion:
    if label.twisted:
        if flavor != "character":
            raise ValueError("twisted modules have no separate supercharacter row")
        return twisted_char(label, cutoff)
    return untwisted_char(label, flavor, cutoff)
