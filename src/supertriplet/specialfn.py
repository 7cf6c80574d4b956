"""Half-period theta constants and companion modular q-series.

Conventions, all at elliptic variable z = 0:

* ``theta((j, k))``     is ``sum_n q^{(2kn+j)^2 / 4k}``,
* ``theta_deriv``       inserts the factor ``(2kn+j)`` (the normalized
  z-derivative ``(1/pi i) d/dz`` at z = 0),
* ``g_series``/``g_deriv`` are the alternating-sign analogues with ``(-1)^n``,
  defined for integer j,
* ``eta`` is ``q^{1/24} prod (1 - q^n)``, and ``frak_f``, ``frak_f1``,
  ``frak_f2`` are the companion products
  ``q^{-1/48} prod (1 + q^{n+1/2})``, ``q^{-1/48} prod (1 - q^{n-1/2})``,
  ``q^{1/24} prod (1 + q^n)``.

Summation windows are computed by exact integer square-root bracketing on
scaled values; no floating point enters any exact expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, sub
from typing import Tuple, Union

from .arith import bernoulli_number
from .qseries import QExpansion, QSeriesError, _exponent, _run_length, product_expansion

IndexLike = Union["ThetaIndex", Tuple]

EISENSTEIN_VARIANTS = ("full", "level2-one")

__all__ = [
    "ThetaIndex",
    "theta",
    "theta_deriv",
    "g_series",
    "g_deriv",
    "eta",
    "frak_f",
    "frak_f1",
    "frak_f2",
    "eisenstein",
    "EISENSTEIN_VARIANTS",
]


@dataclass(frozen=True)
class ThetaIndex:
    """Index pair (j, k) with j, k half-integers and k > 0.

    The raw j is kept, unreduced modulo 2k: derivative coefficients depend on it.
    """

    j: Fraction
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "j", Fraction(self.j))
        object.__setattr__(self, "k", Fraction(self.k))
        if self.k <= 0:
            raise ValueError("theta index requires k > 0")
        if (2 * self.j).denominator != 1 or (2 * self.k).denominator != 1:
            raise ValueError("theta index entries must be half-integers")

    @property
    def j_is_integer(self) -> bool:
        return self.j.denominator == 1


def _as_index(idx: IndexLike) -> ThetaIndex:
    if isinstance(idx, ThetaIndex):
        return idx
    j, k = idx
    return ThetaIndex(Fraction(j), Fraction(k))


def _lattice_sum(idx: IndexLike, cutoff, weighted: bool, alternating: bool) -> QExpansion:
    """:func:`_lattice_run`, memoised on the key ``(ThetaIndex, Fraction cutoff, ...)``."""
    return _lattice_run(_as_index(idx), _exponent(cutoff), weighted, alternating)


@lru_cache(maxsize=None)
def _lattice_run(idx: ThetaIndex, cutoff: Fraction, weighted: bool, alternating: bool) -> QExpansion:
    """Sum of ``w_n q^{(2kn+j)^2/4k}`` over the window below ``cutoff``.

    The weight ``w_n`` is ``2kn+j`` when ``weighted`` and 1 otherwise, times
    ``(-1)^n`` when ``alternating``.  With ``L`` the lcm of the denominators
    of 2k and j, ``T = (2kn+j) L`` is an integer and the exponent is
    ``T^2 / (2 (2k L) L)``, so the sum is written straight into an integer
    run (under scale ``1/L`` when weighted) on the coarsest lattice through
    all its exponents.
    """
    if alternating and not idx.j_is_integer:
        raise ValueError("alternating theta series require an integer first index")
    if cutoff <= 0:
        raise QSeriesError("theta cutoff must be positive")
    lat = math.lcm((2 * idx.k).denominator, idx.j.denominator)
    step, base = int(2 * idx.k * lat), int(idx.j * lat)
    den = 2 * step * lat
    # the exponent T^2 / den with T = step*n + base is below cutoff iff |T| <= root
    root = math.isqrt(math.ceil(cutoff * den) - 1)
    first, stop = -((root + base) // step), (root - base) // step + 1
    _run_length(-((first - stop) // 2))  # T -> T^2 is at most 2-to-1: the run holds at least half the window
    window = range(first, stop)
    squares = [(step * n + base) ** 2 for n in window]
    if not squares:
        return QExpansion.zero(cutoff)
    low = min(squares)
    gap = math.gcd(den, *(sq - low for sq in squares))
    coeffs = [0] * _run_length((max(squares) - low) // gap + 1)
    for n, sq in zip(window, squares):
        w = step * n + base if weighted else 1
        coeffs[(sq - low) // gap] += -w if alternating and n & 1 else w
    scale = Fraction(1, lat) if weighted else 1
    return QExpansion.from_lattice(Fraction(low, den), den // gap, coeffs, scale, cutoff)


def theta(idx: IndexLike, cutoff) -> QExpansion:
    """Theta constant: multiplicity-counting sum of q^{(2kn+j)^2/4k} below cutoff."""
    return _lattice_sum(idx, cutoff, weighted=False, alternating=False)


def theta_deriv(idx: IndexLike, cutoff) -> QExpansion:
    """Derivative theta constant: coefficient (2kn+j) at exponent (2kn+j)^2/4k."""
    return _lattice_sum(idx, cutoff, weighted=True, alternating=False)


def g_series(idx: IndexLike, cutoff) -> QExpansion:
    """Alternating theta constant: sign (-1)^n on each lattice summand."""
    return _lattice_sum(idx, cutoff, weighted=False, alternating=True)


def g_deriv(idx: IndexLike, cutoff) -> QExpansion:
    """Alternating derivative theta constant: coefficient (-1)^n (2kn+j)."""
    return _lattice_sum(idx, cutoff, weighted=True, alternating=True)


@lru_cache(maxsize=None)
def eta(cutoff) -> QExpansion:
    """Dedekind eta product q^{1/24} prod_{n>=1} (1 - q^n)."""
    return product_expansion(-1, 0, Fraction(1, 24), cutoff)


@lru_cache(maxsize=None)
def frak_f(cutoff) -> QExpansion:
    """q^{-1/48} prod_{n>=0} (1 + q^{n+1/2})."""
    return product_expansion(1, Fraction(1, 2), Fraction(-1, 48), cutoff)


@lru_cache(maxsize=None)
def frak_f1(cutoff) -> QExpansion:
    """q^{-1/48} prod_{n>=1} (1 - q^{n-1/2})."""
    return product_expansion(-1, Fraction(1, 2), Fraction(-1, 48), cutoff)


@lru_cache(maxsize=None)
def frak_f2(cutoff) -> QExpansion:
    """q^{1/24} prod_{n>=1} (1 + q^n)."""
    return product_expansion(1, 0, Fraction(1, 24), cutoff)


def eisenstein(k: int, variant: str, cutoff) -> QExpansion:
    """Weight-2k Eisenstein series in one of two normalizations.

    ``full``        -B_2k/(2k)! + (2/(2k-1)!) sum n^{2k-1} q^n / (1 - q^n)
    ``level2-one``  +B_2k/(2k)! + (2/(2k-1)!) sum n^{2k-1} q^n / (1 + q^n)

    Both run one Lambert loop: each base exponent below the cutoff adds its
    weight at every multiple of itself, with alternating sign in the level-2
    variant, into one integer run under the scale 2/(2k-1)!.
    """
    if k < 1:
        raise ValueError("eisenstein weight index must be >= 1")
    if variant not in EISENSTEIN_VARIANTS:
        raise ValueError(f"variant must be one of {EISENSTEIN_VARIANTS}")
    cutoff = _exponent(cutoff)
    constant = (-1 if variant == "full" else 1) * bernoulli_number(2 * k) / math.factorial(2 * k)
    size = max(0, math.ceil(cutoff))
    coeffs = [0] * _run_length(size)
    for b in range(1, size):
        weight = repeat(b ** (2 * k - 1))
        if variant == "full":
            coeffs[b::b] = map(add, coeffs[b::b], weight)
        else:
            coeffs[b::2 * b] = map(add, coeffs[b::2 * b], weight)
            coeffs[2 * b::2 * b] = map(sub, coeffs[2 * b::2 * b], weight)
    scale = Fraction(2, math.factorial(2 * k - 1))
    return QExpansion.from_lattice(0, 1, coeffs, scale, cutoff) + constant
