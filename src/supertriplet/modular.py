"""Numerical verification of modular behaviour.

Three layers:

* transformation laws of theta constants under tau -> -1/tau and
  tau -> tau+1, checked pointwise on grids in the upper half plane,
* the closure space spanned by the character basis functions: its numerical
  rank (expected 9m+3) and least-squares closure of the basis under S and T,
* a modular differential operator in D = q d/dq of order 3m+1 with
  Eisenstein-polynomial coefficients annihilating the twisted characters,
  found by exact rational linear algebra.

Branch convention: sqrt(-i tau) is the principal branch, which is smooth on
the upper half plane since -i tau has positive real part there.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# _PREFACTOR_BUILDERS names the BasisFunction prefactors; perfbench/selftest.py reads it here
from .characters import (
    _PREFACTOR_BUILDERS, _SECTORS, BasisFunction, ModuleLabel, _quotient, _theta_series, theta_rows, twisted_char,
)
from .qseries import QExpansion, _convolve, _evaluate_grid, _exponent
from .specialfn import ThetaIndex, _as_index, eisenstein, eta, g_deriv, g_series, theta, theta_deriv
from .zhu import classify_twisted

DEFAULT_NUMERIC_CUTOFF = Fraction(400)
# relative singular-value floor of the reference count ``threshold_rank`` of closure_rank
_RANK_THRESHOLD = 1e-8
# the negative control of closure_under_s_t compares exact series below this exponent
_CONTROL_WINDOW = Fraction(8)
# q-orders that the rows of find_mde cover past the requested q_order
_MDE_MARGIN = 6

__all__ = [
    "BasisFunction",
    "basis_functions",
    "SampleGrid",
    "standard_grid",
    "theta_transform_grid",
    "s_transform_residual",
    "t_transform_residual",
    "closure_rank",
    "closure_under_s_t",
    "find_mde",
    "RankReport",
    "ClosureReport",
    "MdeResult",
    "character_theta_indices",
]


# ----------------------------------------------------------------------
# basis of the closure space
# ----------------------------------------------------------------------


def basis_functions(m: int) -> List[BasisFunction]:
    """The 9m+3 basis members of the S/T-closure of the character space: each
    sector's plain member on every theta row, its derivative member on every
    row below the top one, then those derivative members weighted by tau."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k, rows, sectors = Fraction(2 * m + 1, 2), theta_rows(m), _SECTORS.values()
    plain = [BasisFunction(pref, kind, row[part], k) for row in rows for pref, kind, _, part in sectors]
    deriv = [BasisFunction(pref, dkind, row[part], k) for row in rows[1:] for pref, _, dkind, part in sectors]
    return plain + deriv + [replace(fn, tau_power=1) for fn in deriv]


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SampleGrid:
    points: Tuple[complex, ...]
    cutoff: Fraction

    def __post_init__(self):
        for tau in self.points:
            if tau.imag <= 0.3:
                raise ValueError("grid points must satisfy Im(tau) > 0.3")


_IM_LADDER = (0.305, 0.315, 0.33, 0.36, 0.42, 0.55, 0.8, 1.3, 2.1)


def standard_grid(m: int, cutoff=DEFAULT_NUMERIC_CUTOFF) -> SampleGrid:
    """At least 3(9m+3) points clustered toward the Im floor with a few tall
    ones, spread over a near-full period in the real direction.

    Rationale: the family's distinguishing q-tails are geometrically
    suppressed as Im grows, so rank decisions need |q| as large as the
    Im > 0.3 constraint allows, while the tau-weighted members and the
    shift laws want real-part and height diversity.
    """
    n_re = max(10, -(-3 * (9 * m + 3) // len(_IM_LADDER)))
    step = 0.9 / (n_re - 1)
    res = [-0.45 + step * i for i in range(n_re)]
    pts = [complex(re, im) for im in _IM_LADDER for re in res]
    return SampleGrid(tuple(pts), _exponent(cutoff))


def theta_transform_grid(cutoff=DEFAULT_NUMERIC_CUTOFF) -> SampleGrid:
    """Small mixed grid for pointwise transformation-law residuals."""
    pts = (0.8j, 1.0j, 1.25j, complex(0.1, 0.9), complex(-0.15, 0.75))
    return SampleGrid(pts, _exponent(cutoff))


# ----------------------------------------------------------------------
# S and T transformation laws for theta constants
# ----------------------------------------------------------------------


def _check_eval_bound(series: Sequence[QExpansion], taus: np.ndarray, tolerance: float) -> np.ndarray:
    """Every one of ``series`` summed over the grid ``taus`` (points x series),
    refused if a tail bound exceeds tolerance/10 anywhere; the message names
    the first such point."""
    values, bounds = _evaluate_grid(series, taus)
    over = np.flatnonzero((bounds > tolerance / 10).any(axis=1))
    if over.size:
        raise ValueError(
            f"series cutoff too small: evaluation bound {bounds.max():.3e} exceeds "
            f"tolerance/10 at tau={taus[over[0]]}"
        )
    return values


def s_transform_residual(
    idx,
    variant: str,
    grid: Optional[SampleGrid] = None,
    tolerance: float = 1e-9,
) -> float:
    """Max residual of the tau -> -1/tau law for a theta constant.

    The applicable display depends on the parity class of (j, k):

    * k in N+1/2: image in the theta (derivative) family itself for integer
      j, in the alternating family for half-odd j,
    * otherwise the generic law mapping onto indices (2j', 4k).

    Derivative variants carry one extra factor of tau.
    """
    if variant not in ("theta", "theta_deriv"):
        raise ValueError("variant must be 'theta' or 'theta_deriv'")
    idx = _as_index(idx)
    grid = grid or theta_transform_grid()
    cutoff = grid.cutoff
    j, k = idx.j, idx.k
    two_k = 2 * k
    k_half_odd = two_k.denominator == 1 and two_k.numerator % 2 == 1
    deriv = variant == "theta_deriv"
    taus = np.asarray(grid.points, dtype=complex)
    lhs = _check_eval_bound([(theta_deriv if deriv else theta)(idx, cutoff)], -1 / taus, tolerance)[:, 0]
    if k_half_odd:
        if idx.j_is_integer:
            family = theta_deriv if deriv else theta
        else:
            family = g_deriv if deriv else g_series
        images = [(ThetaIndex(Fraction(jp), k), j * jp / k) for jp in range(1 if deriv else 0, int(two_k))]
        norm = np.sqrt(-1j * taus / float(two_k))
    else:
        four_k = 4 * k
        if four_k.denominator != 1:
            raise ValueError("generic law needs 4k integral")
        family = theta_deriv if deriv else theta
        images = [(ThetaIndex(Fraction(2 * jp), four_k), jp * j / k) for jp in range(int(four_k))]
        norm = np.sqrt(-1j * taus) / math.sqrt(float(two_k))
    values = _check_eval_bound([family(image, cutoff) for image, _ in images], taus, tolerance)
    total = values @ np.array([cmath.exp(-1j * math.pi * float(turn)) for _, turn in images])
    rhs = norm * total
    if deriv:
        rhs = rhs * taus
    return float(np.abs(lhs - rhs).max(initial=0.0))


def t_transform_residual(
    idx,
    variant: str,
    grid: Optional[SampleGrid] = None,
) -> float:
    """Max residual of the tau -> tau+1 law for a theta constant.

    For integer j the image lies in the alternating family with phase
    e^{i pi j^2 / 2k}; for half-odd j (k half-odd) the family is fixed.
    """
    if variant not in ("theta", "theta_deriv"):
        raise ValueError("variant must be 'theta' or 'theta_deriv'")
    idx = _as_index(idx)
    grid = grid or theta_transform_grid()
    cutoff = grid.cutoff
    deriv = variant == "theta_deriv"
    lhs_series = (theta_deriv if deriv else theta)(idx, cutoff)
    phase = cmath.exp(1j * math.pi * float(idx.j * idx.j / (2 * idx.k) % 2))
    if idx.j_is_integer:
        rhs_series = (g_deriv if deriv else g_series)(idx, cutoff)
    else:
        rhs_series = lhs_series
    taus = np.asarray(grid.points, dtype=complex)
    lhs = lhs_series.evaluate(taus + 1).value
    rhs = phase * rhs_series.evaluate(taus).value
    return float(np.abs(lhs - rhs).max(initial=0.0))


def character_theta_indices(m: int) -> List[ThetaIndex]:
    """Every theta index entering the m-th character family, row by row."""
    return [ThetaIndex(j, Fraction(2 * m + 1, 2)) for row in theta_rows(m) for j in row]


# ----------------------------------------------------------------------
# closure rank and span fits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    m: int
    rank: int
    expected: int
    gap: float
    singular_values: Tuple[float, ...]
    threshold_rank: int

    def to_json(self) -> dict:
        return {**vars(self)}


def _evaluation_matrix(
    fns: Sequence[BasisFunction], points: Sequence[complex], cutoff: Fraction
) -> np.ndarray:
    """Basis members (columns) at ``points`` (rows) from one grid sum of their series,
    read-only and kept for the last three grids (base, S, T), so both closure checks share them."""
    return _grid_matrix(tuple(fns), tuple(points), cutoff)


@lru_cache(maxsize=3)
def _grid_matrix(fns: Tuple[BasisFunction, ...], points: Tuple[complex, ...], cutoff: Fraction) -> np.ndarray:
    taus = np.asarray(points, dtype=complex)
    prefs = {tag: _quotient(tag, cutoff) for tag in dict.fromkeys(fn.prefactor for fn in fns)}
    parts = {key: _theta_series(*key, cutoff) for key in dict.fromkeys((fn.kind, fn.j, fn.k) for fn in fns)}
    value = dict(zip([*prefs, *parts], _evaluate_grid([*prefs.values(), *parts.values()], taus).value.T))
    mat = np.column_stack([value[fn.prefactor] * value[fn.kind, fn.j, fn.k] * taus ** fn.tau_power for fn in fns])
    mat.flags.writeable = False
    return mat


def _normalize_columns(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=0)
    norms[norms == 0] = 1.0
    return mat / norms


def _basis_and_grid(m: int, grid: Optional[SampleGrid]) -> Tuple[List[BasisFunction], SampleGrid]:
    """The basis of level m and ``grid`` (``standard_grid(m)`` if None),
    refused unless the grid has at least two points per basis member."""
    fns = basis_functions(m)
    grid = grid or standard_grid(m)
    if len(grid.points) < 2 * len(fns):
        raise ValueError("grid must contain at least two points per basis function")
    return fns, grid


def closure_rank(m: int, grid: Optional[SampleGrid] = None) -> RankReport:
    """Numerical rank of the basis evaluation matrix, expected 9m+3.

    The decision uses the largest spectral gap of the matrix augmented with
    the S-images of every basis member: those extra columns lie in the span,
    so the singular values past the true rank collapse to roundoff, leaving
    one dominant gap.  An absolute-threshold count (singular values of the
    plain basis matrix at or above sigma_max * _RANK_THRESHOLD) is reported
    alongside for reference; at m >= 2 the family's intrinsic conditioning
    on Im > 0.3 grids sits below any fixed threshold of that kind, which is
    why the scale-free gap rule decides.
    """
    fns, grid = _basis_and_grid(m, grid)
    base = _normalize_columns(_evaluation_matrix(fns, grid.points, grid.cutoff))
    svals = np.linalg.svd(base, compute_uv=False)
    threshold_rank = int(np.sum(svals >= svals[0] * _RANK_THRESHOLD))

    s_cols = _evaluation_matrix(fns, [-1 / tau for tau in grid.points], grid.cutoff)
    aug = np.hstack([base, _normalize_columns(s_cols)])
    aug_svals = np.linalg.svd(aug, compute_uv=False)
    ratios = aug_svals[:-1] / aug_svals[1:]
    rank = int(np.argmax(ratios)) + 1
    gap = float(ratios[rank - 1])
    if gap < 1e3:
        warnings.warn(
            f"singular-value gap {gap:.2e} below 1e3: grid refinement needed",
            RuntimeWarning,
        )
    return RankReport(
        m, rank, 9 * m + 3, gap, tuple(float(s) for s in svals), threshold_rank
    )


@dataclass(frozen=True)
class ClosureReport:
    m: int
    worst_s_residual: float
    worst_t_residual: float
    negative_control_residual: float
    negative_control_pointwise: float
    per_member: Tuple[Tuple[str, float, float], ...]

    def to_json(self) -> dict:
        return {
            **vars(self),
            "per_member": [{"name": n, "s_residual": s, "t_residual": t} for n, s, t in self.per_member],
        }


def _fit(mat: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of ``targets`` (a column or columns) over the
    columns of ``mat``, and the relative l2 residual of each column."""
    coeffs, *_ = np.linalg.lstsq(mat, targets, rcond=None)
    norms = np.linalg.norm(targets, axis=0)
    return coeffs, np.linalg.norm(mat @ coeffs - targets, axis=0) / np.where(norms > 0, norms, 1.0)


def closure_under_s_t(m: int, grid: Optional[SampleGrid] = None) -> ClosureReport:
    """Least-squares fit of S- and T-transformed basis members onto the basis.

    Transformed members are judged pointwise: their images are genuine span
    elements, so the relative l2 fit residual sits at roundoff level.

    The negative control (the eta product, a function outside the span) is
    judged at the q-expansion level: a compact grid of exponential-type
    columns can shadow any smooth decaying function pointwise to ~1e-4, so
    pointwise smallness proves nothing for an outsider.  Instead the fitted
    combination is split as P(q) + tau Q(q) with exact series P, Q, and the
    residual is the largest coefficient mismatch of (P - eta, Q) below
    ``_CONTROL_WINDOW``; for a true span member this would be roundoff, for
    eta it is order one.  The pointwise control value is reported alongside.
    """
    fns, grid = _basis_and_grid(m, grid)
    mat = _evaluation_matrix(fns, grid.points, grid.cutoff)
    s_targets = _evaluation_matrix(fns, [-1 / tau for tau in grid.points], grid.cutoff)
    t_targets = _evaluation_matrix(fns, [tau + 1 for tau in grid.points], grid.cutoff)
    (_, rs), (_, rt) = _fit(mat, s_targets), _fit(mat, t_targets)
    per = tuple((fn.name, float(s), float(t)) for fn, s, t in zip(fns, rs, rt))

    coeffs, pointwise = _fit(mat, eta(grid.cutoff).evaluate(grid.points).value)
    build = _CONTROL_WINDOW + 1
    window = [
        (_quotient(fn.prefactor, build) * _theta_series(fn.kind, fn.j, fn.k, build)).truncated(
            _CONTROL_WINDOW
        )
        for fn in fns
    ] + [eta(_CONTROL_WINDOW)]
    _, runs = _aligned_runs(window, min(s.min_exponent for s in window if not s.is_zero()), _CONTROL_WINDOW)
    # c * sn / sd is the correctly rounded float of each exact coefficient
    values = np.array([[c * s.numerator / s.denominator if c else 0.0 for c in run] for run, s in runs])
    # summed member by member in basis order, so no BLAS summation order enters the residual
    plain, tau_part = np.zeros((2, values.shape[1]), complex)
    for x, fn, row in zip(coeffs, fns, values):
        part = tau_part if fn.tau_power else plain
        part += x * row
    mismatch = max(np.abs(plain - values[-1]).max(), np.abs(tau_part).max())
    rc = float(mismatch / np.abs(values[-1]).max())
    return ClosureReport(m, float(rs.max()), float(rt.max()), rc, float(pointwise), per)


# ----------------------------------------------------------------------
# modular differential operator
# ----------------------------------------------------------------------


def _q_derivative(series: QExpansion) -> QExpansion:
    """D = q d/dq on an exact series: entry i gains its exponent as a factor,
    an integer numerator over the lattice denominator."""
    offset, d, coeffs, scale = series.lattice
    base, step = offset.numerator * d, offset.denominator
    derived = [c * (base + i * step) for i, c in enumerate(coeffs)]
    return QExpansion.from_lattice(offset, d, derived, scale / (step * d), series.cutoff)


def _aligned_runs(
    series_list: Sequence[QExpansion], lead: Fraction, stop: Fraction
) -> Tuple[int, List[Tuple[List[int], Fraction]]]:
    """The common lattice ``lead + (1/d) Z`` of ``series_list`` and, for each
    series, its integer run at ``lead + i/d`` below ``stop`` and its rational
    scale; every series must start at or after ``lead``."""
    present = [s for s in series_list if not s.is_zero()]
    d = math.lcm(*(s.lattice[1] for s in present), *((s.min_exponent - lead).denominator for s in present))
    n = math.ceil((stop - lead) * d)
    runs = []
    for series in series_list:
        offset, own_d, coeffs, scale = series.lattice
        run = [0] * n
        if coeffs:
            start, stride = int((offset - lead) * d), d // own_d
            hi = min(n, start + len(coeffs) * stride)
            if start < hi:
                run[start:hi:stride] = coeffs[: -(-(hi - start) // stride)]
        runs.append((run, scale))
    return d, runs


Monomial = Tuple[Tuple[str, int], ...]
Run = Tuple[Sequence[int], Fraction]  # an integer run on q^0, q^1, ... and its rational scale


def _eisenstein_monomials(max_weight: int, cutoff: Fraction) -> Dict[int, Dict[Monomial, Run]]:
    """Every monomial of weight 2..``max_weight`` in the level-1 and level-2
    series below ``cutoff``, grouped by weight, as a :data:`Run`.

    Generators are G_{2i} ('full') and G_{2i,1} ('level2-one'), each built
    once; a monomial is encoded by its sorted multiset of generator names
    with multiplicities, and is one kernel product of a lighter stored
    monomial and one generator, under the product of their scales.
    """
    gens = [
        (f"G{w}{level}", w, *eisenstein(w // 2, variant, cutoff).lattice[2:])  # offset 0, d = 1
        for w in range(2, max_weight + 1, 2)
        for level, variant in (("", "full"), (",1", "level2-one"))
    ]
    pool: Dict[int, Dict[Monomial, Run]] = {w: {} for w in range(2, max_weight + 1, 2)}

    def extend(start: int, weight: int, chosen: List[str], run: Sequence[int], scale: Fraction):
        for idx in range(start, len(gens)):
            name, w, gen, gen_scale = gens[idx]
            if weight + w > max_weight:
                break
            product = _convolve(run, 1, gen, 1, math.ceil(cutoff)), scale * gen_scale
            pool[weight + w][tuple(sorted(Counter(chosen + [name]).items()))] = product
            extend(idx, weight + w, chosen + [name], *product)

    extend(0, 0, [], [1], Fraction(1))
    return pool


def _operator_rows(
    series: QExpansion, order: int, columns: Sequence[Tuple[int, Monomial]],
    pool: Dict[int, Dict[Monomial, Run]], lead: Fraction, stop: Fraction,
) -> Tuple[List[List[int]], List[int]]:
    """The integer rows and right-hand sides of ``D^order s + sum(x * mono * D^j s)
    = 0`` over the ``columns`` (j, mono of weight 2(order - j) in ``pool``), one
    per exponent of the derivatives' common lattice from ``lead`` below ``stop``;
    a column is one kernel product under the monomial's scale times the
    derivative's, one integer factor clears every scale denominator, and
    all-zero rows are dropped, since any ``x`` satisfies them."""
    derivs = [series]
    for _ in range(order):
        derivs.append(_q_derivative(derivs[-1]))
    d, runs = _aligned_runs(derivs, lead, stop)
    n = len(runs[0][0])
    cols = [runs[order]]
    for j, key in columns:
        mono, mono_scale = pool[2 * (order - j)][key]
        cols.append((_convolve(mono, d, runs[j][0], 1, n), mono_scale * runs[j][1]))
    den = math.lcm(*(scale.denominator for _, scale in cols))
    (target, t), *dense = [(run, s.numerator * (den // s.denominator)) for run, s in cols]
    rows: List[List[int]] = []
    rhs: List[int] = []
    for i, b in enumerate(target):
        row = [values[i] * k for values, k in dense]
        if b or any(row):
            rows.append(row)
            rhs.append(-b * t)
    return rows, rhs


def _violated(rows: Sequence[Sequence[int]], rhs: Sequence[int], xs: Sequence[Rational]) -> bool:
    """True if exact substitution of the rationals ``xs`` fails some integer
    row: ``sum(row[c] * xs[c]) != b`` for a row and its right-hand side b."""
    den = math.lcm(*(x.denominator for x in xs))
    support = [(c, x.numerator * (den // x.denominator)) for c, x in enumerate(xs) if x]
    return any(sum(row[c] * y for c, y in support) != b * den for row, b in zip(rows, rhs))


# primes below 2^31: residues multiply below 2^62, inside numpy int64
_ROW_PRIME = 2_147_483_647


def _primes() -> Iterator[int]:
    """The primes below 2^31 in decreasing order from ``_ROW_PRIME``, by the
    Miller-Rabin test to bases 2, 3, 5 and 7, exact below 3,215,031,751: with
    n - 1 = d 2^s, d odd, a^d = 1 or a^(d 2^r) = n - 1 for some r < s, from
    one ``pow`` and squarings."""
    for n in range(_ROW_PRIME, 7, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1
        if all(x == 1 or n - 1 in itertools.accumulate(range(s - 1), lambda y, _: y * y % n, initial=x)
               for x in (pow(a, (n - 1) >> s, n) for a in (2, 3, 5, 7))):
            yield n


def _residues(aug: Sequence[Sequence[int]], n_cols: int, modulus: int) -> np.ndarray:
    """The integer rows ``aug``, right-hand side last, modulo ``modulus`` < 2^63 in int64."""
    return (np.array(aug, dtype=object).reshape(len(aug), n_cols + 1) % modulus).astype(np.int64)


def _rref_mod(res: np.ndarray, p: int) -> Tuple[List[int], List[int], List[int]]:
    """Gauss-Jordan elimination modulo a prime ``p`` < 2^31, in numpy int64, of
    integer rows given as residues ``res`` modulo a multiple of ``p``, with the
    right-hand side as the last column ``n_cols``: the original indices of the
    pivot rows, the pivot columns and the right-hand side's residues on the
    pivot rows.  These solve the rows, free variables 0, unless ``n_cols`` is a
    pivot column, whose row is the first inconsistent."""
    res, n_cols = res % p, res.shape[1] - 1
    free, pivot_rows, pivot_cols = np.ones(len(res), dtype=bool), [], []
    for c in range(n_cols + 1):
        nonzero = np.flatnonzero(free & (res[:, c] != 0))
        if nonzero.size:
            i = nonzero[0]
            free[i] = False
            res[i, c:] = res[i, c:] * pow(int(res[i, c]), -1, p) % p
            factors = np.where(np.arange(len(res)) == i, 0, res[:, c])
            res[:, c:] = (res[:, c:] - np.outer(factors, res[i, c:]) % p) % p
            pivot_rows.append(int(i))
            pivot_cols.append(c)
    return pivot_rows, pivot_cols, res[pivot_rows, n_cols].tolist()


def _reconstruct(residues: Sequence[int], modulus: int) -> Optional[List[Fraction]]:
    """The rationals congruent to ``residues`` modulo ``modulus`` whose common
    denominator, and numerators over it, are at most sqrt(modulus / 2), or
    None.  Each residue times the common denominator so far is reconstructed
    by the extended Euclidean algorithm (Wang, Guy and Davenport 1982)."""
    bound, den, out = math.isqrt(modulus // 2), 1, []
    for u in residues:
        r0, r1, t0, t1 = modulus, u * den % modulus, 0, 1
        while r1 > bound:
            r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
        if abs(t1) * den > bound or math.gcd(r1, t1) != 1:
            return None
        out.append(Fraction(r1, t1 * den))
        den *= abs(t1)
    return out


def _lifts(block: Sequence[Sequence[int]], seeds: Sequence[Tuple[int, List[int]]],
           primes: Iterator[int]) -> Iterator[List[Fraction]]:
    """Candidate solutions of the square integer system ``block`` (right-hand
    side last), nonsingular over Q: residues from the ``seeds`` (prime,
    residues), then from :func:`_rref_mod` modulo each of ``primes`` not
    dividing its determinant, combined by CRT and reconstructed, until the
    modulus passes twice the squared Hadamard bound; the last is the solution."""
    k, bound = len(block), 2 * math.prod(sum(x * x for x in row) for row in block)
    modulus, residues = 1, [0] * k
    while modulus <= bound:
        if seeds:
            (p, found), *seeds = seeds
        else:
            _, cols, found = _rref_mod(_residues(block, k, p := next(primes)), p)
            if cols != list(range(k)):  # p divides the block's determinant
                continue
        inv = pow(modulus, -1, p)
        residues = [x + modulus * ((y - x) * inv % p) for x, y in zip(residues, found)]
        modulus *= p
        candidate = _reconstruct(residues, modulus)
        if candidate is not None:
            yield candidate


def _certifies(aug: Sequence[Sequence[int]], ys: Sequence[Rational]) -> bool:
    """True if ``sum(y * row)`` over ``ys`` and the integer rows ``aug`` is 0
    in every column but the last, the right-hand side, and not 0 there."""
    *cols, rhs = zip(*aug)
    return not _violated(cols, [0] * len(cols), ys) and _violated([rhs], [0], ys)


def _solve_exact(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> Optional[List[Fraction]]:
    """Solve an overdetermined rational system A x = b exactly: a solution
    with free variables 0 that satisfies every row (:func:`_violated`), or
    None only with a certificate of inconsistency checked in integers.

    Rows (right-hand side included) and columns are made integer and divided
    by their contents, so the unknowns become y_c = g_c x_c for the content
    g_c of column c.  Consecutive pairs of :func:`_primes`, from
    ``_ROW_PRIME`` on, eliminate all rows (:func:`_rref_mod`).  A pair that
    agrees on the pivot rows R and columns P lifts (:func:`_lifts`) either
    the solution of A[R, P] | b[R], from both residues, or, on the same first
    inconsistent row i, y_R with A[R, P]^T y_R = -A[i, P]^T, and returns None
    once y (y_i = 1) passes :func:`_certifies`.  Else, or if a lift ends
    without a passing candidate, the next pair decides.  A pair fails only
    if one of its primes divides one of the finitely many nonzero minors of
    A | b that decide the pivots over Q, block determinants included, so
    only finitely many pairs fail.

    Both primes can divide a minor that decides a pivot: for [[1, 1, 0],
    [1, 1 + pq, 1]] | [0, 1] the first two, p and q, see pivot columns 0 and
    2, and the result is (0, 0, 1), not (-1/pq, 1/pq, 0) on columns 0 and 1."""
    n_cols = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        full = [*row, b]
        den = math.lcm(*(x.denominator for x in full))
        ints = [x.numerator * (den // x.denominator) for x in full]
        content = math.gcd(*ints) or 1
        aug.append([x // content for x in ints])
    col_content = [math.gcd(*(row[c] for row in aug)) or 1 for c in range(n_cols)]
    for row in aug:
        row[:n_cols] = [x // g for x, g in zip(row, col_content)]
    targets = [row[n_cols] for row in aug]

    primes = _primes()
    while True:
        p, q = next(primes), next(primes)
        both = _residues(aug, n_cols, p * q)  # below 2^62: one pass for the pair, split in int64
        (pivot_rows, pivot_cols, residues), second = _rref_mod(both, p), _rref_mod(both, q)
        if second[:2] != (pivot_rows, pivot_cols):
            continue
        if n_cols not in pivot_cols:
            block = [[aug[i][c] for c in pivot_cols] + [aug[i][n_cols]] for i in pivot_rows]
            for ys in _lifts(block, [(p, residues), (q, second[2])], primes):
                xs = dict(zip(pivot_cols, ys))
                xs = [xs.get(c, Fraction(0)) for c in range(n_cols)]
                if not _violated(aug, targets, xs):
                    return [x / g for x, g in zip(xs, col_content)]
        else:
            *used, i = pivot_rows
            block = [[aug[r][c] for r in used] + [-aug[i][c]] for c in pivot_cols[:-1]]
            if any(_certifies([aug[r] for r in pivot_rows], [*ys, 1]) for ys in _lifts(block, [], primes)):
                return None


@dataclass(frozen=True)
class MdeResult:
    m: int
    order: int
    success: bool
    verified_q_order: int
    coefficients: Dict[Tuple[int, Monomial], Fraction]
    negative_control_nonzero: bool
    message: str

    def to_json(self) -> dict:
        coeffs = []
        for (j, key), value in sorted(self.coefficients.items()):
            if value == 0:
                continue
            mono = "*".join(
                f"{name}^{mult}" if mult > 1 else name for name, mult in key
            ) or "1"
            coeffs.append(
                {
                    "derivative_order": j,
                    "monomial": mono,
                    "value": [str(value.numerator), str(value.denominator)],
                }
            )
        return {**vars(self), "coefficients": coeffs}


def find_mde(m: int = 1, q_order: int = 60, allow_large_m: bool = False) -> MdeResult:
    """Search for a monic order-(3m+1) operator in D = q d/dq annihilating
    every twisted character, with weight-homogeneous Eisenstein coefficients.

    The coefficient of D^j is an unknown rational combination of monomials
    of total weight 2(3m+1-j) in the level-1 and level-2 series.  Each
    character gives one integer row per lattice exponent below
    ``q_order + _MDE_MARGIN`` past its lead, the classification's lowest
    weight - c/24.  :func:`_solve_exact` returns only a solution that
    satisfies every row exactly, or None (a finding, not raised) only with
    a certificate y, yA = 0 and yb != 0, checked in integers.
    ``verified_q_order`` counts exponents inside that solved window, so it
    restates the fit rather than checking it out of sample.  The eta
    control reports whether the operator fails on eta's rows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    if m > 1 and not allow_large_m:
        warnings.warn("the exact operator search grows quickly with m; proceeding anyway "
                      "(pass allow_large_m=True to silence)", RuntimeWarning)
    order = 3 * m + 1
    span = q_order + _MDE_MARGIN
    cutoff_rel = Fraction(span + 1)

    records = classify_twisted(m)
    pool = _eisenstein_monomials(2 * order, cutoff_rel)
    columns = [(j, key) for j in range(order) for key in sorted(pool[2 * (order - j)])]

    rows: List[List[int]] = []
    rhs: List[int] = []
    for rec in records:
        lead = rec.g0_squared
        series = twisted_char(ModuleLabel(rec.family, rec.index, m), lead + cutoff_rel)
        block_rows, block_rhs = _operator_rows(series, order, columns, pool, lead, lead + span)
        rows += block_rows
        rhs += block_rhs

    solution = _solve_exact(rows, rhs)
    if solution is None:
        return MdeResult(m, order, False, 0, {}, False,
                         "the weight-homogeneous level-1/level-2 pool admits no solution "
                         "at this order; a wider pool would be needed")
    coeffs = dict(zip(columns, solution))
    support = {col: x for col, x in coeffs.items() if x}
    # eta's columns are exact below its own cutoff, so its rows reach that far
    lead = Fraction(1, 24)
    eta_rows = _operator_rows(eta(lead + cutoff_rel), order, list(support), pool, lead, lead + cutoff_rel)
    eta_nonzero = _violated(*eta_rows, list(support.values()))
    return MdeResult(m, order, True, q_order, coeffs, eta_nonzero,
                     f"monic order-{order} operator verified through q-order {q_order} "
                     f"on all {len(records)} twisted characters")
