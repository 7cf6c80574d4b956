"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written with tiny local helpers rather than
the package's series machinery: partition counts come from Euler's
recurrence, theta sums from plain loops over a generous window, and series
products from dict convolution.  Exponents are offsets on an explicit
lattice so the oracles cannot silently share a bug with the code under test.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from numbers import Rational
from typing import Dict, List, Optional, Sequence, Tuple


def partitions_into_distinct_parts(limit: int) -> List[int]:
    """Counts of partitions of 0..limit into distinct positive parts."""
    counts = [0] * (limit + 1)
    counts[0] = 1
    for part in range(1, limit + 1):
        for g in range(limit, part - 1, -1):
            counts[g] += counts[g - part]
    return counts


def partition_counts(limit: int) -> List[int]:
    """Unrestricted partition counts p(0..limit) via the pentagonal recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def pentagonal_eta_terms(cutoff: Fraction) -> Dict[Fraction, int]:
    """Exponent -> coefficient map of the eta product below cutoff."""
    out: Dict[Fraction, int] = {}
    k = 0
    while True:
        added = False
        for s in ([k] if k == 0 else [k, -k]):
            e = Fraction(1, 24) + Fraction(s * (3 * s - 1), 2)
            if e < cutoff:
                out[e] = (-1) ** (abs(s) % 2)
                added = True
        if not added and k > 0:
            break
        k += 1
    return out


def lattice_sum_terms(j: Fraction, k: Fraction, cutoff: Fraction, weighted: bool, alternating: bool) -> Dict[Fraction, Fraction]:
    """Exponent -> coefficient map of ``sum_n w_n q^{(2kn+j)^2/4k}`` below cutoff,
    ``w_n`` being ``2kn+j`` when weighted (else 1), times ``(-1)^n`` when alternating.

    A plain loop over |n| <= cutoff + |j| + 1, which holds every term: for
    k >= 1/2, ``|2kn+j| < 2 sqrt(k cutoff) <= k + cutoff`` gives
    ``|n| < 1/2 + (cutoff + |j|) / 2k <= 1/2 + cutoff + |j|``.
    """
    out: Dict[Fraction, Fraction] = {}
    bound = math.ceil(cutoff + abs(j)) + 1
    for n in range(-bound, bound + 1):
        e = (2 * k * n + j) ** 2 / (4 * k)
        if e < cutoff:
            w = (2 * k * n + j if weighted else 1) * (-1 if alternating and n % 2 else 1)
            out[e] = out.get(e, Fraction(0)) + w
    return {e: c for e, c in out.items() if c}


def binom_fraction_loop(x, n: int) -> Fraction:
    """C(x, n) as n ``Fraction`` products x(x-1)...(x-n+1), divided by n!."""
    x = Fraction(x)
    num = Fraction(1)
    for i in range(n):
        num *= x - i
    return num / math.factorial(n)


def divisor_power_sum(n: int, power: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def convolve(a: Dict[Fraction, Fraction], b: Dict[Fraction, Fraction], cutoff: Fraction) -> Dict[Fraction, Fraction]:
    out: Dict[Fraction, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < cutoff:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def w_algebra_char_oracle(kind: str, s: int, p: int, cutoff: Fraction) -> Dict[Fraction, Fraction]:
    """Closed-form triplet algebra W(p) character as an exponent map.

    In the normalization where the z-derivative theta sum is
    D_{j,p} = sum_n (p n + j/2) q^{(2pn+j)^2/4p}  (the (1/2 pi i) d/dz scaling):

      Lambda(s):  [ (s/p) Theta_{p-s,p} + (2/p) D_{p-s,p} ] / eta
      Pi(s):      [ (s/p) Theta_{s,p}   - (2/p) D_{s,p}   ] / eta

    1/eta is expanded with Euler's partition recurrence, independently of
    the package's product and reciprocal code.
    """
    if kind not in ("Lambda", "Pi"):
        raise ValueError(kind)
    j = p - s if kind == "Lambda" else s
    sign = 1 if kind == "Lambda" else -1
    theta_map: Dict[Fraction, Fraction] = {}
    n = 0
    while True:
        hit = False
        for nn in ([0] if n == 0 else [n, -n]):
            t = 2 * p * nn + j
            e = Fraction(t * t, 4 * p)
            if e < cutoff + 2:
                w = Fraction(s, p) + sign * Fraction(2, p) * Fraction(t, 2)
                theta_map[e] = theta_map.get(e, Fraction(0)) + w
                hit = True
        if not hit and n > 0:
            break
        n += 1
    limit = int(cutoff + 2)
    pc = partition_counts(limit + 1)
    eta_inv = {
        Fraction(-1, 24) + g: Fraction(pc[g]) for g in range(limit + 1)
    }
    full = convolve(theta_map, eta_inv, cutoff)
    return full


class SparseSeries:
    """Reference series kernel: a sorted, zero-free tuple of
    ``(Fraction exponent, coefficient)`` pairs plus a cutoff, rebuilt through
    a dict keyed by exponent on every operation.

    This is the representation ``QExpansion`` used before its dense lattice
    form; differential tests compare the two on ``terms`` and ``cutoff``.
    Cutoff rules: a sum is exact below the smaller cutoff, a product of
    ``A`` and ``B`` below ``min(cutoff_A + minexp_B, cutoff_B + minexp_A)``
    and a reciprocal below ``cutoff - 2 * minexp``.  Coefficients are
    exact rationals.
    """

    def __init__(self, terms=(), cutoff=None):
        cut = Fraction(cutoff) if cutoff is not None else None
        acc = {}
        for e, c in terms:
            e = Fraction(e)
            if cut is None or e < cut:
                acc[e] = acc.get(e, 0) + Fraction(c)
        self.terms = tuple((e, acc[e]) for e in sorted(acc) if acc[e] != 0)
        self.cutoff = cut

    def _floor(self):
        return self.terms[0][0] if self.terms else self.cutoff

    def __add__(self, other):
        cuts = [c for c in (self.cutoff, other.cutoff) if c is not None]
        cut = min(cuts) if cuts else None
        if cut is not None and self.terms and other.terms:
            if cut <= min(self.terms[0][0], other.terms[0][0]):
                raise ValueError("additive cutoff at or below the leading exponent")
        return SparseSeries(self.terms + other.terms, cut)

    def __mul__(self, other):
        if (not self.terms and self.cutoff is None) or (not other.terms and other.cutoff is None):
            return SparseSeries((), None)
        candidates = []
        fa, fb = self._floor(), other._floor()
        if self.cutoff is not None and fb is not None:
            candidates.append(self.cutoff + fb)
        if other.cutoff is not None and fa is not None:
            candidates.append(other.cutoff + fa)
        cut = min(candidates) if candidates else None
        if self.terms and other.terms and cut is not None:
            if cut <= self.terms[0][0] + other.terms[0][0]:
                raise ValueError("product cutoff at or below the leading exponent")
        acc = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                if cut is not None and e >= cut:
                    break
                acc[e] = acc.get(e, 0) + ca * cb
        return SparseSeries(acc.items(), cut)

    def reciprocal(self):
        if not self.terms:
            raise ValueError("cannot invert a series with no known terms")
        e0, c0 = self.terms[0]
        inv0 = 1 / c0
        if len(self.terms) == 1:
            cut = self.cutoff - 2 * e0 if self.cutoff is not None else None
            return SparseSeries([(-e0, inv0)], cut)
        if self.cutoff is None:
            raise ValueError("reciprocal of an exact multi-term series is not finite")
        rel_cut = self.cutoff - e0
        scale = 1
        for d in [(e - e0).denominator for e, _ in self.terms] + [rel_cut.denominator]:
            scale = scale * d // math.gcd(scale, d)
        length = math.ceil(rel_cut * scale)
        support = [(int((e - e0) * scale), c) for e, c in self.terms[1:]]
        t = [Fraction(0)] * length
        t[0] = inv0
        for n in range(1, length):
            acc = Fraction(0)
            for j, s in support:
                if j > n:
                    break
                if t[n - j] != 0:
                    acc += s * t[n - j]
            if acc != 0:
                t[n] = -acc * inv0
        out = [(-e0 + Fraction(n, scale), c) for n, c in enumerate(t) if c != 0]
        return SparseSeries(out, self.cutoff - 2 * e0)


def shift_law_violations(src, target, r: Fraction, eps: int = 1) -> List[Fraction]:
    """Exponents at which ``src(tau + 1) = eps e^{2 pi i r} target(tau)`` fails exactly.

    On a series whose exponents all lie in ``r + Z/2`` the substitution
    ``tau -> tau + 1`` multiplies the coefficient at ``q^e`` by
    ``e^{2 pi i r} (-1)^{2(e - r)}``, so the law holds exactly when every
    exponent ``e`` of either series has ``2(e - r)`` integral and
    ``target_e = eps (-1)^{2(e - r)} src_e``.  Both series are read below
    the smaller cutoff.
    """
    cuts = [c for c in (src.cutoff, target.cutoff) if c is not None]
    cut = min(cuts) if cuts else None
    a, b = dict(src.terms), dict(target.terms)
    bad = []
    for e in sorted(a.keys() | b.keys()):
        if cut is not None and e >= cut:
            continue
        twice = 2 * (e - r)
        sign = eps * (-1) ** (twice.numerator % 2)
        if twice.denominator != 1 or b.get(e, 0) != sign * a.get(e, 0):
            bad.append(e)
    return bad


def clifford_action(terms, kind: str, mode: int, cutoff=None):
    """Reference Clifford action on ``{word: (a, b)}``, each value a + b sqrt 2.

    Words are strictly decreasing mode tuples.  ``kind`` is one of

    * ``"create"``: prepend ``mode`` to the word and sort it back into
      strictly decreasing order; the sign is the parity of the inversion
      count of that sort, and a repeated mode gives zero,
    * ``"contract"``: delete ``mode`` from position ``pos`` with sign
      (-1)^pos; a word without ``mode`` gives zero,
    * ``"zero"``: the self-paired zero mode, which contracts a word holding
      0 with the extra weight 1/2 (phi(0)^2 = 1/2) and creates 0 otherwise.

    Words of total grade above ``cutoff`` (when given) are dropped.  Returns
    the image as ``{word: (a, b)}`` without zero entries, and whether any
    word was dropped.
    """
    out = {}
    dropped = False
    for word, (a, b) in terms.items():
        op, weight = kind, Fraction(1)
        if kind == "zero":
            op = "contract" if 0 in word else "create"
            if op == "contract":
                weight = Fraction(1, 2)
        if op == "create":
            raw = (mode,) + tuple(word)
            if len(set(raw)) < len(raw):
                continue
            inversions = sum(
                1 for i in range(len(raw)) for k in range(i + 1, len(raw)) if raw[i] < raw[k]
            )
            new = tuple(sorted(raw, reverse=True))
            weight *= (-1) ** inversions
        else:
            if mode not in word:
                continue
            pos = list(word).index(mode)
            new = tuple(word[:pos]) + tuple(word[pos + 1 :])
            weight *= (-1) ** pos
        if cutoff is not None and sum(new) > cutoff:
            dropped = True
            continue
        old_a, old_b = out.get(new, (Fraction(0), Fraction(0)))
        out[new] = (old_a + weight * a, old_b + weight * b)
    return {w: c for w, c in out.items() if c != (0, 0)}, dropped


def virasoro_quadratic_action(terms, n: int, cutoff: int):
    """Reference twisted L(n) on ``{word: (a, b)}`` at grade cutoff ``cutoff``.

    L(n) = (1/2) sum_{r < n/2} (n - 2r) :phi(r) phi(n - r): (+ 1/16 at n = 0),
    each phi applied by :func:`clifford_action` (phi(r) creates mode -r for
    r < 0, contracts mode r for r > 0 and is the zero mode at r = 0).  The
    sum runs over the full window -cutoff - |n| - 1 <= r < n/2, which holds
    every partner n - r that can occur in a word of grade <= cutoff; terms
    that vanish are not skipped.  Returns the image without zero entries,
    and whether any word was dropped on the way.
    """

    def phi(mode, words):
        kind = "create" if mode < 0 else "contract" if mode > 0 else "zero"
        return clifford_action(words, kind, abs(mode), cutoff)

    parts = []
    dropped = False
    r_hi = (n - 1) // 2 if n % 2 else n // 2 - 1
    for r in range(-cutoff - abs(n) - 1, r_hi + 1):
        inner, inner_dropped = phi(n - r, terms)
        term, outer_dropped = phi(r, inner)
        dropped = dropped or inner_dropped or outer_dropped
        parts.append((term, Fraction(n - 2 * r, 2)))
    if n == 0:
        parts.append((terms, Fraction(1, 16)))
    out = {}
    for term, weight in parts:
        for word, (a, b) in term.items():
            old_a, old_b = out.get(word, (Fraction(0), Fraction(0)))
            out[word] = (old_a + weight * a, old_b + weight * b)
    return {w: c for w, c in out.items() if c != (0, 0)}, dropped


def gauss_jordan_solve(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """Solve an overdetermined rational system exactly by Gauss-Jordan
    elimination over ``Fraction`` (give it Fractions: ints divide to floats).

    Returns a particular solution with free variables set to zero, or None
    if the system is inconsistent.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivot_cols: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for rr in range(r, n_rows):
            if aug[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for rr in range(n_rows):
            if rr != r and aug[rr][c] != 0:
                factor = aug[rr][c]
                aug[rr] = [x - factor * y for x, y in zip(aug[rr], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for rr in range(r, n_rows):
        if aug[rr][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = aug[row_idx][n_cols]
    return solution


def gauss_jordan_mod(aug: Sequence[Sequence[int]], n_cols: int, p: int) -> Tuple[List[int], List[int], List[int]]:
    """Gauss-Jordan elimination of the integer rows ``aug`` modulo the prime
    ``p`` over Python ints, which never overflow, with the right-hand side
    last and eliminated as one more column, ``n_cols``.

    Column by column, the first row that is not yet a pivot row and has a
    nonzero entry is scaled to 1 and cleared from every other row.  Returns
    the pivot rows (original indices, in pivot order), the pivot columns and
    the right-hand side's residues on the pivot rows.  If ``n_cols`` is a
    pivot column, the rows are inconsistent modulo p and its pivot row is
    the first row that keeps a nonzero right-hand side; otherwise the
    residues are the solution's on the pivot columns with free variables 0.
    ``modular._rref_mod`` computes the same in numpy int64."""
    res = [[x % p for x in row] for row in aug]
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    for c in range(n_cols + 1):
        i = next((k for k, row in enumerate(res) if k not in pivot_rows and row[c]), None)
        if i is None:
            continue
        inv = pow(res[i][c], -1, p)
        res[i] = [x * inv % p for x in res[i]]
        for k, row in enumerate(res):
            if k != i and row[c]:
                res[k] = [(x - row[c] * y) % p for x, y in zip(row, res[i])]
        pivot_rows.append(i)
        pivot_cols.append(c)
    return pivot_rows, pivot_cols, [res[i][n_cols] for i in pivot_rows]


def bareiss_echelon(aug: List[List[int]], n_cols: int) -> List[int]:
    """Fraction-free (Bareiss) elimination of the integer rows ``aug`` to
    row-echelon form in place over the first ``n_cols`` columns; returns the
    pivot columns.  A pivot is the first nonzero entry at or below the current
    row; rows below become ``(p*x - f*y) // prev``, exact by Sylvester's
    identity, so entries stay integer minors and pivot k is a k-by-k minor."""
    pivot_cols: List[int] = []
    prev, r = 1, 0
    for c in range(n_cols):
        if r == len(aug):
            break
        pivot = next((rr for rr in range(r, len(aug)) if aug[rr][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r][c:]
        p = top[0]
        for row in aug[r + 1 :]:
            f = row[c]
            row[c:] = [(p * x - f * y) // prev for x, y in zip(row[c:], top)]
        pivot_cols.append(c)
        prev = p
        r += 1
    return pivot_cols


def bareiss_solve(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> Optional[List[Fraction]]:
    """Solve an overdetermined rational system exactly by fraction-free
    integer elimination: each row, right-hand side included, is scaled by the
    lcm of its denominators, reduced by :func:`bareiss_echelon` and solved
    back over the pivot columns.  Returns the particular solution with free
    variables set to zero, or None if the system is inconsistent.

    The all-rows solve that ``modular._solve_exact`` replaced;
    ``tests/test_solver_differential.py`` checks :func:`bareiss_echelon` on
    its own."""
    n_cols = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        full = [*row, b]
        den = math.lcm(*(x.denominator for x in full))
        aug.append([x.numerator * (den // x.denominator) for x in full])
    pivot_cols = bareiss_echelon(aug, n_cols)
    rank = len(pivot_cols)
    if any(row[n_cols] for row in aug[rank:]):
        return None
    solution = [Fraction(0)] * n_cols
    for i in reversed(range(rank)):
        row = aug[i]
        acc = row[n_cols] - sum(row[c] * solution[c] for c in pivot_cols[i + 1 :])
        solution[pivot_cols[i]] = Fraction(acc) / row[pivot_cols[i]]
    return solution


def eisenstein_monomials(max_weight: int, cutoff: Fraction):
    """``{weight: {monomial: QExpansion}}``: the Eisenstein monomial pool as
    series, built the way ``modular._eisenstein_monomials`` built it before it
    returned integer runs.  Each monomial is one ``QExpansion`` product of a
    lighter one and a generator, starting from ``QExpansion.one(cutoff)``."""
    from collections import Counter

    from supertriplet.qseries import QExpansion
    from supertriplet.specialfn import eisenstein

    gens = [
        (f"G{w}{level}", w, eisenstein(w // 2, variant, cutoff))
        for w in range(2, max_weight + 1, 2)
        for level, variant in (("", "full"), (",1", "level2-one"))
    ]
    pool = {w: {} for w in range(2, max_weight + 1, 2)}

    def extend(start, weight, chosen, series):
        for idx in range(start, len(gens)):
            name, w, gen = gens[idx]
            if weight + w > max_weight:
                break
            product = series * gen
            pool[weight + w][tuple(sorted(Counter(chosen + [name]).items()))] = product
            extend(idx, weight + w, chosen + [name], product)

    extend(0, 0, [], QExpansion.one(cutoff))
    return pool


def q_derivatives(series, order: int) -> list:
    """``[s, D s, ..., D^order s]`` for D = q d/dq, each a ``QExpansion`` built
    from the ``terms`` of the one before, every coefficient times its exponent."""
    from supertriplet.qseries import QExpansion

    derivs = [series]
    for _ in range(order):
        derivs.append(QExpansion([(e, e * c) for e, c in derivs[-1].terms], cutoff=series.cutoff))
    return derivs


def operator_rows(series, order: int, columns, pool, lead: Fraction, stop: Fraction):
    """The integer rows and right-hand sides of ``modular._operator_rows``, up
    to one positive factor, built the way it built them before the kernel took
    the columns: every column ``mono * D^j s`` one ``QExpansion`` product with
    its monomial from the series pool of :func:`eisenstein_monomials` and D^j s
    from :func:`q_derivatives`, then the target and all columns aligned
    together, one integer factor clearing every scale denominator, and
    all-zero rows dropped."""
    from supertriplet.modular import _aligned_runs

    derivs = q_derivatives(series, order)
    cols = [derivs[order]] + [pool[2 * (order - j)][key] * derivs[j] for j, key in columns]
    _, runs = _aligned_runs(cols, lead, stop)
    den = math.lcm(*(scale.denominator for _, scale in runs))
    (target, t), *dense = [(run, s.numerator * (den // s.denominator)) for run, s in runs]
    rows, rhs = [], []
    for i, b in enumerate(target):
        row = [values[i] * k for values, k in dense]
        if b or any(row):
            rows.append(row)
            rhs.append(-b * t)
    return rows, rhs


def apply_operator(coeffs, order: int, series, monomials_by_weight):
    """``D^order s + sum(value * mono * D^j s)`` over the nonzero coefficients
    ``{(j, mono): value}``, each monomial of weight 2(order - j) a series
    looked up in ``monomials_by_weight``, the pool of
    :func:`eisenstein_monomials`: the operator application ``modular.find_mde``
    ran, with its own derivative tower, before the operator columns were
    built once per series and reused after the solve."""
    derivs = q_derivatives(series, order)
    total = derivs[order]
    for (j, key), value in coeffs.items():
        if value == 0:
            continue
        weight = 2 * (order - j)
        mono = monomials_by_weight[weight][key]
        total = total + (mono * derivs[j]).scale(value)
    return total


def termwise_evaluate(series, tau: complex, growth_bound: float = 2.0 ** 64) -> Tuple[complex, float]:
    """``(value, tail bound)`` of a ``QExpansion`` at one point, one term at a
    time with ``cmath.exp``: the loop ``QExpansion.evaluate`` ran before it
    summed whole grids in numpy."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("evaluation requires Im(tau) > 0")
    offset, d, coeffs, scale = series.lattice
    base, step, den = offset.numerator * d, offset.denominator, offset.denominator * d
    sn, sd = scale.numerator, scale.denominator
    total = 0j
    for i, c in enumerate(coeffs):
        if c:
            e = (base + i * step) / den
            # c * sn / sd is the correctly rounded float of the exact coefficient
            total += complex(c * sn / sd) * cmath.exp(2j * math.pi * e * tau)
    if series.cutoff is None:
        return total, 0.0
    absq = math.exp(-2 * math.pi * tau.imag)
    try:
        tail = growth_bound * absq ** float(series.cutoff) / (1 - absq)
    except OverflowError:
        tail = math.inf
    return total, tail


def rounding_bound(series, tau):
    """How far two float summations of ``series`` at ``tau`` may differ.

    Term ``c q^e`` of ``n`` contributes ``|c| |q^e| (n + 2 pi |e| |tau| + 4)``
    units of 2^-52: ``n`` for the two summation orders, ``2 pi |e| |tau|`` for
    rounding of the argument of ``exp``, and 4 for ``exp`` and the product.
    """
    n = len(series)
    total = 0.0
    for e, c in series.terms:
        size = abs(float(c)) * math.exp(-2 * math.pi * float(e) * tau.imag)
        total += size * (n + 2 * math.pi * abs(float(e)) * abs(tau) + 4)
    return total * 2.0 ** -52


def character_oracle(label, flavor: str, cutoff, halve: bool = False):
    """A twisted or untwisted character (or supercharacter) from the explicit
    per-family row formulas that ``characters`` used before its theta-row
    table: the theta part is spelled out for each family and index range,
    then multiplied by the shared prefactor quotient.  Unlike the oracles
    above it builds series with the package's ``specialfn`` sums."""
    from supertriplet.characters import _quotient
    from supertriplet.specialfn import ThetaIndex, g_deriv, g_series, theta, theta_deriv

    cutoff = Fraction(cutoff)
    m, p = label.m, 2 * label.m + 1
    k = Fraction(2 * m + 1, 2)
    build = cutoff + 1
    if label.twisted:
        pref = _quotient("f2", build)
        if label.family == "RLambda":
            i = label.index - 1
            idx = ThetaIndex(Fraction(2 * (m - i) - 1, 2), k)
            body = theta(idx, build) * Fraction(2 * i + 2, p) + theta_deriv(idx, build) * Fraction(2, p)
        elif label.index == m + 1:
            idx = ThetaIndex(Fraction(2 * m + 1, 2), k)
            body = theta(idx, build)
        else:
            i = m - label.index
            idx = ThetaIndex(Fraction(2 * (m - i) - 1, 2), k)
            body = theta(idx, build) * Fraction(2 * m - 2 * i - 1, p) - theta_deriv(idx, build) * Fraction(2, p)
        return (pref * body).scale(1 if halve else 2).truncated(cutoff)
    if flavor == "character":
        pref = _quotient("f", build)
        series, series_deriv = theta, theta_deriv
    else:
        pref = _quotient("f1", build)
        series, series_deriv = g_series, g_deriv
    if label.family == "SLambda" and label.index == m + 1:
        body = series(ThetaIndex(Fraction(0), k), build)
    elif label.family == "SLambda":
        i = label.index - 1
        idx = ThetaIndex(Fraction(m - i), k)
        body = series(idx, build) * Fraction(2 * i + 1, p) + series_deriv(idx, build) * Fraction(2, p)
    else:
        i = m - label.index
        idx = ThetaIndex(Fraction(m - i), k)
        body = series(idx, build) * Fraction(2 * m - 2 * i, p) - series_deriv(idx, build) * Fraction(2, p)
    return (pref * body).truncated(cutoff)


def shift_tau_deviation(src, target, phase: complex) -> float:
    """``QExpansion.shift_tau_deviation`` as it read both series through ``terms``:
    dicts keyed by ``Fraction`` exponent, each coefficient and ``frac(e)`` turned
    into a float from its ``Fraction``."""
    cuts = [c for c in (src.cutoff, target.cutoff) if c is not None]
    cut = min(cuts) if cuts else None
    ours, theirs = dict(src.terms), dict(target.terms)
    worst = 0.0
    for e in ours.keys() | theirs.keys():
        if cut is None or e < cut:
            turn = cmath.exp(2j * math.pi * ((e.numerator % e.denominator) / e.denominator))
            shifted = complex(ours.get(e, 0)) * turn
            worst = max(worst, abs(shifted - complex(theirs.get(e, 0)) * phase))
    return worst


def is_int_terms(series) -> bool:
    """Every coefficient of ``series.terms`` is an integer."""
    return all(c.denominator == 1 for _, c in series.terms)


def is_nonneg_int_terms(series) -> bool:
    """Every coefficient of ``series.terms`` is a nonnegative integer."""
    return all(c.denominator == 1 and c >= 0 for _, c in series.terms)


def ramond_product(i: int, n: int, m: int, cutoff, halve: bool = False):
    """``characters.ramond_irred_char`` as the product of the ``f2/eta`` quotient
    with the two-term series ``q^{h1 - c/24} - q^{h2 - c/24}``."""
    from supertriplet.characters import _quotient, central_charge, conformal_weight
    from supertriplet.qseries import QExpansion

    cutoff = Fraction(cutoff)
    h1, h2 = sorted((conformal_weight(i, n, m), conformal_weight(i, -n - 1, m)))
    c = central_charge(m)
    body = QExpansion([(h1 - c / 24, 1), (h2 - c / 24, -1)])
    return (_quotient("f2", cutoff + 1) * body).scale(1 if halve else 2).truncated(cutoff)


def char_table_rows(m: int, cutoff, labels=None) -> List[dict]:
    """The character table as the nested dicts ``cli`` once rendered through
    ``json.dumps``: one row per ``(label, flavor)``, every row of ``m`` by
    default, each series as ``QExpansion.to_json_dict``."""
    from supertriplet.characters import all_labels, character_series

    rows = []
    for label, flavor in labels if labels is not None else all_labels(m):
        series = character_series(label, flavor, cutoff)
        lead = series.min_exponent
        rows.append(
            {
                "family": label.family,
                "index": label.index,
                "flavor": flavor,
                "m": m,
                "leading_exponent": [str(lead.numerator), str(lead.denominator)] if lead is not None else None,
                "series": series.to_json_dict(),
            }
        )
    return rows


def lattice_from_run(offset: Fraction, d: int, coeffs, scale, cutoff):
    """``(lattice, cutoff)`` of ``QExpansion.from_lattice`` by its Fraction header
    arithmetic from before the integer one: the run cut at ceil((cutoff - offset) d)
    and trimmed to nonzero ends, the empty run as ``(0, 1, (), 1)``."""
    from supertriplet.qseries import MAX_RUN, QSeriesError

    hi = len(coeffs)
    if cutoff is not None:
        hi = max(0, min(hi, math.ceil((cutoff - offset) * d)))
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    if hi - lo > MAX_RUN:
        raise QSeriesError("run too long")
    if lo == hi:
        return (Fraction(0), 1, (), Fraction(1)), cutoff
    return (offset + Fraction(lo, d), d, tuple(coeffs[lo:hi]), Fraction(scale)), cutoff


def lattice_sum(a, b):
    """``(lattice, cutoff)`` of the sum of two series given as such pairs, by the
    Fraction header arithmetic of ``QExpansion.__add__`` from before the integer
    one: both runs on the lattice through both offsets under the rational gcd of
    the scales, added entry by entry."""
    from supertriplet.qseries import MAX_RUN, CutoffUnderflowError, QSeriesError

    (a_lat, a_cut), (b_lat, b_cut) = a, b
    cuts = [c for c in (a_cut, b_cut) if c is not None]
    cut = min(cuts) if cuts else None
    if cut is not None and a_lat[2] and b_lat[2] and cut <= min(a_lat[0], b_lat[0]):
        raise CutoffUnderflowError("additive cutoff at or below the leading exponent")
    parts = [lat for lat in (a_lat, b_lat) if lat[2]]
    if not parts:
        return lattice_from_run(Fraction(0), 1, (), 1, cut)
    offset = min(o for o, _, _, _ in parts)
    d = math.lcm(*(pd for _, pd, _, _ in parts), *((o - offset).denominator for o, _, _, _ in parts))
    scale = Fraction(math.gcd(*(s.numerator for *_, s in parts)), math.lcm(*(s.denominator for *_, s in parts)))
    starts = [int((o - offset) * d) for o, *_ in parts]
    n = max(start + (len(run) - 1) * (d // pd) + 1 for (_, pd, run, _), start in zip(parts, starts))
    if cut is not None:
        n = max(0, min(n, math.ceil((cut - offset) * d)))
    if n > MAX_RUN:
        raise QSeriesError("run too long")
    out = [0] * n
    for (_, pd, run, s), start in zip(parts, starts):
        for i, c in enumerate(run):
            if start + i * (d // pd) < n:
                out[start + i * (d // pd)] += c * int(s / scale)
    return lattice_from_run(offset, d, out, scale, cut)
