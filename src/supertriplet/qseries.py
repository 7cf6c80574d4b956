"""Truncated q-expansions stored densely on a rational exponent lattice.

A :class:`QExpansion` is a run ``coeffs`` of Python ints on the lattice
``offset + (1/d) Z`` under one common rational ``scale`` (the coefficient of
``q^(offset + i/d)`` is ``scale * coeffs[i]``), plus a truncation *cutoff*.
The run is trimmed to nonzero ends, so ``offset`` is the leading exponent.
Two equal series may differ in ``d`` and ``scale``, so equality and hashing
go through :attr:`QExpansion.terms`, the ``(Fraction, Fraction)`` pairs.

Every exponent below the cutoff is represented exactly, everything at or
above it has been discarded; a cutoff of ``None`` marks an exact
expansion.  Sums place both runs on a common lattice under the rational gcd
of the scales; products are one integer convolution, :func:`_convolve`
(schoolbook, or Kronecker substitution for two long dense runs); reciprocals
run an integer recurrence with the powers of the leading entry kept in the
scale; shifts, ``tau -> tau/2`` and ``tau -> 2 tau`` move only the offset and
the step.  Memory is the exponent span times ``d``, so the lattice suits
series whose exponents share a small denominator, as every series of this
package does; a run longer than ``MAX_RUN`` is refused before it is allocated.

Coefficients and scalars are exact rationals; a float or complex one is
refused with :class:`QSeriesError`, as is a float exponent, offset, shift or
cutoff.  Floats appear only in :func:`_evaluate_grid` (whose one-series case
is :meth:`QExpansion.evaluate`) and :meth:`QExpansion.shift_tau_deviation`,
which return numbers, never series.  A grid sum drops the highest terms that
total at most 2^-60 of the rest's absolute sum at the grid's largest |q|, and
so, lying above every kept exponent, at each of its points.

Cutoff propagation: addition takes the minimum of the operand cutoffs, and a
product of ``A`` and ``B`` is exact below
``min(cutoff_A + minexp_B, cutoff_B + minexp_A)``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import compress, repeat
from numbers import Number, Rational
from operator import add, mul, sub
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

ExpLike = Union[Fraction, int, str]
CoeffLike = Union[Fraction, int]

EXACT = "exact-rational"

# Longest dense run any operation may allocate; the longest a package path
# builds is 807 entries (lattice d <= 2, cutoff 400).
MAX_RUN = 1 << 16

__all__ = [
    "QExpansion",
    "QSeriesError",
    "CutoffUnderflowError",
    "EvalResult",
    "product_expansion",
    "EXACT",
    "MAX_RUN",
]


class QSeriesError(ValueError):
    """Raised for structurally invalid q-expansion requests."""


class CutoffUnderflowError(QSeriesError):
    """Raised when an operation would leave no representable terms."""


class EvalResult(NamedTuple):
    value: Union[complex, np.ndarray]
    error_bound: Union[float, np.ndarray]


def _exact(value) -> Fraction:
    """``value`` as a Fraction; floats and complex numbers are refused."""
    if not isinstance(value, Rational):
        raise QSeriesError(f"coefficients must be exact rationals, not {value!r}")
    return Fraction(value)


def _exponent(value) -> Fraction:
    """``value`` (an exponent, offset, shift or cutoff) as a Fraction; a float is
    refused, since it would become a binary fraction (0.1 as 3602879701896397/2^55)."""
    if isinstance(value, float):
        raise QSeriesError(f"exponents and cutoffs must be exact, not the float {value!r}")
    return Fraction(value)


def _common_scale(values: Iterable[Fraction]) -> Fraction:
    """The largest rational of which every value is an integer multiple."""
    values = list(values)
    return Fraction(
        math.gcd(*(v.numerator for v in values)), math.lcm(*(v.denominator for v in values))
    )


def _run_length(n: int) -> int:
    """``n``, refused with :class:`QSeriesError` when longer than ``MAX_RUN``."""
    if n > MAX_RUN:
        raise QSeriesError(f"a dense run of {n} entries exceeds MAX_RUN = {MAX_RUN}")
    return n


def _frac_pair(num: int, den: int) -> List[str]:
    g = math.gcd(num, den)
    return [str(num // g), str(den // g)]


class QExpansion:
    """Dense integer run on ``offset + (1/d) Z`` under a rational scale, plus a cutoff."""

    __slots__ = ("_offset", "_d", "_coeffs", "_scale", "_cutoff")

    def __init__(
        self,
        terms: Union[Dict[ExpLike, CoeffLike], Iterable[Tuple[ExpLike, CoeffLike]]] = (),
        cutoff: Optional[ExpLike] = None,
    ) -> None:
        items = terms.items() if isinstance(terms, dict) else terms
        cut = _exponent(cutoff) if cutoff is not None else None
        acc: Dict[Fraction, Fraction] = {}
        for e, c in items:
            e, c = _exponent(e), _exact(c)
            if cut is None or e < cut:
                acc[e] = acc.get(e, 0) + c
        values = {e: c for e, c in acc.items() if c}
        offset, d, coeffs, scale = Fraction(0), 1, [], Fraction(1)
        if values:
            offset = min(values)
            d = math.lcm(*((e - offset).denominator for e in values))
            scale = _common_scale(values.values())
            coeffs = [0] * _run_length(int((max(values) - offset) * d) + 1)
            for e, c in values.items():
                coeffs[int((e - offset) * d)] = int(c / scale)
        _init(self, offset, d, tuple(coeffs), scale, cut)

    def __setattr__(self, name, value):
        raise AttributeError("QExpansion is immutable")

    # -- constructors --

    @classmethod
    def from_lattice(
        cls, offset: ExpLike, d: int, coeffs: Sequence[int], scale: Union[Fraction, int] = 1,
        cutoff: Optional[ExpLike] = None,
    ) -> "QExpansion":
        """The series with coefficient ``scale * coeffs[i]`` at ``q^(offset + i/d)``.

        ``coeffs`` are ints under a nonzero rational ``scale``.  Entries at
        or above ``cutoff`` are dropped and zero entries at either end are
        trimmed.
        """
        if isinstance(scale, float):
            raise QSeriesError(f"coefficients must be exact rationals, not {scale!r}")
        offset = _exponent(offset)
        hi = len(coeffs)
        if cutoff is not None:
            cutoff = _exponent(cutoff)
            hi = max(0, min(hi, math.ceil((cutoff - offset) * d)))
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        series = object.__new__(cls)
        _run_length(hi - lo)
        if lo == hi:
            _init(series, Fraction(0), 1, (), Fraction(1), cutoff)
        else:
            if lo:
                offset += Fraction(lo, d)
            _init(series, offset, d, tuple(coeffs[lo:hi]), Fraction(scale), cutoff)
        return series

    @classmethod
    def zero(cls, cutoff: Optional[ExpLike] = None) -> "QExpansion":
        return cls.from_lattice(0, 1, (), 1, cutoff)

    @classmethod
    def one(cls, cutoff: Optional[ExpLike] = None) -> "QExpansion":
        return cls.monomial(0, 1, cutoff)

    @classmethod
    def monomial(cls, exp: ExpLike, coeff: CoeffLike = 1, cutoff: Optional[ExpLike] = None) -> "QExpansion":
        return cls(((exp, coeff),), cutoff=cutoff)

    # -- inspection --

    @property
    def cutoff(self) -> Optional[Fraction]:
        return self._cutoff

    @property
    def lattice(self) -> Tuple[Fraction, int, Tuple[int, ...], Fraction]:
        """``(offset, d, coeffs, scale)``: see the module docstring."""
        return self._offset, self._d, self._coeffs, self._scale

    def _exponent_ratio(self) -> Tuple[int, int, int]:
        # exponent of entry i is (base + i * step) / den, all integers
        on, od = self._offset.numerator, self._offset.denominator
        return on * self._d, od, od * self._d

    def _value(self, c: int) -> Fraction:
        s = self._scale
        return Fraction(c * s.numerator, s.denominator)

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        base, step, den = self._exponent_ratio()
        return tuple((Fraction(base + i * step, den), self._value(c)) for i, c in enumerate(self._coeffs) if c)

    @property
    def min_exponent(self) -> Optional[Fraction]:
        return self._offset if self._coeffs else None

    def leading(self) -> Optional[Tuple[Fraction, Fraction]]:
        return (self._offset, self._value(self._coeffs[0])) if self._coeffs else None

    def coeff(self, exp: ExpLike) -> Fraction:
        pos = (_exponent(exp) - self._offset) * self._d
        if pos.denominator == 1 and 0 <= pos < len(self._coeffs) and self._coeffs[int(pos)]:
            return self._value(self._coeffs[int(pos)])
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs) - self._coeffs.count(0)

    def __iter__(self) -> Iterator[Tuple[Fraction, Fraction]]:
        return iter(self.terms)

    # exponent floor used in cutoff propagation: for an empty series the
    # first unknown term can start at the cutoff itself
    def _exp_floor(self) -> Optional[Fraction]:
        return self._offset if self._coeffs else self._cutoff

    # -- arithmetic --

    def __add__(self, other) -> "QExpansion":
        if isinstance(other, Number):
            other = QExpansion.monomial(0, other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        cuts = [c for c in (self._cutoff, other._cutoff) if c is not None]
        cut = min(cuts) if cuts else None
        if cut is not None and self._coeffs and other._coeffs:
            lead = min(self._offset, other._offset)
            if cut <= lead:
                raise CutoffUnderflowError(
                    f"additive cutoff {cut} at or below leading exponent {lead}"
                )
        parts = [s for s in (self, other) if s._coeffs]
        if not parts:
            return QExpansion.zero(cut)
        offset = min(s._offset for s in parts)
        d = math.lcm(*(s._d for s in parts), *((s._offset - offset).denominator for s in parts))
        scale = _common_scale(s._scale for s in parts)
        starts = [int((s._offset - offset) * d) for s in parts]
        n = max(start + (len(s._coeffs) - 1) * (d // s._d) + 1 for s, start in zip(parts, starts))
        if cut is not None:
            n = max(0, min(n, math.ceil((cut - offset) * d)))
        out: List[int] = [0] * _run_length(n)
        for s, start in zip(parts, starts):
            if start >= n:
                continue
            stride = d // s._d
            factor = int(s._scale / scale)
            vals = s._coeffs if factor == 1 else map(mul, s._coeffs, repeat(factor))
            stop = min(n, start + len(s._coeffs) * stride)
            out[start:stop:stride] = map(add, out[start:stop:stride], vals)
        return QExpansion.from_lattice(offset, d, out, scale, cut)

    __radd__ = __add__

    def __sub__(self, other) -> "QExpansion":
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "QExpansion":
        return self._with(scale=-self._scale)

    def _with(self, **changes) -> "QExpansion":
        fields = {name[1:]: getattr(self, name) for name in self.__slots__}
        return QExpansion.from_lattice(**{**fields, **changes})

    def scale(self, scalar: CoeffLike) -> "QExpansion":
        scalar = _exact(scalar)
        if scalar == 0:
            return QExpansion.zero(self._cutoff)
        return self._with(scale=self._scale * scalar)

    def __mul__(self, other) -> "QExpansion":
        if isinstance(other, Number):
            return self.scale(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        if any(not s._coeffs and s._cutoff is None for s in (self, other)):
            return QExpansion.zero()
        bounds = ((self._cutoff, other._exp_floor()), (other._cutoff, self._exp_floor()))
        candidates = [c + f for c, f in bounds if c is not None and f is not None]
        cut = min(candidates) if candidates else None
        if not self._coeffs or not other._coeffs:
            return QExpansion.zero(cut)
        offset = self._offset + other._offset
        if cut is not None and cut <= offset:
            raise CutoffUnderflowError(
                f"product cutoff {cut} at or below leading exponent {offset}"
            )
        d = math.lcm(self._d, other._d)
        r_self, r_other = d // self._d, d // other._d
        n = (len(self._coeffs) - 1) * r_self + (len(other._coeffs) - 1) * r_other + 1
        if cut is not None:
            n = min(n, math.ceil((cut - offset) * d))
        out = _convolve(self._coeffs, r_self, other._coeffs, r_other, _run_length(n))
        return QExpansion.from_lattice(offset, d, out, self._scale * other._scale, cut)

    __rmul__ = __mul__

    def reciprocal(self) -> "QExpansion":
        """Multiplicative inverse ``1/self`` (Laurent leading term allowed).

        Exact below ``cutoff - 2*min_exponent``.  The inversion runs a
        recurrence over the nonzero entries on the series' own lattice, so
        cost is linear in the lattice length times the number of stored
        terms.  With leading entry ``c0`` it computes the ints
        ``u_n = c0^N * b_n`` of the inverse ``b`` of length ``N``, which the
        recurrence ``c0 u_n = -sum_j a_j u_{n-j}`` divides exactly.
        """
        if not self._coeffs:
            raise QSeriesError("cannot invert a series with no known terms")
        e0, c0 = self._offset, self._coeffs[0]
        new_cut = self._cutoff - 2 * e0 if self._cutoff is not None else None
        if len(self._coeffs) == 1:
            return QExpansion.monomial(-e0, 1 / (c0 * self._scale), new_cut)
        if self._cutoff is None:
            raise QSeriesError("reciprocal of an exact multi-term series is not finite")
        length = math.ceil((self._cutoff - e0) * self._d)
        support = [(j, c) for j, c in enumerate(self._coeffs[1:length], 1) if c]
        t: List[int] = [0] * _run_length(length)
        t[0] = c0 ** (length - 1)
        for n in range(1, length):
            acc = 0
            for j, s in support:
                if j > n:
                    break
                acc += s * t[n - j]
            t[n] = -(acc // c0)
        scale = 1 / (self._scale * c0**length)
        return QExpansion.from_lattice(-e0, self._d, t, scale, new_cut)

    def __truediv__(self, other) -> "QExpansion":
        if isinstance(other, Number):
            divisor = _exact(other)
            if divisor == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            return self.scale(1 / divisor)
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self * other.reciprocal()

    # -- substitutions and reshaping --

    def truncated(self, cutoff: ExpLike) -> "QExpansion":
        cut = _exponent(cutoff)
        if self._cutoff is not None and cut > self._cutoff:
            raise QSeriesError(f"cannot extend cutoff {self._cutoff} to {cut}")
        return self._with(cutoff=cut)

    def shifted(self, delta: ExpLike) -> "QExpansion":
        """Multiply by q^delta: every exponent moves by ``delta``."""
        d = _exponent(delta)
        cut = self._cutoff + d if self._cutoff is not None else None
        return self._with(offset=self._offset + d, cutoff=cut)

    def half_exponents(self) -> "QExpansion":
        """The substitution tau -> tau/2, i.e. q^r -> q^{r/2}."""
        cut = self._cutoff / 2 if self._cutoff is not None else None
        return self._with(offset=self._offset / 2, d=2 * self._d, cutoff=cut)

    def double_exponents(self) -> "QExpansion":
        """The substitution tau -> 2 tau, inverse of :meth:`half_exponents`."""
        cut = self._cutoff * 2 if self._cutoff is not None else None
        if self._d % 2 == 0:
            return self._with(offset=self._offset * 2, d=self._d // 2, cutoff=cut)
        spread: List[int] = [0] * (2 * len(self._coeffs) - 1)
        spread[::2] = self._coeffs
        return self._with(offset=self._offset * 2, coeffs=spread, cutoff=cut)

    # -- numerics --

    def shift_tau_deviation(self, target: "QExpansion", phase: complex) -> float:
        """How far ``tau -> tau + 1`` is from taking ``self`` to ``phase * target``.

        The substitution multiplies the coefficient ``a_e`` at ``q^e`` by
        ``e^{2 pi i frac(e)}``.  Returns the largest
        ``|a_e e^{2 pi i frac(e)} - b_e phase|`` in complex floats over the
        exponents below the smaller cutoff, ``b_e`` being the coefficients
        of ``target``.
        """
        cuts = [c for c in (self._cutoff, target._cutoff) if c is not None]
        cut = min(cuts) if cuts else None
        ours, theirs = dict(self.terms), dict(target.terms)
        worst = 0.0
        for e in ours.keys() | theirs.keys():
            if cut is None or e < cut:
                turn = cmath.exp(2j * math.pi * ((e.numerator % e.denominator) / e.denominator))
                shifted = complex(ours.get(e, 0)) * turn
                worst = max(worst, abs(shifted - complex(theirs.get(e, 0)) * phase))
        return worst

    def evaluate(self, tau, growth_bound: float = 2.0 ** 64) -> EvalResult:
        """The one-series case of :func:`_evaluate_grid`: at one point ``tau``
        a complex value and a float bound, on a 1-D grid an array of each."""
        values, bounds = _evaluate_grid([self], tau, growth_bound)
        if np.ndim(tau) == 0:
            return EvalResult(complex(values[0, 0]), float(bounds[0, 0]))
        return EvalResult(values[:, 0], bounds[:, 0])

    # -- serialization --

    def to_json_dict(self) -> dict:
        cut = self._cutoff
        base, step, den = self._exponent_ratio()
        sn, sd = self._scale.numerator, self._scale.denominator
        return {
            "domain": EXACT,
            "cutoff": _frac_pair(cut.numerator, cut.denominator) if cut is not None else None,
            "terms": [
                {"exp": _frac_pair(base + i * step, den), "coef": _frac_pair(c * sn, sd)}
                for i, c in enumerate(self._coeffs)
                if c
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QExpansion":
        domain = data.get("domain", EXACT)
        if domain != EXACT:
            raise QSeriesError(f"unsupported coefficient domain {domain!r}")
        cut = data.get("cutoff")
        cutoff = Fraction(int(cut[0]), int(cut[1])) if cut is not None else None
        terms = [
            (Fraction(int(t["exp"][0]), int(t["exp"][1])), Fraction(int(t["coef"][0]), int(t["coef"][1])))
            for t in data["terms"]
        ]
        return cls(terms, cutoff=cutoff)

    # -- comparison / display --

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.terms == other.terms and self._cutoff == other._cutoff

    def __hash__(self) -> int:
        return hash((self.terms, self._cutoff))

    def __repr__(self) -> str:
        terms = self.terms
        shown = ", ".join(f"{c}*q^{e}" for e, c in terms[:6])
        if len(terms) > 6:
            shown += ", ..."
        return f"QExpansion([{shown}], cutoff={self._cutoff})"


def _evaluate_grid(series: Sequence[QExpansion], taus, growth_bound: float = 2.0 ** 64) -> EvalResult:
    """Values and tail bounds, as points x series arrays, of every series at
    ``q = e^{2 pi i tau}`` for each ``tau`` of one point or a 1-D grid.

    One table ``exp(2 pi i tau (x) e)`` over the union of the exponents, each
    an exact integer over the lcm of the denominators, times the exponents x
    series matrix of float coefficients, both over the terms a double sees: a
    series drops its highest terms while they total at most 2^-60 (2^-7 ulp)
    of the rest's absolute sum at the grid's largest |q|, so, all lying above
    the kept exponents, at every point.  A term too large for a float raises
    ``FloatingPointError`` for the whole batch.  The tail bound, once per
    distinct cutoff and point, is ``growth_bound`` (a caller-supplied cap on
    coefficient magnitude) times |q|^cutoff / (1 - |q|).
    """
    taus = np.asarray(taus, dtype=complex)
    if taus.ndim > 1:
        raise QSeriesError(f"evaluation takes one point or a 1-D grid, not shape {taus.shape}")
    taus = taus.reshape(-1)
    if (taus.imag <= 0).any():
        raise QSeriesError("evaluation requires Im(tau) > 0")
    log_absq = -2 * math.pi * taus.imag.min() if taus.size else 0.0
    ratios = [s._exponent_ratio() for s in series]
    lcm = math.lcm(*(den for _, _, den in ratios))
    keys, coeffs, cols = [], [], []
    for col, (s, (base, step, den)) in enumerate(zip(series, ratios)):
        sn, sd, f = s._scale.numerator, s._scale.denominator, lcm // den
        nonzero = list(compress(range(len(s._coeffs)), s._coeffs))
        # log |c q^e| of each term at the largest |q|: there |q|^400 does not underflow, nor a Laurent term overflow
        logs = np.array([math.log(abs(s._coeffs[i])) + (base + i * step) / den * log_absq for i in nonzero])
        size = np.exp(logs - logs.max(initial=-np.inf))
        # visible[k]: the terms after the k-th total at most 2^-60 of the first k+1; the first one always stays
        visible = np.append(np.cumsum(size[::-1])[-2::-1] <= 2.0 ** -60 * np.cumsum(size)[:-1], True)
        kept = nonzero[: int(np.argmax(visible)) + 1]
        keys += [(base + i * step) * f for i in kept]
        # c * sn / sd is the correctly rounded float of the exact coefficient
        coeffs += [s._coeffs[i] * sn / sd for i in kept]
        cols += [col] * len(kept)
    keys, rows = np.unique(np.array(keys), return_inverse=True)
    mat = np.zeros((len(keys), len(series)))
    mat[rows, cols] = coeffs
    phase = np.outer(taus, 2j * math.pi * np.array([k / lcm for k in keys.tolist()]))
    with np.errstate(over="raise"):  # a term too large for a float raises, never becomes inf
        np.exp(phase, out=phase)
    absqs = [math.exp(-2 * math.pi * im) for im in taus.imag.tolist()]
    tails: Dict[Optional[Fraction], List[float]] = {None: [0.0] * len(taus)}
    for cut in {s._cutoff for s in series} - {None}:
        tails[cut] = []
        for absq in absqs:
            try:
                tails[cut].append(growth_bound * absq ** float(cut) / (1 - absq))
            except (OverflowError, ZeroDivisionError):  # |q| too large, or 0.0 ** negative cutoff
                tails[cut].append(math.inf)
    bounds = np.array([tails[s._cutoff] for s in series]).reshape(len(series), len(taus))
    return EvalResult(phase @ mat, bounds.T)


# Kronecker substitution needs unit strides and this many nonzero entries in both runs: on dense runs
# cut to their own length it ties the schoolbook loop at 24 entries of 150 bits, and wins with fewer
# bits or more entries (1.4x at 24 entries of 8 bits, 2-4x from 64 entries on).
_KRONECKER_MIN = 24


def _convolve(a: Sequence[int], stride_a: int, b: Sequence[int], stride_b: int, n: int) -> List[int]:
    """The first ``n`` >= 0 entries of the product of the integer runs ``a``
    and ``b``, entry i of ``a`` at ``i * stride_a`` and j of ``b`` at ``j *
    stride_b``: :func:`_kronecker`, or schoolbook over the nonzero entries of
    the sparser run at a cost of its nonzero entries times the other's length."""
    a, b = a[: -(-n // stride_a)], b[: -(-n // stride_b)]  # entries at or past n add nothing
    nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    if stride_a == stride_b == 1 and min(nonzero_a, nonzero_b) >= _KRONECKER_MIN:
        return _kronecker(a, b, n)
    if nonzero_b * len(a) < nonzero_a * len(b):
        a, stride_a, b, stride_b = b, stride_b, a, stride_a
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            start = i * stride_a
            stop = min(n, start + len(b) * stride_b)
            out[start:stop:stride_b] = map(add, out[start:stop:stride_b], map(mul, b, repeat(x)))
    return out


def _kronecker(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """The first ``n`` entries of the product of two nonempty unit-stride runs
    by Kronecker substitution: each run is one int with a byte-aligned slot of
    k > top bits per entry, every product entry being below 2^top in size; the
    two ints are multiplied once and the slots read back through ``to_bytes``
    with 2^(k-1) added to each, so that no negative slot borrows."""
    top = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + min(len(a), len(b)).bit_length()
    size, width = top // 8 + 1, len(a) + len(b) - 1
    bias, biases = 1 << (8 * size - 1), bytes(size - 1) + b"\x80"

    def pack(run):
        raw = b"".join(map(int.to_bytes, map(add, run, repeat(bias)), repeat(size), repeat("little")))
        return int.from_bytes(raw, "little") - int.from_bytes(biases * len(run), "little")

    raw = memoryview((pack(a) * pack(b) + int.from_bytes(biases * width, "little")).to_bytes(width * size, "little"))
    out = [int.from_bytes(raw[i : i + size], "little") - bias for i in range(0, min(n, width) * size, size)]
    return out + [0] * (n - len(out))


def _init(series: QExpansion, *fields) -> None:
    for name, value in zip(QExpansion.__slots__, fields):
        object.__setattr__(series, name, value)


def product_expansion(
    sign: int,
    offset: ExpLike,
    prefactor_exp: ExpLike,
    cutoff: ExpLike,
) -> QExpansion:
    """Expand ``q^prefactor * prod_n (1 + sign q^{n + offset})`` below ``cutoff``.

    The product index starts at n = 1 for offset 0 and at n = 0 for offset
    1/2, so the first factor exponent is 1 or 1/2 respectively.  Each factor
    is one in-place pass ``c[i] += sign * c[i - a]`` over the integer run.
    """
    if sign not in (1, -1):
        raise QSeriesError("sign must be +1 or -1")
    offset = _exponent(offset)
    if offset not in (Fraction(0), Fraction(1, 2)):
        raise QSeriesError("offset must be 0 or 1/2")
    prefactor_exp = _exponent(prefactor_exp)
    cutoff = _exponent(cutoff)
    if cutoff <= prefactor_exp:
        raise CutoffUnderflowError("cutoff must exceed the prefactor exponent")
    d = offset.denominator
    length = math.ceil((cutoff - prefactor_exp) * d)
    c = [1] + [0] * (_run_length(length) - 1)
    step = add if sign == 1 else sub
    for a in range(int(offset * d) or d, length, d):
        # the right-hand slice is a copy, so every c[i - a] is read before the pass
        c[a:] = map(step, c[a:], c[: length - a])
    return QExpansion.from_lattice(prefactor_exp, d, c, 1, cutoff)
