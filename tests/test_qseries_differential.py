"""Differential tests: the lattice kernel of QExpansion against SparseSeries,
its product kernel ``_convolve`` against a plain double loop, and its grid
evaluation against the termwise sum.

Each generated series lives on one lattice ``offset + (1/d) Z`` with d in
1..48, may start at a negative exponent and may lead with any nonzero
coefficient; operands of one operation are drawn independently, so sums and
products mix lattices.  Results must agree on ``terms`` and ``cutoff``, and
both kernels must refuse the same inputs.  Long dense series, with entries
up to 200 bits, take the Kronecker branch of ``_convolve`` when their
lattices agree.  ``_convolve`` itself gets runs of 0-8 or 24-60 negative,
zero, small and 200-bit entries, empty runs, unequal strides and
truncations shorter and longer than the full product; a spy on
``_kronecker`` shows which branch ran.  Float sums must agree within a rounding bound derived from the terms,
and tail bounds exactly; the terms a grid sum drops must total at most 2^-60 of those it keeps.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from supertriplet import qseries
from supertriplet.characters import _quotient, _theta_series
from supertriplet.modular import basis_functions, standard_grid
from supertriplet.qseries import QExpansion

from oracles import SparseSeries, rounding_bound, termwise_evaluate

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

exact_coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def series_terms(draw, max_span=6, finite_cutoff=None):
    """(terms, cutoff) on one lattice, exponents in [offset, offset + max_span)."""
    d = draw(st.integers(1, 48))
    offset = Fraction(draw(st.integers(-2 * d, 3 * d)), d)
    steps = draw(st.lists(st.integers(0, max_span * d - 1), min_size=0, max_size=12))
    terms = [(offset + Fraction(s, d), draw(exact_coeffs)) for s in steps]
    lead = draw(st.integers(-7, 7).filter(bool))
    terms.append((offset, lead))
    if finite_cutoff is None:
        finite_cutoff = draw(st.booleans())
    cutoff = None
    if finite_cutoff:
        cutoff = offset + Fraction(draw(st.integers(1, max_span * d + 2 * d)), d)
    return terms, cutoff


# points with Im(tau) in (0.3, 3] and Re(tau) in [-1.5, 1.5], then their S-images -1/tau
grid_points = st.lists(
    st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.3, 3, exclude_min=True)),
    min_size=1,
    max_size=12,
).map(lambda points: points + [-1 / tau for tau in points])


def both(terms, cutoff):
    return QExpansion(terms, cutoff=cutoff), SparseSeries(terms, cutoff)


def assert_agree(fast, slow):
    assert fast.terms == slow.terms
    assert fast.cutoff == slow.cutoff


def outcome(op):
    try:
        return op(), None
    except ValueError as exc:  # QSeriesError is one
        return None, type(exc)


def check_op(fast_op, slow_op):
    fast, fast_err = outcome(fast_op)
    slow, slow_err = outcome(slow_op)
    assert (fast_err is None) == (slow_err is None)
    if fast_err is None:
        assert_agree(fast, slow)


@SETTINGS
@given(series_terms(), series_terms())
def test_sum_matches_sparse_kernel(a, b):
    (fa, sa), (fb, sb) = both(*a), both(*b)
    assert_agree(fa, sa)
    check_op(lambda: fa + fb, lambda: sa + sb)


@SETTINGS
@given(series_terms(max_span=2), series_terms(max_span=2))
def test_product_matches_sparse_kernel(a, b):
    (fa, sa), (fb, sb) = both(*a), both(*b)
    check_op(lambda: fa * fb, lambda: sa * sb)


big_coeffs = st.one_of(exact_coeffs, st.integers(-(2**200), 2**200))


@st.composite
def dense_series_terms(draw):
    """(terms, cutoff): 24-40 consecutive lattice entries with d in 1..2,
    mostly nonzero and up to 200 bits, and a cutoff near their end or none."""
    d = draw(st.sampled_from([1, 1, 2]))
    offset = Fraction(draw(st.integers(-2 * d, 2 * d)), d)
    coeffs = draw(st.lists(big_coeffs, min_size=draw(st.integers(24, 40)), max_size=40))
    terms = [(offset + Fraction(i, d), c) for i, c in enumerate(coeffs)] + [(offset, 1)]
    near_end = st.integers(len(coeffs) - 6, len(coeffs) + 4).map(lambda k: offset + Fraction(k, d))
    return terms, draw(st.one_of(st.none(), near_end))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dense_series_terms(), dense_series_terms())
def test_long_dense_products_match_sparse_kernel(a, b):
    (fa, sa), (fb, sb) = both(*a), both(*b)
    check_op(lambda: fa * fb, lambda: sa * sb)


def double_loop(a, stride_a, b, stride_b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i * stride_a + j * stride_b < n:
                out[i * stride_a + j * stride_b] += x * y
    return out


run_entries = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))


@st.composite
def runs(draw):
    """0-8 or 24-60 entries, negative, zero, small or up to 200 bits: all
    drawn freely, or all but every fifth set to zero."""
    size = draw(st.one_of(st.integers(0, 8), st.integers(24, 60)))
    entries = draw(st.lists(run_entries, min_size=size, max_size=size))
    if draw(st.booleans()):
        entries = [x if i % 5 == 0 else 0 for i, x in enumerate(entries)]
    return entries


@st.composite
def convolutions(draw):
    a, b = draw(runs()), draw(runs())
    stride_a, stride_b = draw(st.sampled_from([(1, 1), (1, 1), (1, 2), (3, 1), (2, 2)]))
    full = (len(a) - 1) * stride_a + (len(b) - 1) * stride_b + 1 if a and b else 0
    # a truncation from none to past the full product
    return a, stride_a, b, stride_b, draw(st.one_of(st.integers(0, full + 8), st.integers(max(0, full - 8), full + 8)))


def convolve_with_spy(a, stride_a, b, stride_b, n):
    """``_convolve(a, stride_a, b, stride_b, n)`` and the number of
    ``_kronecker`` calls it made."""
    calls = []
    kronecker = qseries._kronecker
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_kronecker", lambda *args: calls.append(args) or kronecker(*args))
        return qseries._convolve(a, stride_a, b, stride_b, n), len(calls)


DENSE = [(i + 1) * (-1) ** i << (5 * i) for i in range(40)]
SPARSE = [x if i % 5 == 0 else 0 for i, x in enumerate(DENSE)]


@SETTINGS
@given(convolutions())
@example((DENSE, 1, DENSE[::-1], 1, 79))
@example((DENSE, 1, DENSE, 1, 30))
@example(([], 1, DENSE, 1, 5))
def test_convolve_matches_double_loop_and_sparse_series(case):
    a, stride_a, b, stride_b, n = case
    got, kronecker_calls = convolve_with_spy(a, stride_a, b, stride_b, n)
    assert got == double_loop(a, stride_a, b, stride_b, n)
    product = SparseSeries([(i * stride_a, x) for i, x in enumerate(a)]) * SparseSeries(
        [(j * stride_b, y) for j, y in enumerate(b)]
    )
    assert got == [dict(product.terms).get(k, 0) for k in range(n)]
    # Kronecker exactly when both runs have unit stride and enough nonzero entries below n
    nonzero = min(len(r[:n]) - r[:n].count(0) for r in (a, b))
    assert kronecker_calls == (stride_a == stride_b == 1 and nonzero >= qseries._KRONECKER_MIN)


@pytest.mark.parametrize(
    "a, stride_a, b, stride_b, n, kronecker_calls",
    [
        (DENSE, 1, DENSE, 1, 79, 1),
        (DENSE, 1, DENSE, 1, 30, 1),
        (DENSE, 1, DENSE, 1, 23, 0),  # cut below _KRONECKER_MIN entries per run
        (DENSE, 1, SPARSE, 1, 79, 0),
        (DENSE, 2, DENSE, 1, 100, 0),
    ],
    ids=["dense", "dense-cut-to-30", "dense-cut-to-23", "sparse", "stride-2"],
)
def test_convolve_runs_both_branches(a, stride_a, b, stride_b, n, kronecker_calls):
    assert convolve_with_spy(a, stride_a, b, stride_b, n) == (double_loop(a, stride_a, b, stride_b, n), kronecker_calls)


@SETTINGS
@given(series_terms(max_span=3))
def test_reciprocal_matches_sparse_kernel(a):
    fa, sa = both(*a)
    check_op(fa.reciprocal, sa.reciprocal)


@SETTINGS
@given(series_terms(max_span=3, finite_cutoff=True))
def test_reciprocal_inverts_exactly(a):
    fa, _ = both(*a)
    assume(not fa.is_zero())
    assert (fa * fa.reciprocal() - QExpansion.one()).is_zero()


@SETTINGS
@given(
    series_terms(),
    st.fractions(min_value=-3, max_value=3, max_denominator=48),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
def test_reshaping_moves_every_term(a, delta, factor):
    terms, cutoff = a
    fa = QExpansion(terms, cutoff=cutoff)

    def mapped(f_exp, f_coeff=lambda c: c, f_cut=None):
        f_cut = f_cut or f_exp
        cut = f_cut(cutoff) if cutoff is not None else None
        return SparseSeries([(f_exp(e), f_coeff(c)) for e, c in terms], cut)

    assert_agree(fa.shifted(delta), mapped(lambda e: e + delta))
    assert_agree(fa.half_exponents(), mapped(lambda e: e / 2))
    assert_agree(fa.double_exponents(), mapped(lambda e: e * 2))
    assert_agree(-fa, mapped(lambda e: e, lambda c: -c))
    assert_agree(fa.scale(factor), mapped(lambda e: e, lambda c: c * factor))
    cut = terms[-1][0] + 1 if cutoff is None else min(cutoff, terms[-1][0] + 1)
    assert_agree(fa.truncated(cut), SparseSeries(terms, cut))
    phase = lambda e: cmath.exp(2j * math.pi * float(e - math.floor(e)))  # noqa: E731
    fixed = max((abs(complex(c) * phase(e) - complex(c)) for e, c in fa.terms), default=0.0)
    assert fa.shift_tau_deviation(fa, 1) == fixed
    assert QExpansion.from_json_dict(fa.to_json_dict()) == fa
    for e, c in fa.terms:
        assert fa.coeff(e) == c


@SETTINGS
@given(series_terms(), grid_points, st.sampled_from([2.0, 2.0 ** 64]))
def test_grid_evaluation_matches_termwise(a, points, growth):
    terms, cutoff = a
    fa = QExpansion(terms, cutoff=cutoff)
    grid = fa.evaluate(points, growth)
    assert grid.value.shape == grid.error_bound.shape == (len(points),)
    for i, tau in enumerate(points):
        value, bound = termwise_evaluate(fa, tau, growth)
        single = fa.evaluate(tau, growth)
        assert isinstance(single.value, complex) and isinstance(single.error_bound, float)
        tolerance = rounding_bound(fa, tau)
        assert abs(grid.value[i] - value) <= tolerance
        assert abs(single.value - value) <= tolerance
        assert grid.error_bound[i] == single.error_bound == bound


@st.composite
def grid_series(draw):
    """A series on ``offset + (1/d) Z`` with d in {1, 2, 3, 8}, a negative or
    positive offset, 0-8 terms (so possibly empty) and a cutoff or None."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    offset = Fraction(draw(st.integers(-2 * d, 3 * d)), d)
    steps = draw(st.lists(st.integers(0, 4 * d), max_size=8))
    terms = [(offset + Fraction(s, d), draw(exact_coeffs)) for s in steps]
    cutoff = draw(st.none() | st.integers(1, 6 * d).map(lambda s: offset + Fraction(s, d)))
    return QExpansion(terms, cutoff=cutoff)


@SETTINGS
@given(
    st.lists(grid_series(), min_size=1, max_size=6),
    grid_points | st.just([]),
    st.sampled_from([2.0, 2.0 ** 64]),
)
def test_batched_grid_matches_termwise_per_series(series, points, growth):
    values, bounds = qseries._evaluate_grid(series, points, growth)
    assert values.shape == bounds.shape == (len(points), len(series))
    for col, s in enumerate(series):
        for i, tau in enumerate(points):
            value, bound = termwise_evaluate(s, tau, growth)
            assert abs(values[i, col] - value) <= rounding_bound(s, tau)
            assert bounds[i, col] == bound
    # one Laurent term too large for a float refuses the whole batch, as it does alone
    laurent = QExpansion({-2: 1}, cutoff=1)
    with pytest.raises(FloatingPointError):
        laurent.evaluate(points + [200j])
    with pytest.raises(FloatingPointError):
        qseries._evaluate_grid(series + [laurent], points + [200j], growth)


def test_grid_drops_only_terms_below_rounding(monkeypatch):
    # the cutoff-400 prefactor quotients, with coefficients of 78-79 bits, and the m=2 theta
    # series on the m=2 grid and on its S-images: each series keeps a run of leading terms,
    # and at every point the dropped ones total at most 2^-60 of the kept ones' absolute sum
    grid = standard_grid(2, 400)
    parts = dict.fromkeys((fn.kind, fn.j, fn.k) for fn in basis_functions(2))
    quotients = [_quotient(tag, grid.cutoff) for tag in ("f", "f1", "f2")]
    series = quotients + [_theta_series(*part, grid.cutoff) for part in parts]
    assert max(abs(c.numerator).bit_length() for s in quotients for _, c in s.terms) >= 78
    for points in (list(grid.points), [-1 / tau for tau in grid.points]):
        values, bounds = qseries._evaluate_grid(series, points)
        for col, s in enumerate(series):
            # the exponent table of the series alone holds the terms it keeps
            unique, tables = np.unique, []
            with monkeypatch.context() as patch:
                patch.setattr(np, "unique", lambda keys, **kw: tables.append(len(keys)) or unique(keys, **kw))
                qseries._evaluate_grid([s], points)
            kept = tables[0]
            if col < len(quotients):
                assert kept < len(s) // 3
            terms = [(float(e), math.log(abs(c.numerator)) - math.log(c.denominator)) for e, c in s.terms]
            for i, tau in enumerate(points):
                value, bound = termwise_evaluate(s, tau)
                assert abs(values[i, col] - value) <= rounding_bound(s, tau)
                assert bounds[i, col] == bound
                # log |c q^e| term by term, scaled by the largest so that nothing underflows
                logs = [log_c - 2 * math.pi * e * tau.imag for e, log_c in terms]
                top = max(logs)
                sizes = [math.exp(x - top) for x in logs]
                assert math.fsum(sizes[kept:]) <= 2.0 ** -60 * math.fsum(sizes[:kept])
