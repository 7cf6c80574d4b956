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
and tail bounds exactly; the terms a grid sum drops must total at most 2^-60 of those it keeps.  The exact
value ``eval_at`` of a Laurent polynomial must equal the termwise sum of ``c x^e`` in Fractions.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from supertriplet import qseries, suites
from supertriplet.characters import _THETA_BUILDERS, _quotient
from supertriplet.modular import basis_functions, standard_grid
from supertriplet.qseries import QExpansion

from oracles import (
    SparseSeries,
    is_int_terms,
    is_nonneg_int_terms,
    lattice_from_run,
    lattice_sum,
    rounding_bound,
    shift_tau_deviation,
    termwise_evaluate,
)

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
    for e, c in fa.terms:
        assert fa.coeff(e) == c


@SETTINGS
@given(series_terms(), grid_points)
def test_grid_evaluation_matches_termwise(a, points):
    terms, cutoff = a
    fa = QExpansion(terms, cutoff=cutoff)
    grid = fa.evaluate(points)
    assert grid.value.shape == grid.error_bound.shape == (len(points),)
    for i, tau in enumerate(points):
        value, bound = termwise_evaluate(fa, tau, qseries._GROWTH_BOUND)
        single = fa.evaluate(tau)
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
)
def test_batched_grid_matches_termwise_per_series(series, points):
    values, bounds = qseries._evaluate_grid(series, points)
    assert values.shape == bounds.shape == (len(points), len(series))
    for col, s in enumerate(series):
        for i, tau in enumerate(points):
            value, bound = termwise_evaluate(s, tau, qseries._GROWTH_BOUND)
            assert abs(values[i, col] - value) <= rounding_bound(s, tau)
            assert bounds[i, col] == bound
    # one Laurent term too large for a float refuses the whole batch, as it does alone
    laurent = QExpansion({-2: 1}, cutoff=1)
    with pytest.raises(FloatingPointError):
        laurent.evaluate(points + [200j])
    with pytest.raises(FloatingPointError):
        qseries._evaluate_grid(series + [laurent], points + [200j])


def test_grid_drops_only_terms_below_rounding(monkeypatch):
    # the cutoff-400 prefactor quotients, with coefficients of 78-79 bits, and the m=2 theta
    # series on the m=2 grid and on its S-images: each series keeps a run of leading terms,
    # and at every point the dropped ones total at most 2^-60 of the kept ones' absolute sum
    grid = standard_grid(2, 400)
    parts = dict.fromkeys((fn.kind, fn.j, fn.k) for fn in basis_functions(2))
    quotients = [_quotient(tag, grid.cutoff) for tag in ("f", "f1", "f2")]
    series = quotients + [_THETA_BUILDERS[kind]((j, k), grid.cutoff) for kind, j, k in parts]
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


@st.composite
def scaled_series(draw):
    """A series from ``series_terms`` (cutoff or None), its coefficients rounded
    to integers half of the time, under a scale that may be negative or not an integer."""
    terms, cutoff = draw(series_terms())
    if draw(st.booleans()):
        terms = [(e, math.floor(c)) for e, c in terms]
    scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]))
    return QExpansion(terms, cutoff=cutoff).scale(scale)


phases = st.sampled_from([1, -1, 1j, cmath.exp(0.25j * math.pi), cmath.exp(-0.7j)])


@SETTINGS
@given(scaled_series(), scaled_series(), phases)
@example(QExpansion({0: 1}, cutoff=1), QExpansion({0: 1, 1: 5}), 1)  # a term of b at the cutoff of a
def test_shift_tau_deviation_matches_the_terms_version(a, b, phase):
    # the same correctly rounded floats in the same operations, so equal to the last bit
    assert a.shift_tau_deviation(b, phase) == shift_tau_deviation(a, b, phase)
    assert a.shift_tau_deviation(a, phase) == shift_tau_deviation(a, a, phase)


@SETTINGS
@given(scaled_series())
@example(QExpansion({0: 2, Fraction(1, 3): 3}))
@example(QExpansion({0: 2, Fraction(1, 3): -3}, cutoff=1))
def test_integrality_predicates_match_the_terms_versions(a):
    assert suites._is_int_series(a) == is_int_terms(a)
    assert suites._is_nonneg_int_series(a) == is_nonneg_int_terms(a)


@SETTINGS
@given(
    scaled_series(),
    st.fractions(min_value=-3, max_value=3, max_denominator=48),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
)
def test_header_changes_share_the_run(a, delta, factor):
    # negation, scale, shifts and both exponent substitutions (the doubling on an even d) give
    # the series a from_lattice build gives, holding the very run tuple of the operand
    offset, d, coeffs, scale = a.lattice
    cut = a.cutoff
    moved = lambda f: None if cut is None else f(cut)  # noqa: E731
    cases = [
        (-a, (offset, d, coeffs, -scale, cut)),
        (a.scale(factor), (offset, d, coeffs, scale * factor, cut)),
        (a.shifted(delta), (offset + delta, d, coeffs, scale, moved(lambda c: c + delta))),
        (a.half_exponents(), (offset / 2, 2 * d, coeffs, scale, moved(lambda c: c / 2))),
        (a.half_exponents().double_exponents(), (offset, d, coeffs, scale, cut)),
    ]
    for fast, header in cases:
        built = QExpansion.from_lattice(*header)
        assert fast.lattice == built.lattice and fast.cutoff == built.cutoff
        assert fast.lattice[2] is coeffs


@st.composite
def laurent_polys(draw):
    """An exact series with integer exponents in [-6, 8] (a negative offset, a
    gap, no terms at all), rational coefficients and a scale."""
    terms = draw(st.lists(st.tuples(st.integers(-6, 8), exact_coeffs), max_size=10))
    scale = draw(st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-5, 4)]))
    return QExpansion(terms).scale(scale)


@SETTINGS
@given(laurent_polys(), st.fractions(min_value=-4, max_value=4, max_denominator=12))
@example(QExpansion.zero(), Fraction(5, 7))
@example(QExpansion.zero(), Fraction(0))
@example(QExpansion({-3: Fraction(1, 2), 2: -4}), Fraction(-2, 3))
@example(QExpansion({-1: 1}), Fraction(0))
def test_eval_at_matches_the_termwise_sum(a, x):
    if x == 0 and not a.is_zero() and a.min_exponent < 0:
        with pytest.raises(ZeroDivisionError):
            a.eval_at(x)
        return
    value = a.eval_at(x)
    assert type(value) is Fraction
    assert value == sum((c * x**e for e, c in a.terms), Fraction(0))


# any rational: on or between lattice points, at, below or above a lead, or no cutoff at all
cutoffs = st.one_of(st.none(), st.fractions(min_value=-3, max_value=9, max_denominator=60))
header_series = st.one_of(scaled_series(), scaled_series(), st.builds(QExpansion.zero, cutoffs))


def header(series):
    return series.lattice, series.cutoff


def check_header(fast_op, slow_op):
    fast, fast_err = outcome(fast_op)
    slow, slow_err = outcome(slow_op)
    assert fast_err == slow_err
    if fast_err is None:
        assert header(fast) == slow


@SETTINGS
@given(header_series, header_series)
@example(QExpansion({0: 1, 1: 1}, cutoff=2), QExpansion({Fraction(1, 2): 1}, cutoff=0))  # the cut at the lead
@example(QExpansion({5: 1}), QExpansion.zero(3))  # below the one nonzero operand's lead: no underflow
@example(QExpansion({Fraction(-1, 3): 2}).scale(Fraction(-3, 4)), QExpansion({Fraction(1, 4): 3}, cutoff=Fraction(7, 5)))
def test_sum_and_difference_headers_match_the_fraction_headers(a, b):
    (o, d, run, s), cut = header(b)
    negated = (o, d, run, -s), cut
    check_header(lambda: a + b, lambda: lattice_sum(header(a), header(b)))
    check_header(lambda: a - b, lambda: lattice_sum(header(a), negated))
    check_header(lambda: b + 3, lambda: lattice_sum(header(b), header(QExpansion.monomial(0, 3))))


@SETTINGS
@given(header_series, cutoffs.filter(lambda c: c is not None))
def test_truncated_header_matches_the_fraction_header(a, cut):
    if a.cutoff is not None and cut > a.cutoff:
        with pytest.raises(qseries.QSeriesError, match="cannot extend"):
            a.truncated(cut)
    else:
        assert header(a.truncated(cut)) == lattice_from_run(*a.lattice, cut)


@SETTINGS
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=24),
    st.integers(1, 12),
    st.lists(st.integers(-3, 3), max_size=14),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    cutoffs,
)
def test_from_lattice_header_matches_the_fraction_header(offset, d, run, scale, cut):
    series = QExpansion.from_lattice(offset, d, run, scale, cut)
    assert header(series) == lattice_from_run(offset, d, run, scale, cut)
