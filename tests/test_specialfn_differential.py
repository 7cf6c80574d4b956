"""Differential test: the theta lattice sums of ``specialfn`` against a
plain loop over a generous window (``oracles.lattice_sum_terms``).

The summation window of ``_lattice_sum`` comes from one integer square root
of the scaled cutoff, so the draws aim at its edges: cutoffs equal to an
exponent of the sum (that term must be dropped), cutoffs at or below the
first exponent (the result is empty) and arbitrary fractional cutoffs, for
half-integer j and k from 1/2 to 6.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supertriplet.specialfn import g_deriv, g_series, theta, theta_deriv

from oracles import lattice_sum_terms

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# (builder, weighted, alternating); the alternating sums need an integer j
BUILDERS = [(theta, False, False), (theta_deriv, True, False), (g_series, False, True), (g_deriv, True, True)]


@st.composite
def index_and_cutoff(draw):
    builder, weighted, alternating = draw(st.sampled_from(BUILDERS))
    k = Fraction(draw(st.integers(1, 12)), 2)
    j = Fraction(draw(st.integers(-24, 24)), 1 if alternating else 2)
    t = j % (2 * k)
    first = min(t, 2 * k - t) ** 2 / (4 * k)  # the smallest exponent of the sum
    kind = draw(st.sampled_from(["exponent", "below-first", "fraction"]))
    if kind == "exponent":
        n = draw(st.integers(-8, 8))
        cutoff = (2 * k * n + j) ** 2 / (4 * k)
    elif kind == "below-first":
        cutoff = first * Fraction(draw(st.integers(1, 12)), 12)
    else:
        cutoff = Fraction(draw(st.integers(1, 600)), draw(st.integers(1, 24)))
    if cutoff <= 0:  # j on the lattice 2kZ: exponent 0 is no valid cutoff
        cutoff = Fraction(draw(st.integers(1, 48)), 8)
    return builder, weighted, alternating, j, k, cutoff, first


@SETTINGS
@given(index_and_cutoff())
def test_lattice_sums_match_the_plain_loop(case):
    builder, weighted, alternating, j, k, cutoff, first = case
    series = builder((j, k), cutoff)
    expected = lattice_sum_terms(j, k, cutoff, weighted, alternating)
    assert series.terms == tuple(sorted(expected.items()))
    assert series.cutoff == cutoff
    if cutoff <= first:
        assert series.is_zero()


def test_cutoff_on_an_exponent_drops_that_term():
    # theta_{1/2,3/2} has exponents 1/24, 25/24, 49/24, ...
    idx = (Fraction(1, 2), Fraction(3, 2))
    assert [e for e, _ in theta(idx, Fraction(25, 24)).terms] == [Fraction(1, 24)]
    assert theta(idx, Fraction(1, 24)).is_zero()
    assert theta(idx, Fraction(1, 48)).is_zero()
