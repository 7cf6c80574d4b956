"""Differential tests: the shared Clifford kernel of ``fermion`` against
``oracles.clifford_action``.

Vectors are random sets of strictly decreasing monomials of total grade at
most 10 with nonzero coefficients in Q(sqrt 2): plain ints and Fractions,
pure multiples of sqrt 2 and mixed elements.  A short random word of
operators is applied one at a time; after every step the terms, the
``truncated`` flag and the cutoff must match the oracle.  The twisted sector
runs ``phi(n)`` for n in -8..8 at grade cutoffs 6..20, the untwisted sector
``u_create``/``u_annihilate`` with no cutoff.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supertriplet.arith import QuadRational
from supertriplet.fermion import FockVector, phi, u_annihilate, u_create

from oracles import clifford_action

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

rationals = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
).filter(bool)

coefficients = st.one_of(
    rationals,
    rationals.map(lambda b: QuadRational(0, b)),
    st.tuples(rationals, rationals).map(lambda ab: QuadRational(*ab)),
)

monomials = (
    st.lists(st.integers(0, 10), unique=True, max_size=5)
    .filter(lambda modes: sum(modes) <= 10)
    .map(lambda modes: tuple(sorted(modes, reverse=True)))
)

vectors = st.dictionaries(monomials, coefficients, max_size=8)


def _pair(c):
    if isinstance(c, QuadRational):
        return (c.a, c.b)
    return (Fraction(c), Fraction(0))


def _oracle_vector(terms, cutoff):
    """The oracle reading of ``FockVector(terms, cutoff)``."""
    kept = {w: _pair(c) for w, c in terms.items() if cutoff is None or sum(w) <= cutoff}
    return kept, len(kept) < len(terms)


def _observed(v):
    return {mono: _pair(v.coeff(mono)) for mono in v.terms}


def _check_word(v, expected, truncated, steps, cutoff):
    for apply, kind, mode in steps:
        v = apply(v)
        expected, dropped = clifford_action(expected, kind, mode, cutoff)
        truncated = truncated or dropped
        assert _observed(v) == expected, (kind, mode)
        assert v.truncated == truncated, (kind, mode)
        assert v.cutoff == cutoff


def _phi_step(n):
    kind = "create" if n < 0 else "contract" if n > 0 else "zero"
    return (lambda v: phi(n, v)), kind, abs(n)


def _untwisted_step(create, n):
    if create:
        return (lambda v: u_create(n, v)), "create", n
    return (lambda v: u_annihilate(n, v)), "contract", n


@SETTINGS
@given(vectors, st.integers(6, 20), st.lists(st.integers(-8, 8), min_size=1, max_size=3))
def test_phi_matches_oracle(terms, cutoff, modes):
    expected, truncated = _oracle_vector(terms, cutoff)
    steps = [_phi_step(n) for n in modes]
    _check_word(FockVector(terms, cutoff), expected, truncated, steps, cutoff)


@SETTINGS
@given(vectors, st.lists(st.tuples(st.booleans(), st.integers(0, 8)), min_size=1, max_size=3))
def test_untwisted_modes_match_oracle(terms, ops):
    expected, truncated = _oracle_vector(terms, None)
    steps = [_untwisted_step(create, n) for create, n in ops]
    _check_word(FockVector(terms, None), expected, truncated, steps, None)
