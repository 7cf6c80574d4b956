"""Differential tests: the shared Clifford kernel of ``fermion`` against
``oracles.clifford_action`` and ``oracles.virasoro_quadratic_action``.

Vectors are random sets of strictly decreasing monomials of total grade at
most 10 with nonzero coefficients in Q(sqrt 2): plain ints and Fractions,
pure multiples of sqrt 2 and mixed elements.  A short random word of
operators is applied one at a time; after every step the terms, the
``truncated`` flag and the cutoff must match the oracle.  The twisted sector
runs ``phi(n)`` for n in -8..8 at grade cutoffs 6..20, the untwisted sector
``u_create``/``u_annihilate`` with no cutoff.

The kernel builds its results without the public constructor's checks, so
``scale``, ``+`` and the Virasoro modes are also compared at grade cutoffs
0..6, where most words are dropped, and ``virasoro_mode_quadratic`` (which
only visits partners that occur in the vector) against the oracle's sum over
the full mode window.  The public constructor must still refuse monomials
that are not strictly decreasing or hold a negative mode, and inexact
coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertriplet.arith import QuadRational
from supertriplet.fermion import (
    FockVector,
    phi,
    u_annihilate,
    u_create,
    virasoro_mode,
    virasoro_mode_quadratic,
)

from oracles import clifford_action, virasoro_quadratic_action

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FEWER = settings(SETTINGS, max_examples=100)
REFUSALS = settings(SETTINGS, max_examples=60)

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


def _times(pair, scalar):
    """(a + b sqrt 2) * (p + q sqrt 2) on pairs."""
    (a, b), (p, q) = pair, _pair(scalar)
    return (a * p + 2 * b * q, a * q + b * p)


def _plus(x, y):
    out = dict(x)
    for w, (a, b) in y.items():
        old_a, old_b = out.get(w, (0, 0))
        out[w] = (old_a + a, old_b + b)
    return {w: c for w, c in out.items() if c != (0, 0)}


@FEWER
@given(vectors, vectors, st.integers(0, 6), st.integers(-8, 8), st.one_of(coefficients, st.just(0)))
def test_trusted_paths_match_oracle_at_small_cutoffs(u_terms, w_terms, cutoff, n, scalar):
    u, w = FockVector(u_terms, cutoff), FockVector(w_terms, cutoff)
    u_pairs, u_dropped = _oracle_vector(u_terms, cutoff)
    w_pairs, w_dropped = _oracle_vector(w_terms, cutoff)
    assert (_observed(u), u.truncated) == (u_pairs, u_dropped)

    x = phi(n, u)
    step = _phi_step(n)
    x_pairs, dropped = clifford_action(u_pairs, step[1], step[2], cutoff)
    assert (_observed(x), x.truncated) == (x_pairs, u_dropped or dropped)

    y = x.scale(scalar)
    y_pairs = {m: _times(c, scalar) for m, c in x_pairs.items() if scalar}
    assert (_observed(y), y.truncated) == (y_pairs, x.truncated)

    z = virasoro_mode(0, w)
    z_pairs = {m: _times(c, sum(m) + Fraction(1, 16)) for m, c in w_pairs.items()}
    assert (_observed(z), z.truncated) == (z_pairs, w_dropped)

    total = y + z
    assert (_observed(total), total.truncated) == (_plus(y_pairs, z_pairs), y.truncated or z.truncated)
    assert total.cutoff == cutoff


@SETTINGS
@given(vectors, st.integers(0, 16), st.integers(-4, 4))
def test_virasoro_quadratic_matches_full_range_oracle(terms, cutoff, n):
    v = FockVector(terms, cutoff)
    pairs, truncated = _oracle_vector(terms, cutoff)
    expected, dropped = virasoro_quadratic_action(pairs, n, cutoff)
    for image in (virasoro_mode_quadratic(n, v),) + ((virasoro_mode(n, v),) if n else ()):
        assert _observed(image) == expected
        assert image.truncated == (truncated or dropped)
        assert image.cutoff == cutoff


def _valid(modes):
    return all(a > b for a, b in zip(modes, modes[1:])) and all(m >= 0 for m in modes)


invalid_monomials = st.lists(st.integers(-3, 10), min_size=1, max_size=5).filter(
    lambda modes: not _valid(modes)
)
cutoffs = st.one_of(st.none(), st.integers(0, 20))


@REFUSALS
@given(vectors, invalid_monomials, coefficients, cutoffs)
def test_public_constructor_refuses_invalid_monomials(terms, bad, coeff, cutoff):
    items = list(terms.items()) + [(tuple(bad), coeff)]
    with pytest.raises(ValueError, match="strictly decreasing|negative mode"):
        FockVector(items, cutoff)


@REFUSALS
@given(
    vectors,
    monomials,
    st.one_of(st.floats(allow_nan=False), st.complex_numbers(allow_nan=False)),
    cutoffs,
)
def test_public_constructor_refuses_inexact_coefficients(terms, mono, value, cutoff):
    with pytest.raises(TypeError, match="exact"):
        FockVector(list(terms.items()) + [(mono, value)], cutoff)
