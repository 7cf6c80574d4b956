"""Differential tests: the fraction-free solver of ``modular`` against
``oracles.gauss_jordan_solve``, the ``Fraction`` Gauss-Jordan solve it
replaced.

Systems have 0-12 rows and 1-12 columns over the ints or the rationals.
Rows are drawn as rational combinations of a few random base rows, so they
repeat, combine and lose rank; some columns are forced to zero; the
right-hand side is the image of a hidden vector (consistent), that image
with one entry perturbed (usually inconsistent), or free.  The solver must
return exactly the oracle's particular solution, ``None`` included.  The
echelon pivots are checked against leading minors computed by the Leibniz
formula, the defining property of Bareiss elimination.

The solver eliminates only rows independent modulo ``_ROW_PRIME`` and
accepts that candidate by exact substitution into every row, falling back
to all rows otherwise.  The same systems with rows and columns multiplied
by large factors (shared ones, the prime itself and up to 2^64) exercise
the content division; hand-made systems whose minors the prime divides
force the fallback; and the systems ``find_mde`` builds are checked against
``oracles.bareiss_solve``, the all-rows solve, and must not need the
fallback.
"""

import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supertriplet import modular
from supertriplet.modular import _ROW_PRIME, _bareiss, _solve_exact

from oracles import bareiss_solve, gauss_jordan_solve

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def systems(draw):
    scalars = draw(st.sampled_from([small_ints, st.one_of(small_ints, small_fractions)]))
    n_cols = draw(st.integers(1, 12))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols // 2))
    vectors = st.lists(scalars, min_size=n_cols, max_size=n_cols)
    base = draw(st.lists(vectors, min_size=1, max_size=12))
    base = [[0 if c in zero_cols else x for c, x in enumerate(row)] for row in base]
    combined = st.lists(scalars, min_size=len(base), max_size=len(base)).map(
        lambda weights: [sum(w * b[c] for w, b in zip(weights, base)) for c in range(n_cols)]
    )
    n_rows = draw(st.integers(1, 13)) % 13  # empty systems rarely, not a third of the time
    any_row = st.one_of(st.sampled_from(base).map(list), combined)
    rows = draw(st.lists(any_row, min_size=n_rows, max_size=n_rows))
    hidden = draw(vectors)
    rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    mode = draw(st.sampled_from(["consistent", "perturbed", "free"]))
    if rows and mode == "perturbed":
        i = draw(st.integers(0, len(rows) - 1))
        rhs[i] += draw(scalars.filter(bool))
    elif mode == "free":
        rhs = draw(st.lists(scalars, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def _as_fractions(rows, rhs):
    return [[Fraction(x) for x in row] for row in rows], [Fraction(b) for b in rhs]


@SETTINGS
@given(systems())
def test_solver_matches_gauss_jordan(system):
    rows, rhs = system
    expected = gauss_jordan_solve(*_as_fractions(rows, rhs))
    got = _solve_exact(rows, rhs)
    assert got == expected
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        assert all(sum(a * x for a, x in zip(row, got)) == b for row, b in zip(rows, rhs))


large_factors = st.one_of(
    st.integers(1, 2**64),
    st.sampled_from([_ROW_PRIME, 2 * _ROW_PRIME, 2**64, 2**64 - 59]),
).flatmap(lambda f: st.sampled_from([f, -f]))


@st.composite
def scaled_systems(draw):
    """A system of ``systems()`` with every row (right-hand side included)
    and every column multiplied by a factor: a large one, one drawn from a
    small shared pool, or 1."""
    rows, rhs = draw(systems())
    shared = draw(st.lists(large_factors, min_size=1, max_size=3))
    factor = st.one_of(large_factors, st.sampled_from(shared), st.just(1))
    n_cols = len(rows[0]) if rows else 0
    col = draw(st.lists(factor, min_size=n_cols, max_size=n_cols))
    row = draw(st.lists(factor, min_size=len(rows), max_size=len(rows)))
    scaled = [[f * x * g for x, g in zip(r, col)] for f, r in zip(row, rows)]
    return scaled, [f * b for f, b in zip(row, rhs)]


@SETTINGS
@given(scaled_systems())
def test_solver_matches_gauss_jordan_on_scaled_systems(system):
    rows, rhs = system
    assert _solve_exact(rows, rhs) == gauss_jordan_solve(*_as_fractions(rows, rhs))


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The row counts of every ``_bareiss`` call made through ``modular``."""
    calls = []

    def spy(aug, n_cols):
        calls.append(len(aug))
        return _bareiss(aug, n_cols)

    monkeypatch.setattr(modular, "_bareiss", spy)
    return calls


P = _ROW_PRIME


@pytest.mark.parametrize(
    "rows, rhs",
    [
        # det = -p: rank 2 over Q, rank 1 mod p; the one-row candidate fails row 2
        ([[P + 1, 1], [1, 1]], [P + 3, 3]),
        ([[P, 2 * P, 1], [3 * P, P, 2], [1, 1, 1]], [P + 1, 3 * P + 2, 3]),
        # an all-zero coefficient row with a nonzero right-hand side: inconsistent
        ([[P, 2 * P], [3 * P, P + 1], [0, 0]], [P, 1, 7]),
        ([[P, 1], [2 * P, 2], [0, 0]], [1, 2, -1]),
    ],
)
def test_fallback_eliminates_all_rows(bareiss_calls, rows, rhs):
    assert _solve_exact(rows, rhs) == gauss_jordan_solve(*_as_fractions(rows, rhs))
    # the candidate from the rows independent mod p, then all rows
    assert len(bareiss_calls) == 2 and bareiss_calls[1] == len(rows)


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 2)])
def test_find_mde_systems_match_all_rows_solve(monkeypatch, bareiss_calls, m, q_order):
    systems_seen = []

    def capture(rows, rhs):
        systems_seen.append((rows, rhs))
        return _solve_exact(rows, rhs)

    monkeypatch.setattr(modular, "_solve_exact", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert modular.find_mde(m, q_order=q_order, allow_large_m=True).success
    (rows, rhs), = systems_seen
    # the prime is lucky here: the first candidate is accepted, no fallback
    assert len(bareiss_calls) == 1
    assert _solve_exact(rows, rhs) == bareiss_solve(rows, rhs)


def _det(matrix):
    """Leibniz formula: no elimination shared with the code under test."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@SETTINGS
@given(square_matrices)
def test_pivots_are_leading_minors(matrix):
    n = len(matrix)
    minors = [_det([row[:k] for row in matrix[:k]]) for k in range(1, n + 1)]
    assume(all(minors))
    aug = [row[:] for row in matrix]
    assert _bareiss(aug, n) == list(range(n))
    assert [aug[k][k] for k in range(n)] == minors
    assert all(aug[i][k] == 0 for i in range(n) for k in range(i))
