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
"""

import itertools
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supertriplet.modular import _bareiss, _solve_exact

from oracles import gauss_jordan_solve

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
