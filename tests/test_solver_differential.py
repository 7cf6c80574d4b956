"""Differential tests: the multimodular solver of ``modular`` against
``oracles.gauss_jordan_solve``, the ``Fraction`` Gauss-Jordan solve it
replaced.

Systems have 0-12 rows and 1-12 columns over the ints or the rationals.
Rows are drawn as rational combinations of a few random base rows, so they
repeat, combine and lose rank; some columns are forced to zero; the
right-hand side is the image of a hidden vector (consistent), that image
with one entry perturbed (usually inconsistent), or free.  The solver must
return exactly the oracle's particular solution, ``None`` included.  The
echelon pivots of the exact fallback are checked against leading minors
computed by the Leibniz formula, the defining property of Bareiss
elimination.

The solver eliminates all rows modulo ``_ROW_PRIME`` and the next prime;
when both agree, it lifts the solution of the pivot block through more
primes by CRT and rational reconstruction and accepts a candidate only by
exact substitution into every row, and otherwise eliminates all rows
exactly.  The same systems with rows and columns multiplied by large
factors (shared ones, the prime itself and up to 2^64) exercise the content
division; systems with base entries up to 2^200 need many primes;
hand-made systems whose minors the first or the second prime divides force
the fallback, and one whose minor both divide shows the documented limit;
the int64 elimination ``_rref_mod`` is checked against
``oracles.gauss_jordan_mod`` on residues up to p - 1; and the systems
``find_mde`` builds are checked against ``oracles.bareiss_solve``, the
all-rows solve, and must not need the fallback.
"""

import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supertriplet import modular
from supertriplet.modular import _ROW_PRIME, _bareiss, _primes, _rref_mod, _solve_exact

from oracles import bareiss_solve, gauss_jordan_mod, gauss_jordan_solve

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def systems(draw, entries=None):
    """A system as described above; ``entries``, if given, draws the entries
    of the base rows and the hidden vector instead of the scalars."""
    scalars = draw(st.sampled_from([small_ints, st.one_of(small_ints, small_fractions)]))
    n_cols = draw(st.integers(1, 12))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols // 2))
    vectors = st.lists(scalars if entries is None else entries, min_size=n_cols, max_size=n_cols)
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


def _solve_counting_fallbacks(rows, rhs):
    """``_solve_exact(rows, rhs)`` and the number of exact all-rows
    eliminations (``_bareiss`` calls) it made."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "_bareiss", lambda aug, n_cols: calls.append(len(aug)) or _bareiss(aug, n_cols))
        return _solve_exact(rows, rhs), len(calls)


@SETTINGS
@given(systems())
def test_solver_matches_gauss_jordan(system):
    rows, rhs = system
    expected = gauss_jordan_solve(*_as_fractions(rows, rhs))
    got, fallbacks = _solve_counting_fallbacks(rows, rhs)
    assert got == expected
    # neither prime divides a minor here: the lift solves every consistent
    # system, and only an inconsistent one reaches the exact elimination
    assert fallbacks == (expected is None)
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


@SETTINGS
@given(systems(entries=st.integers(-(2**200), 2**200)))
def test_solver_matches_gauss_jordan_on_large_entries(system):
    rows, rhs = system
    expected = gauss_jordan_solve(*_as_fractions(rows, rhs))
    assert _solve_counting_fallbacks(rows, rhs) == (expected, expected is None)


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The row counts of every ``_bareiss`` call made through ``modular``."""
    calls = []

    def spy(aug, n_cols):
        calls.append(len(aug))
        return _bareiss(aug, n_cols)

    monkeypatch.setattr(modular, "_bareiss", spy)
    return calls


P, P2 = itertools.islice(_primes(), 2)


@pytest.mark.parametrize(
    "rows, rhs",
    [
        # det = -p: rank 2 over Q, rank 1 mod p, rank 2 mod the second prime
        ([[P + 1, 1], [1, 1]], [P + 3, 3]),
        ([[P, 2 * P, 1], [3 * P, P, 2], [1, 1, 1]], [P + 1, 3 * P + 2, 3]),
        # an all-zero coefficient row with a nonzero right-hand side: inconsistent
        ([[P, 2 * P], [3 * P, P + 1], [0, 0]], [P, 1, 7]),
        ([[P, 1], [2 * P, 2], [0, 0]], [1, 2, -1]),
        # det = the second prime: the primes disagree on the pivot columns
        ([[P2 + 1, 1], [1, 1]], [P2 + 3, 3]),
        # consistent over Q, inconsistent modulo the second prime only
        ([[1, 1], [1, 1 + P2]], [0, 1]),
        # inconsistent over Q, consistent modulo both primes: the lifted
        # candidate fails row 2 exactly, and the exact elimination decides
        ([[1], [1]], [0, P * P2]),
    ],
)
def test_fallback_eliminates_all_rows(bareiss_calls, rows, rhs):
    assert _solve_exact(rows, rhs) == gauss_jordan_solve(*_as_fractions(rows, rhs))
    # one exact elimination of all rows, no other
    assert bareiss_calls == [len(rows)]


def test_both_primes_unlucky_still_satisfies_every_row(bareiss_calls):
    """The documented limit.  Over Q the rows reduce to (0, pq, 1 | 1), so
    the pivot columns are 0 and 1 and the all-rows answer, free variable 0,
    is (-1/pq, 1/pq, 0).  Modulo either prime pq vanishes, both primes see
    pivot columns 0 and 2, and the lift returns the solution supported on
    those: (0, 0, 1).  It satisfies every row exactly, as every returned
    vector does, but it is another point of the solution line."""
    rows, rhs = [[1, 1, 0], [1, 1 + P * P2, 1]], [0, 1]
    got = _solve_exact(rows, rhs)
    assert all(sum(a * x for a, x in zip(row, got)) == b for row, b in zip(rows, rhs))
    assert got == [0, 0, 1] and bareiss_calls == []
    assert bareiss_solve(rows, rhs) == [Fraction(-1, P * P2), Fraction(1, P * P2), 0]


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
    # the primes are lucky here: the lift is accepted, no exact elimination
    assert bareiss_calls == []
    assert _solve_exact(rows, rhs) == bareiss_solve(rows, rhs)


@st.composite
def residue_systems(draw):
    """Integer rows with right-hand side for a prime p: entries near p - 1,
    small ones, random residues and large integers, with repeated rows."""
    p = draw(st.sampled_from([P, P2]))
    entry = st.one_of(
        st.sampled_from([0, 1, p - 1, p - 2, p + 1, -1]), st.integers(0, p - 1), st.integers(-(2**70), 2**70)
    )
    n_cols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(entry, min_size=n_cols + 1, max_size=n_cols + 1), min_size=1, max_size=8))
    aug = draw(st.lists(st.sampled_from(base), min_size=1, max_size=10))
    return [row[:] for row in aug], n_cols, p


@SETTINGS
@given(residue_systems())
def test_rref_mod_matches_python_ints(system):
    aug, n_cols, p = system
    assert _rref_mod(aug, n_cols, p) == gauss_jordan_mod(aug, n_cols, p)


def test_rref_mod_on_all_p_minus_one():
    # every product of two residues is (p - 1)^2, just below 2^62
    for p in (P, P2):
        aug = [[p - 1] * 4 for _ in range(3)]
        assert _rref_mod(aug, 3, p) == gauss_jordan_mod(aug, 3, p) == ([0], [0], [1])


def test_prime_sequence_is_the_primes_below_2_31():
    head = list(itertools.islice(_primes(), 200))
    assert head[0] == _ROW_PRIME < 2**31
    assert all(a > b for a, b in zip(head, head[1:]))

    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert head[:20] == list(itertools.islice(filter(trial_division, range(2**31 - 1, 1, -1)), 20))


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
