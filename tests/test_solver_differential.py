"""Differential tests: the multimodular solver of ``modular`` against
``oracles.gauss_jordan_solve``, the ``Fraction`` Gauss-Jordan solve it
replaced.

Systems have 0-12 rows and 1-12 columns over the ints or the rationals.
Rows are drawn as rational combinations of a few random base rows, so they
repeat, combine and lose rank; some columns are forced to zero; the
right-hand side is the image of a hidden vector (consistent), that image
with one entry perturbed (usually inconsistent), or free.  The solver must
return exactly the oracle's particular solution, ``None`` included, and
every ``None`` must come with a certificate that passed ``_certifies``.

The solver eliminates all rows modulo consecutive pairs of primes, from
``_ROW_PRIME`` on.  When a pair agrees on the pivot rows and columns, it
lifts, through more primes by CRT and rational reconstruction, either the
solution of the pivot block, accepted only by exact substitution into every
row, or a certificate y of inconsistency, accepted only if yA = 0 and
yb != 0 in integers; otherwise the next pair decides.  The same systems
with rows and columns multiplied by large factors (shared ones, the prime
itself and up to 2^64) exercise the content division; systems with base
entries up to 2^200 need many primes; hand-made systems whose minors the
first or the second prime divides are decided by the second pair, and one
whose minor both divide shows the documented limit; hand-made certificates
cover a system consistent modulo both first primes, an all-zero coefficient
matrix and a certificate block whose determinant a lifting prime divides;
the int64 elimination ``_rref_mod`` of residues reduced once modulo the
product of the first two primes (``_residues``) and split modulo either is
checked against ``oracles.gauss_jordan_mod`` on residues up to p - 1; and the systems
``find_mde`` builds are checked against ``oracles.bareiss_solve``, the
all-rows Bareiss solve, and are decided by the first pair.  The echelon
pivots of ``oracles.bareiss_echelon`` are checked against leading minors
computed by the Leibniz formula, the defining property of Bareiss
elimination.
"""

import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supertriplet import modular
from supertriplet.modular import _ROW_PRIME, _certifies, _primes, _residues, _rref_mod, _solve_exact

from oracles import bareiss_echelon, bareiss_solve, gauss_jordan_mod, gauss_jordan_solve

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


def _solve_checking_certificates(rows, rhs):
    """``_solve_exact(rows, rhs)`` and each certificate it checked
    (``_certifies`` calls) with the result of the check, in order."""
    checks = []

    def spy(aug, ys):
        checks.append((list(ys), _certifies(aug, ys)))
        return checks[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "_certifies", spy)
        return _solve_exact(rows, rhs), checks


@SETTINGS
@given(systems())
def test_solver_matches_gauss_jordan(system):
    rows, rhs = system
    expected = gauss_jordan_solve(*_as_fractions(rows, rhs))
    got, checks = _solve_checking_certificates(rows, rhs)
    assert got == expected
    # every None came with a certificate that passed the exact check, and a
    # solution with none
    assert any(ok for _, ok in checks) == (got is None)
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
    got, checks = _solve_checking_certificates(rows, rhs)
    assert got == expected and any(ok for _, ok in checks) == (expected is None)


@pytest.fixture
def eliminations(monkeypatch):
    """The rows, the prime and the pivot columns of every ``_rref_mod`` call
    made through ``modular``, in order; the rows are those that ``_residues``
    reduced to the residues the call eliminated."""
    calls, sources = [], {}

    def reduce_spy(aug, n_cols, modulus):
        res = _residues(aug, n_cols, modulus)
        sources[id(res)] = (res, aug)  # holding res keeps its id from being reused
        return res

    def spy(res, p):
        result = _rref_mod(res, p)
        calls.append((sources[id(res)][1], p, result[1]))
        return result

    monkeypatch.setattr(modular, "_residues", reduce_spy)
    monkeypatch.setattr(modular, "_rref_mod", spy)
    return calls


def _all_rows_primes(eliminations):
    """The primes of the eliminations of all rows: the rows of the first
    call, which every pair passes again and no lift does."""
    return [p for aug, p, _ in eliminations if aug is eliminations[0][0]]


PRIMES = list(itertools.islice(_primes(), 8))
P, P2, P3 = PRIMES[:3]


@pytest.mark.parametrize(
    "rows, rhs, pairs",
    [
        # det = -p: rank 2 over Q, rank 1 mod p, rank 2 mod the second prime
        ([[P + 1, 1], [1, 1]], [P + 3, 3], 2),
        ([[P, 2 * P, 1], [3 * P, P, 2], [1, 1, 1]], [P + 1, 3 * P + 2, 3], 2),
        # an all-zero coefficient row with a nonzero right-hand side: both
        # primes find it the first inconsistent row, and y is its unit vector
        ([[P, 2 * P], [3 * P, P + 1], [0, 0]], [P, 1, 7], 1),
        ([[P, 1], [2 * P, 2], [0, 0]], [1, 2, -1], 1),
        # det = the second prime: the primes disagree on the pivot columns
        ([[P2 + 1, 1], [1, 1]], [P2 + 3, 3], 2),
        # consistent over Q, inconsistent modulo the second prime only
        ([[1, 1], [1, 1 + P2]], [0, 1], 2),
        # inconsistent over Q, consistent modulo both first primes: the
        # lifted candidate fails row 2 exactly, and the certificate of the
        # second pair decides
        ([[1], [1]], [0, P * P2], 2),
    ],
    ids=[f"rows{i}-rhs{i}" for i in range(7)],
)
def test_fallback_eliminates_all_rows(eliminations, rows, rhs, pairs):
    """Systems the first pair cannot decide, and two it decides by a
    certificate: the answer is the oracle's, and ``pairs`` pairs of primes,
    each eliminating all rows once, were used."""
    assert _solve_exact(rows, rhs) == gauss_jordan_solve(*_as_fractions(rows, rhs))
    assert _all_rows_primes(eliminations) == PRIMES[: 2 * pairs]


@pytest.mark.parametrize(
    "rows, rhs, certificate",
    [
        # inconsistent over Q, consistent modulo both first primes
        ([[1], [1]], [0, P * P2], [-1, 1]),
        # an all-zero coefficient matrix: the block is empty and y is the
        # unit vector of the first row with a nonzero right-hand side
        ([[0, 0], [0, 0], [0, 0]], [0, 5, 7], [1]),
    ],
)
def test_none_comes_with_a_checked_certificate(rows, rhs, certificate):
    got, checks = _solve_checking_certificates(rows, rhs)
    assert got is None and gauss_jordan_solve(*_as_fractions(rows, rhs)) is None
    assert checks[-1] == (certificate, True)


def test_lift_skips_a_prime_dividing_the_certificate_block(eliminations):
    # rows 0 and 1 are the pivot rows and row 2 the first inconsistent one;
    # the certificate block A[R, P]^T has determinant P3, the first prime
    # after the pair, so the lift skips P3 and finishes with the next prime
    rows, rhs = [[P3 + 1, 1], [1, 1], [1, 1]], [0, 0, 1]
    got, checks = _solve_checking_certificates(rows, rhs)
    assert got is None and checks == [([0, -1, 1], True)]
    assert _all_rows_primes(eliminations) == [P, P2]
    blocks = [(p, cols) for aug, p, cols in eliminations if aug is not eliminations[0][0]]
    assert blocks == [(P3, [0]), (PRIMES[3], [0, 1])]


def test_both_primes_unlucky_still_satisfies_every_row(eliminations):
    """The documented limit.  Over Q the rows reduce to (0, pq, 1 | 1), so
    the pivot columns are 0 and 1 and the all-rows answer, free variable 0,
    is (-1/pq, 1/pq, 0).  Modulo either prime pq vanishes, both primes see
    pivot columns 0 and 2, and the lift returns the solution supported on
    those: (0, 0, 1).  It satisfies every row exactly, as every returned
    vector does, but it is another point of the solution line."""
    rows, rhs = [[1, 1, 0], [1, 1 + P * P2, 1]], [0, 1]
    got = _solve_exact(rows, rhs)
    assert all(sum(a * x for a, x in zip(row, got)) == b for row, b in zip(rows, rhs))
    assert got == [0, 0, 1] and _all_rows_primes(eliminations) == [P, P2]
    assert bareiss_solve(rows, rhs) == [Fraction(-1, P * P2), Fraction(1, P * P2), 0]


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 2)])
def test_find_mde_systems_match_all_rows_solve(monkeypatch, eliminations, m, q_order):
    systems_seen = []

    def capture(rows, rhs):
        systems_seen.append((rows, rhs))
        return _solve_exact(rows, rhs)

    monkeypatch.setattr(modular, "_solve_exact", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert modular.find_mde(m, q_order=q_order, allow_large_m=True).success
    (rows, rhs), = systems_seen
    # the primes are lucky here: the first pair decides, by a lifted solution
    assert _all_rows_primes(eliminations) == [P, P2]
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
    # the residues modulo the pair's product, split modulo p as _solve_exact does
    aug, n_cols, p = system
    assert _rref_mod(_residues(aug, n_cols, P * P2), p) == gauss_jordan_mod(aug, n_cols, p)


def test_rref_mod_on_all_p_minus_one():
    # every product of two residues is (p - 1)^2, just below 2^62
    for p in (P, P2):
        aug = [[p - 1] * 4 for _ in range(3)]
        assert _rref_mod(_residues(aug, 3, P * P2), p) == gauss_jordan_mod(aug, 3, p) == ([0], [0], [1])


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
    assert bareiss_echelon(aug, n) == list(range(n))
    assert [aug[k][k] for k in range(n)] == minors
    assert all(aug[i][k] == 0 for i in range(n) for k in range(i))
