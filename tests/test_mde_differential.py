"""Differential tests: the rows ``find_mde`` builds, and its exact
substitution check, against the oracles of ``tests/oracles.py``.

``find_mde`` fills one integer row per lattice exponent of each twisted
character below ``q_order + _MDE_MARGIN`` past its leading exponent, the
classification's lowest weight - c/24 (``_operator_rows``: the aligned
derivative tower times integer runs of the Eisenstein monomials, one kernel
product per column).  ``oracles.operator_rows`` builds the same rows as the
package did before: ``QExpansion`` columns over the series pool of
``oracles.eisenstein_monomials`` and derivatives taken from ``terms``, aligned
together.  The two must give the same rows and right-hand sides up to one
positive factor, which ``_solve_exact`` divides out of every row, for every
character and for eta.

The solve returns only a solution that passes ``_violated`` on every row.
The eta control is ``_violated`` on eta's rows below eta's cutoff, built from
the columns of the nonzero coefficients only.  On each of those windows, over
all columns and over the support alone, ``_violated`` must agree with
``oracles.apply_operator``, the operator applied to a series term by term:
False on every twisted character, True on eta.
"""

import warnings
from fractions import Fraction

import pytest

from supertriplet.characters import ModuleLabel, twisted_char
from supertriplet.modular import _MDE_MARGIN, _eisenstein_monomials, _operator_rows, _violated, find_mde
from supertriplet.specialfn import eta
from supertriplet.zhu import classify_twisted

from oracles import apply_operator, eisenstein_monomials, operator_rows


def _windows(m, span, cutoff):
    """``(series, lead, stop)`` for each twisted character as ``find_mde``
    builds it, then for eta below its own cutoff."""
    windows = []
    for rec in classify_twisted(m):
        lead = rec.g0_squared
        windows.append((twisted_char(ModuleLabel(rec.family, rec.index, m), lead + cutoff), lead, lead + span))
    lead = Fraction(1, 24)
    windows.append((eta(lead + cutoff), lead, lead + cutoff))
    return windows


def _one_positive_multiple(got, expected) -> bool:
    """True if the rows and right-hand sides ``got`` are one positive rational
    multiple of ``expected``, row for row and entry for entry."""
    (rows, rhs), (expected_rows, expected_rhs) = got, expected
    if [len(row) for row in rows] != [len(row) for row in expected_rows] or len(rhs) != len(expected_rhs):
        return False
    flat = [x for row in rows for x in row] + rhs
    expected_flat = [x for row in expected_rows for x in row] + expected_rhs
    factor = next((Fraction(x, y) for x, y in zip(flat, expected_flat) if y), None)
    return factor is not None and factor > 0 and all(x == factor * y for x, y in zip(flat, expected_flat))


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 2), (2, 12), (4, 1)])
def test_rows_match_oracle_rows(m, q_order):
    order, span = 3 * m + 1, q_order + _MDE_MARGIN
    cutoff = Fraction(span + 1)
    pool, oracle_pool = _eisenstein_monomials(2 * order, cutoff), eisenstein_monomials(2 * order, cutoff)
    columns = [(j, key) for j in range(order) for key in sorted(pool[2 * (order - j)])]
    assert len(columns) == sum(len(oracle_pool[2 * (order - j)]) for j in range(order))
    windows = _windows(m, span, cutoff)
    assert len(windows) == 2 * m + 2
    for series, lead, stop in windows:
        rows, rhs = _operator_rows(series, order, columns, pool, lead, stop)
        expected = operator_rows(series, order, columns, oracle_pool, lead, stop)
        assert rows and _one_positive_multiple((rows, rhs), expected)


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 12)])
def test_one_pass_residuals_match_oracle(m, q_order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = find_mde(m, q_order=q_order)
    assert result.success and result.negative_control_nonzero
    order, span = result.order, q_order + _MDE_MARGIN
    cutoff = Fraction(span + 1)
    pool, oracle_pool = _eisenstein_monomials(2 * order, cutoff), eisenstein_monomials(2 * order, cutoff)
    columns, values = list(result.coefficients), list(result.coefficients.values())
    support = {col: x for col, x in result.coefficients.items() if x}
    assert 0 < len(support) < len(columns)

    windows = _windows(m, span, cutoff)
    for series, lead, stop in windows:
        oracle = apply_operator(result.coefficients, order, series, oracle_pool)
        assert oracle.cutoff >= stop
        in_window = any(e < stop for e, _ in oracle.terms)
        for cols, xs in ((columns, values), (list(support), list(support.values()))):
            rows, rhs = _operator_rows(series, order, cols, pool, lead, stop)
            assert _violated(rows, rhs, xs) == in_window
        # the characters vanish through the solved window, eta does not
        assert in_window == (series is windows[-1][0])
