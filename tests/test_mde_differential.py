"""Differential tests: the exact substitution check of ``find_mde`` against
``oracles.apply_operator``, the operator applied to a series term by term.

``find_mde`` fills one integer row per lattice exponent of each twisted
character below ``q_order + _MDE_MARGIN`` past its leading exponent
(``_operator_rows``), and the solve returns only a solution that passes
``_violated`` on every row.  The eta control is ``_violated`` on eta's rows
below eta's cutoff, built from the columns of the nonzero coefficients only.
On each of those windows, over all columns and over the support alone,
``_violated`` must agree with the oracle's residual: False on every twisted
character, True on eta.
"""

import warnings
from fractions import Fraction

import pytest

from supertriplet.characters import all_labels, twisted_char
from supertriplet.modular import (
    _MDE_MARGIN, _eisenstein_monomials, _operator_columns, _operator_rows, _violated, find_mde,
)
from supertriplet.specialfn import eta

from oracles import apply_operator


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 12)])
def test_one_pass_residuals_match_oracle(m, q_order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = find_mde(m, q_order=q_order)
    assert result.success and result.negative_control_nonzero
    order, span = result.order, q_order + _MDE_MARGIN
    cutoff = Fraction(span + 1)
    pool = _eisenstein_monomials(2 * order, cutoff)
    columns, values = list(result.coefficients), list(result.coefficients.values())
    support = {col: x for col, x in result.coefficients.items() if x}
    assert 0 < len(support) < len(columns)

    windows = []
    for label, _ in all_labels(m):
        if label.twisted:
            series = twisted_char(label, twisted_char(label, 4).min_exponent + cutoff)
            windows.append((series, series.min_exponent + span))
    assert len(windows) == 2 * m + 1
    eta_series = eta(Fraction(1, 24) + cutoff)
    windows.append((eta_series, eta_series.cutoff))
    for series, stop in windows:
        oracle = apply_operator(result.coefficients, order, series, pool)
        assert oracle.cutoff >= stop
        in_window = any(e < stop for e, _ in oracle.terms)
        for cols, xs in ((columns, values), (list(support), list(support.values()))):
            rows, rhs = _operator_rows(_operator_columns(series, order, cols, pool), series.min_exponent, stop)
            assert _violated(rows, rhs, xs) == in_window
        # the characters vanish through the solved window, eta does not
        assert in_window == (series is eta_series)
