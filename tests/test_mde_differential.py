"""Differential tests: the operator residuals of ``find_mde`` against
``oracles.apply_operator``, the application it used before the operator
columns were built once per series.

``find_mde`` builds ``[D^order s] + [mono * D^j s]`` once per twisted
character, fills the rows from those lists and, after the solve, sums the
same lists with the solution as the residual; the eta control sums the
columns of the nonzero coefficients only.  Each residual, over all columns
and over the support alone, must equal the oracle's series term for term and
in its cutoff, on every twisted character and on eta.
"""

import warnings
from fractions import Fraction

import pytest

from supertriplet.characters import all_labels, twisted_char
from supertriplet.modular import _eisenstein_monomials, _operator_columns, _operator_sum, find_mde
from supertriplet.specialfn import eta

from oracles import apply_operator

MARGIN = 6  # find_mde's default margin


@pytest.mark.parametrize("m, q_order", [(1, 40), (2, 12)])
def test_one_pass_residuals_match_oracle(m, q_order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = find_mde(m, q_order=q_order)
    assert result.success and result.negative_control_nonzero
    order, cutoff = result.order, Fraction(q_order + MARGIN + 1)
    pool = _eisenstein_monomials(2 * order, cutoff)
    columns, values = list(result.coefficients), list(result.coefficients.values())
    support = {col: x for col, x in result.coefficients.items() if x}
    assert 0 < len(support) < len(columns)

    chars = []
    for label, _ in all_labels(m):
        if label.twisted:
            chars.append(twisted_char(label, twisted_char(label, 4).min_exponent + cutoff))
    assert len(chars) == 2 * m + 1
    eta_series = eta(Fraction(1, 24) + cutoff)
    for series in chars + [eta_series]:
        oracle = apply_operator(result.coefficients, order, series, pool)
        assert _operator_sum(_operator_columns(series, order, columns, pool), values) == oracle
        cols = _operator_columns(series, order, list(support), pool)
        assert _operator_sum(cols, list(support.values())) == oracle
        # the characters vanish through the solved window, eta does not
        if series is eta_series:
            assert not oracle.is_zero()
        else:
            assert all(e >= series.min_exponent + q_order for e, _ in oracle.terms)
