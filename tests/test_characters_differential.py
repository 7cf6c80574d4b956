"""Differential tests: characters built from the theta-row table of
``characters`` against ``oracles.character_oracle``, the per-family row
formulas the table replaced; Ramond characters, two shifts of the ``f2/eta``
quotient, against ``oracles.ramond_product``, its product with the two-term
series; and the closure basis and theta indices that
``modular`` derives from the same table against their pinned lists.

The closure-rank and closure reports list basis members in the order of
``basis_functions``, and the s-transform report theta indices in the order of
``character_theta_indices``, so both orders are pinned here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertriplet.characters import all_labels, character_series, character_terms, ramond_irred_char, twisted_char
from supertriplet.modular import basis_functions, character_theta_indices

from oracles import character_oracle, ramond_product

CUTOFFS = (Fraction(1, 2), Fraction(7), Fraction(30))

# basis_functions(m) names as written before the table, one row of sectors per line
PINNED_BASIS = {
    1: """
        (f1/eta)*g[0,3/2] (f/eta)*theta[0,3/2] (f2/eta)*theta[3/2,3/2]
        (f1/eta)*g[1,3/2] (f/eta)*theta[1,3/2] (f2/eta)*theta[1/2,3/2]
        (f1/eta)*dg[1,3/2] (f/eta)*dtheta[1,3/2] (f2/eta)*dtheta[1/2,3/2]
        tau*(f1/eta)*dg[1,3/2] tau*(f/eta)*dtheta[1,3/2] tau*(f2/eta)*dtheta[1/2,3/2]
    """,
    2: """
        (f1/eta)*g[0,5/2] (f/eta)*theta[0,5/2] (f2/eta)*theta[5/2,5/2]
        (f1/eta)*g[2,5/2] (f/eta)*theta[2,5/2] (f2/eta)*theta[3/2,5/2]
        (f1/eta)*g[1,5/2] (f/eta)*theta[1,5/2] (f2/eta)*theta[1/2,5/2]
        (f1/eta)*dg[2,5/2] (f/eta)*dtheta[2,5/2] (f2/eta)*dtheta[3/2,5/2]
        (f1/eta)*dg[1,5/2] (f/eta)*dtheta[1,5/2] (f2/eta)*dtheta[1/2,5/2]
        tau*(f1/eta)*dg[2,5/2] tau*(f/eta)*dtheta[2,5/2] tau*(f2/eta)*dtheta[3/2,5/2]
        tau*(f1/eta)*dg[1,5/2] tau*(f/eta)*dtheta[1,5/2] tau*(f2/eta)*dtheta[1/2,5/2]
    """,
    3: """
        (f1/eta)*g[0,7/2] (f/eta)*theta[0,7/2] (f2/eta)*theta[7/2,7/2]
        (f1/eta)*g[3,7/2] (f/eta)*theta[3,7/2] (f2/eta)*theta[5/2,7/2]
        (f1/eta)*g[2,7/2] (f/eta)*theta[2,7/2] (f2/eta)*theta[3/2,7/2]
        (f1/eta)*g[1,7/2] (f/eta)*theta[1,7/2] (f2/eta)*theta[1/2,7/2]
        (f1/eta)*dg[3,7/2] (f/eta)*dtheta[3,7/2] (f2/eta)*dtheta[5/2,7/2]
        (f1/eta)*dg[2,7/2] (f/eta)*dtheta[2,7/2] (f2/eta)*dtheta[3/2,7/2]
        (f1/eta)*dg[1,7/2] (f/eta)*dtheta[1,7/2] (f2/eta)*dtheta[1/2,7/2]
        tau*(f1/eta)*dg[3,7/2] tau*(f/eta)*dtheta[3,7/2] tau*(f2/eta)*dtheta[5/2,7/2]
        tau*(f1/eta)*dg[2,7/2] tau*(f/eta)*dtheta[2,7/2] tau*(f2/eta)*dtheta[3/2,7/2]
        tau*(f1/eta)*dg[1,7/2] tau*(f/eta)*dtheta[1,7/2] tau*(f2/eta)*dtheta[1/2,7/2]
    """,
}

# character_theta_indices(m) as (j, k), all at k = (2m+1)/2
PINNED_INDICES = {
    1: [("0", "3/2"), ("3/2", "3/2"), ("1", "3/2"), ("1/2", "3/2")],
    2: [("0", "5/2"), ("5/2", "5/2"), ("2", "5/2"), ("3/2", "5/2"), ("1", "5/2"), ("1/2", "5/2")],
    3: [("0", "7/2"), ("7/2", "7/2"), ("3", "7/2"), ("5/2", "7/2"),
        ("2", "7/2"), ("3/2", "7/2"), ("1", "7/2"), ("1/2", "7/2")],
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", CUTOFFS, ids=str)
def test_every_character_matches_the_row_formulas(m, cutoff):
    for label, flavor in all_labels(m):
        got, want = character_series(label, flavor, cutoff), character_oracle(label, flavor, cutoff)
        assert got == want and got.lattice == want.lattice, (label, flavor)
        if label.twisted:
            half = twisted_char(label, cutoff, halve=True)
            assert half == character_oracle(label, flavor, cutoff, halve=True), label
            assert half.scale(2) == got, label


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cutoff", CUTOFFS, ids=str)
def test_ramond_characters_match_the_product_form(m, cutoff):
    for i in range(2 * m + 1):
        for n in range(7):
            for halve in (False, True):
                assert ramond_irred_char(i, n, m, cutoff, halve) == ramond_product(i, n, m, cutoff, halve), (i, n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_basis_and_theta_indices_are_pinned(m):
    assert [fn.name for fn in basis_functions(m)] == PINNED_BASIS[m].split()
    assert [(str(idx.j), str(idx.k)) for idx in character_theta_indices(m)] == PINNED_INDICES[m]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12))
def test_plain_basis_members_are_the_character_terms(m):
    plain = [fn for fn in basis_functions(m) if not fn.tau_power]
    terms = {fn for label, flavor in all_labels(m) for _, fn in character_terms(label, flavor)}
    assert len(set(plain)) == len(plain) == 6 * m + 3
    assert set(plain) == terms
    assert len(basis_functions(m)) == 9 * m + 3
