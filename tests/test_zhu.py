import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from supertriplet import zhu
from supertriplet.characters import central_charge, conformal_weight
from supertriplet.qseries import QExpansion, QSeriesError
from supertriplet.zhu import (
    Fm,
    binomial_sum_lhs,
    classify_twisted,
    coeff_A,
    fmr_polynomial,
    fmr_roots,
    hab_polynomial,
    relation_suite,
    singlet_eigen,
)


class TestSingletEigenvalues:
    def test_symmetric_point(self):
        eig = singlet_eigen(Fraction(1), 1)  # t = m
        assert eig.g0_squared == 0
        assert eig.l0 - central_charge(1) / 24 == 0

    def test_m1_t0(self):
        eig = singlet_eigen(0, 1)
        assert eig.l0 == Fraction(1, 16)
        assert eig.h0_sq == Fraction(9, 128)

    def test_m1_t3_hatted(self):
        eig = singlet_eigen(3, 1)
        assert eig.hhat0 == Fraction(-5, 4)

    def test_conformal_square_pointwise(self):
        rng = random.Random(3)
        for _ in range(30):
            m = rng.randint(1, 4)
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            eig = singlet_eigen(t, m)
            assert eig.g0_squared == eig.l0 - central_charge(m) / 24


class TestHabPolynomial:
    def test_c1(self):
        assert hab_polynomial(1).c_m == Fraction(9, 2)

    def test_m1_inner_root(self):
        assert hab_polynomial(1).inner_roots == (Fraction(1, 24),)

    def test_vanishes_on_eigenvalue_locus(self):
        rng = random.Random(41)
        for m in (1, 2, 3):
            hab = hab_polynomial(m)
            for _ in range(20):
                t = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
                eig = singlet_eigen(t, m)
                assert hab.evaluate(eig.g0_squared, eig.h0_sq) == 0

    def test_nonvanishing_off_locus(self):
        hab = hab_polynomial(1)
        assert hab.evaluate(Fraction(1, 24), Fraction(1)) != 0


class TestVanishingPolynomial:
    def test_m1_roots(self):
        roots = dict(fmr_roots(1))
        assert roots == {
            Fraction(-1, 16): 2,
            Fraction(13, 48): 1,
            Fraction(15, 16): 1,
        }

    def test_degree(self):
        for m in (1, 2, 3, 4):
            offset, d, coeffs, _ = fmr_polynomial(m).lattice
            assert (offset, d) == (0, 1)
            assert len(coeffs) - 1 == 3 * m + 1
            assert fmr_polynomial(m).terms[-1][0] == 3 * m + 1

    def test_monic(self):
        for m in (1, 2, 3, 4):
            assert fmr_polynomial(m).terms[-1][1] == 1

    def test_values_are_the_root_product(self):
        rng = random.Random(29)
        for m in (1, 2, 3, 4, 5):
            poly, roots = fmr_polynomial(m), fmr_roots(m)
            for _ in range(20):
                x = Fraction(rng.randint(-40, 40), rng.randint(1, 48))
                expected = Fraction(1)
                for r, mult in roots:
                    expected *= (x - r) ** mult
                assert poly.eval_at(x) == expected, (m, x)

    def test_central_value_not_root(self):
        for m in (1, 2, 3, 4, 5):
            assert fmr_polynomial(m).eval_at(central_charge(m) / 24) != 0

    def test_middle_rows_duplicate_low_rows(self):
        # rows m..2m-1 repeat the head weights of rows 0..m-1
        for m in (1, 2, 3):
            lows = {conformal_weight(i, 0, m) for i in range(m)}
            mids = {conformal_weight(i, 0, m) for i in range(m, 2 * m)}
            assert lows == mids


class TestExactPolynomials:
    def test_from_roots(self):
        assert zhu._from_roots([1, -1]) == QExpansion({0: -1, 2: 1})
        assert zhu._from_roots([-1, -1, -1]) == QExpansion({0: 1, 1: 3, 2: 3, 3: 1})
        assert zhu._from_roots([Fraction(1, 2), Fraction(-2, 3)]) == QExpansion({0: Fraction(-1, 3), 1: Fraction(1, 6), 2: 1})
        assert zhu._from_roots([]) == QExpansion.one()

    def test_every_polynomial_is_exact(self):
        for m in (1, 2, 3):
            polys = [
                fmr_polynomial(m),
                hab_polynomial(m).inner_in_a2,
                zhu._binom_shift_poly(m),
                zhu._l0_poly(m),
                zhu._g0sq_poly(m),
            ]
            for poly in polys:
                assert isinstance(poly, QExpansion) and poly.cutoff is None
                assert all(e.denominator == 1 for e, _ in poly.terms)

    def test_polynomials_match_their_pointwise_forms(self):
        rng = random.Random(17)
        for m in (1, 2, 3):
            for _ in range(10):
                t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                eig = singlet_eigen(t, m)
                assert zhu._l0_poly(m).eval_at(t) == eig.l0
                assert zhu._g0sq_poly(m).eval_at(t) == eig.g0_squared
                assert zhu._binom_shift_poly(m).eval_at(t) ** 2 / 2 == eig.h0_sq


class TestRefusals:
    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_refused(self, m):
        calls = [
            lambda: singlet_eigen(1, m),
            lambda: coeff_A(m),
            lambda: Fm(1, m),
            lambda: binomial_sum_lhs(1, m),
            lambda: fmr_polynomial(m),
            lambda: hab_polynomial(m),
            lambda: relation_suite(m),
            lambda: classify_twisted(m),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="m must be >= 1"):
                call()

    # Fraction(0.1) would read the float as its binary fraction (denominator 2^55)
    @pytest.mark.parametrize("x", [0.1, np.float64(0.1), 1 + 0j, Decimal("0.1")], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: singlet_eigen(x, 1),
            lambda x: hab_polynomial(1).evaluate(x, 0),
            lambda x: hab_polynomial(1).evaluate(0, x),
            lambda x: Fm(x, 1),
            lambda x: binomial_sum_lhs(x, 1),
        ],
        ids=["singlet_eigen", "evaluate-a2", "evaluate-b2", "Fm", "binomial_sum_lhs"],
    )
    def test_inexact_argument_refused(self, call, x):
        with pytest.raises(QSeriesError, match="exact"):
            call(x)


class TestScreeningSquare:
    def test_a1(self):
        assert coeff_A(1) == Fraction(-2, 5)

    def test_half_is_root(self):
        for m in (1, 2, 3, 4, 5):
            assert Fm(Fraction(1, 2), m) == 0

    def test_closed_form_equals_sum(self):
        # degree 6m+2 polynomial identity pinned at 6m+3 points
        for m in (1, 2, 3, 4):
            for idx in range(6 * m + 3):
                t = Fraction(idx - 2, 2) + Fraction(1, 5)
                assert binomial_sum_lhs(t, m) == Fm(t, m), (m, t)

    def test_root_set(self):
        # roots are t = j + 1/2 for j in [-m-1, 3m]
        m = 2
        for j in range(-m - 1, 3 * m + 1):
            assert Fm(Fraction(2 * j + 1, 2), m) == 0
        assert Fm(Fraction(2 * (3 * m + 1) + 1, 2), m) != 0
        assert Fm(Fraction(2 * (-m - 2) + 1, 2), m) != 0

    def test_eigenvalues_at_roots_exhaust_vanishing_roots(self):
        for m in (1, 2, 3):
            head_values = {
                singlet_eigen(Fraction(2 * j + 1, 2), m).l0
                for j in range(-m - 1, 3 * m + 1)
            }
            assert head_values == {r for r, _ in fmr_roots(m)}


class TestClassification:
    def test_m1_weights(self):
        weights = sorted(rec.lowest_weight for rec in classify_twisted(1))
        assert weights == [Fraction(-1, 16), Fraction(13, 48), Fraction(15, 16)]

    def test_count(self):
        for m in (1, 2, 3, 4, 5):
            assert len(classify_twisted(m)) == 2 * m + 1

    def test_weights_are_roots(self):
        for m in (1, 2, 3, 4, 5):
            poly = fmr_polynomial(m)
            for rec in classify_twisted(m):
                assert poly.eval_at(rec.lowest_weight) == 0

    def test_records_distinct(self):
        for m in (1, 2, 3, 4, 5):
            seen = {(rec.lowest_weight, rec.top_dim_graded) for rec in classify_twisted(m)}
            assert len(seen) == 2 * m + 1

    def test_top_dimensions(self):
        for rec in classify_twisted(3):
            assert rec.top_dim_graded == (2 if rec.family == "RLambda" else 4)

    def test_g0_squared_consistency(self):
        for m in (1, 2, 3):
            c = central_charge(m)
            for rec in classify_twisted(m):
                assert rec.g0_squared == rec.lowest_weight - c / 24

    def test_i_index_mapping(self):
        recs = {(r.family, r.index): r.i_index for r in classify_twisted(2)}
        assert recs[("RLambda", 1)] == 0
        assert recs[("RLambda", 2)] == 1
        assert recs[("RPi", 1)] == 6
        assert recs[("RPi", 3)] == 4

    def test_json_export(self):
        rec = classify_twisted(1)[0]
        data = rec.to_json()
        assert data["lowest_weight"] == ["-1", "16"]
        assert data["top_dim_graded"] == 2


class TestRelationSuite:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_all_relations_hold(self, m):
        results = relation_suite(m)
        assert len(results) == 6
        for rel in results:
            assert rel.passed, rel.name

    def test_mixed_sign_branch_independence(self):
        # the product of the two parity signs cancels; rationalized form:
        # (t - m) C(t-1/2, 2m) = -(2m+1) hhat0, and the squared relation
        from supertriplet.arith import binom

        rng = random.Random(6)
        for _ in range(20):
            m = rng.randint(1, 3)
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            eig = singlet_eigen(t, m)
            b = binom(t - Fraction(1, 2), 2 * m)
            assert (t - m) * b == -(2 * m + 1) * eig.hhat0
            assert eig.g0_squared * eig.h0_sq == Fraction(2 * m + 1, 4) * eig.hhat0 ** 2
