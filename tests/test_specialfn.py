import math
import random
from fractions import Fraction

import pytest

from supertriplet import specialfn
from supertriplet.modular import character_theta_indices
from supertriplet.qseries import QExpansion, QSeriesError
from supertriplet.specialfn import (
    ThetaIndex,
    eisenstein,
    eta,
    frak_f,
    frak_f1,
    frak_f2,
    g_deriv,
    g_series,
    theta,
    theta_deriv,
)

from oracles import divisor_power_sum, pentagonal_eta_terms, shift_law_violations


class TestThetaIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaIndex(Fraction(1, 3), Fraction(3, 2))
        with pytest.raises(ValueError):
            ThetaIndex(Fraction(1, 2), Fraction(-1))

    def test_canonical_j(self):
        idx = ThetaIndex(Fraction(7, 2), Fraction(3, 2))
        assert idx.canonical_j == Fraction(1, 2)
        assert idx.j == Fraction(7, 2)


class TestTheta:
    def test_half_index_window(self):
        s = theta((Fraction(1, 2), Fraction(3, 2)), 3)
        assert [(e, c) for e, c in s.terms] == [
            (Fraction(1, 24), 1),
            (Fraction(25, 24), 1),
            (Fraction(49, 24), 1),
        ]

    def test_doubled_lattice_point(self):
        # n = 0 and n = -1 both land on 3/8
        s = theta((Fraction(3, 2), Fraction(3, 2)), 4)
        assert s.coeff(Fraction(3, 8)) == 2
        assert s.coeff(Fraction(27, 8)) == 2

    def test_periodicity_in_first_index(self):
        rng = random.Random(8)
        for _ in range(20):
            k = Fraction(rng.randint(1, 9), rng.choice([1, 2]))
            j = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
            lhs = theta((j + 2 * k, k), 12)
            rhs = theta((j, k), 12)
            assert (lhs - rhs).is_zero()
            assert (theta_deriv((j + 2 * k, k), 12) - theta_deriv((j, k), 12)).is_zero()

    def test_reflection_symmetry(self):
        s1 = theta((Fraction(5, 2), Fraction(7, 2)), 10)
        s2 = theta((Fraction(-5, 2), Fraction(7, 2)), 10)
        assert (s1 - s2).is_zero()

    def test_empty_window_allowed(self):
        s = theta((Fraction(9, 2), Fraction(1, 2)), Fraction(1, 10))
        assert s.is_zero()

    def test_half_index_decomposition(self):
        # holds whenever j or k is half-odd, across the character range
        for m in (1, 2, 3):
            k = Fraction(2 * m + 1, 2)
            js = [Fraction(0), Fraction(2 * m + 1, 2)] + [
                Fraction(m - i) for i in range(m)
            ] + [Fraction(2 * (m - i) - 1, 2) for i in range(m)]
            for j in js:
                lhs = theta((j, k), 20)
                rhs = theta((2 * j, 4 * k), 20) + theta((2 * j - 4 * k, 4 * k), 20)
                assert (lhs - rhs).is_zero()


class TestThetaDeriv:
    def test_half_index_coefficients(self):
        s = theta_deriv((Fraction(1, 2), Fraction(3, 2)), 2)
        assert s.coeff(Fraction(1, 24)) == Fraction(1, 2)
        assert s.coeff(Fraction(25, 24)) == Fraction(-5, 2)

    def test_cancellation_leaves_no_term(self):
        s = theta_deriv((Fraction(3, 2), Fraction(3, 2)), 1)
        assert s.is_zero()

    def test_zero_first_index(self):
        s = theta_deriv((Fraction(0), Fraction(5, 2)), 3)
        assert s.coeff(0) == 0


class TestGSeries:
    def test_alternating_window(self):
        s = g_series((Fraction(0), Fraction(3, 2)), 4)
        assert s.coeff(0) == 1
        assert s.coeff(Fraction(3, 2)) == -2

    def test_decomposition_difference(self):
        for j, k in [(0, Fraction(3, 2)), (1, Fraction(3, 2)), (2, Fraction(5, 2))]:
            j = Fraction(j)
            lhs = g_series((j, k), 15)
            rhs = theta((2 * j, 4 * k), 15) - theta((2 * j - 4 * k, 4 * k), 15)
            assert (lhs - rhs).is_zero()

    def test_sum_with_theta_is_even_part(self):
        for j, k in [(0, Fraction(3, 2)), (1, Fraction(5, 2))]:
            j = Fraction(j)
            lhs = theta((j, k), 15) + g_series((j, k), 15)
            rhs = theta((2 * j, 4 * k), 15).scale(2)
            assert (lhs - rhs).is_zero()

    def test_g_deriv_leading(self):
        s = g_deriv((Fraction(1), Fraction(3, 2)), 1)
        assert s.coeff(Fraction(1, 6)) == 1
        assert s.coeff(Fraction(2, 3)) == 2

    def test_integer_j_required(self):
        with pytest.raises(ValueError):
            g_series((Fraction(1, 2), Fraction(3, 2)), 4)


class TestShiftLaws:
    # theta_{j,k}(tau + 1) = e^{2 pi i r} target(tau) with r = j^2/4k, checked
    # exactly over the full cutoff: integer j maps to the alternating series,
    # half-odd j to the series itself

    @staticmethod
    def indices(integer_j):
        found = {idx for m in (1, 2, 3) for idx in character_theta_indices(m)}
        return sorted(
            (idx for idx in found if idx.j_is_integer == integer_j), key=lambda idx: (idx.k, idx.j)
        )

    def test_integer_j_maps_to_alternating(self):
        for idx in self.indices(integer_j=True):
            r = idx.j * idx.j / (4 * idx.k)
            for src, target in ((theta, g_series), (theta_deriv, g_deriv)):
                assert not shift_law_violations(src(idx, 400), target(idx, 400), r), (idx, src)

    def test_half_odd_j_is_fixed(self):
        for idx in self.indices(integer_j=False):
            r = idx.j * idx.j / (4 * idx.k)
            assert not theta(idx, 400).is_zero()
            for build in (theta, theta_deriv):
                series = build(idx, 400)
                assert not shift_law_violations(series, series, r), (idx, build)


class TestEtaFamily:
    def test_eta_pentagonal(self):
        cutoff = Fraction(40)
        expected = QExpansion(pentagonal_eta_terms(cutoff), cutoff=cutoff)
        assert (eta(cutoff) - expected).is_zero()

    def test_f2_leading(self):
        assert frak_f2(2).min_exponent == Fraction(1, 24)

    def test_f_f1_f2_product_is_one(self):
        # the three companion products collapse by Euler's identity
        # prod (1+q^{n-1/2})(1-q^{n-1/2})(1+q^n) = prod (1-q^{2n-1}) (1+q^n) = 1
        cutoff = Fraction(25)
        prod = frak_f(cutoff) * frak_f1(cutoff) * frak_f2(cutoff)
        assert (prod - QExpansion.one(prod.cutoff)).is_zero()

    def test_f2_equals_eta_quotient(self):
        cutoff = Fraction(20)
        doubled = eta(cutoff / 2 + 1).double_exponents()
        ratio = doubled / eta(cutoff + 2)
        assert (ratio.truncated(cutoff) - frak_f2(cutoff)).is_zero()

    def test_f_s_invariance_numeric(self):
        # the half-shifted plus-product is fixed by tau -> -1/tau
        f = frak_f(200)
        for tau in (0.9j, 1.1j, 0.2 + 0.8j):
            lhs = f.evaluate(-1 / tau).value
            rhs = f.evaluate(tau).value
            assert abs(lhs - rhs) < 1e-9

    def test_f1_f2_swap_under_s_numeric(self):
        # f1(-1/tau) = sqrt2 f2(tau): the sqrt2 sits here because f2 carries
        # no sqrt2 prefactor in this normalization
        f1 = frak_f1(200)
        f2 = frak_f2(200)
        root2 = math.sqrt(2)
        for tau in (0.9j, 0.15 + 0.85j):
            lhs = f1.evaluate(-1 / tau).value
            assert abs(lhs - root2 * f2.evaluate(tau).value) < 1e-9
            lhs2 = f2.evaluate(-1 / tau).value
            assert abs(lhs2 - f1.evaluate(tau).value / root2) < 1e-9


class TestEisenstein:
    def test_constants(self):
        assert eisenstein(1, "full", 5).coeff(0) == Fraction(-1, 12)
        assert eisenstein(1, "level2-one", 5).coeff(0) == Fraction(1, 12)

    def test_full_divisor_sums(self):
        for k in (1, 2, 3):
            series = eisenstein(k, "full", 20)
            for n in range(1, 20):
                expected = Fraction(2 * divisor_power_sum(n, 2 * k - 1), math.factorial(2 * k - 1))
                assert series.coeff(n) == expected

    def test_level2_one_alternating_divisor_sums(self):
        series = eisenstein(1, "level2-one", 15)
        for n in range(1, 15):
            total = sum(d * (-1) ** (n // d - 1) for d in range(1, n + 1) if n % d == 0)
            assert series.coeff(n) == 2 * total

    def test_level2_zero_variant_refused(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            eisenstein(1, "level2-zero", 6)

    def test_weight_one_full_vs_classical_e2(self):
        # -12 G_2 is the classical normalized quasimodular series 1 - 24 sum sigma_1 q^n
        g2 = eisenstein(1, "full", 12)
        e2 = g2.scale(-12)
        assert e2.coeff(0) == 1
        for n in range(1, 12):
            assert e2.coeff(n) == -24 * divisor_power_sum(n, 1)


class TestFloatCutoffRefused:
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: theta((Fraction(1, 2), Fraction(3, 2)), x),
            lambda x: theta_deriv((Fraction(1, 2), Fraction(3, 2)), x),
            lambda x: g_series((1, Fraction(3, 2)), x),
            lambda x: g_deriv((1, Fraction(3, 2)), x),
            eta,
            frak_f,
            frak_f1,
            frak_f2,
            lambda x: eisenstein(1, "full", x),
        ],
    )
    def test_builders_refuse_a_float_cutoff(self, build):
        # float 0.3 would be 5404319552844595/2^54, not 3/10
        with pytest.raises(QSeriesError, match="float"):
            build(0.3)
        assert build(Fraction(3, 10)).cutoff == Fraction(3, 10)


class TestThetaCache:
    @pytest.mark.parametrize("build", [theta, theta_deriv, g_series, g_deriv])
    def test_tuple_and_theta_index_share_one_entry(self, build):
        j, k = 1, Fraction(5, 2)
        assert build((j, k), 10) is build(ThetaIndex(j, k), Fraction(10))

    def test_float_cutoff_refused_before_the_cache(self):
        idx = ThetaIndex(Fraction(1, 2), Fraction(3, 2))
        before = specialfn._lattice_run.cache_info()
        with pytest.raises(QSeriesError, match="float"):
            theta(idx, 10.0)
        after = specialfn._lattice_run.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)
