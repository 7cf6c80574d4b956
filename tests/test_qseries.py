import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from supertriplet.qseries import (
    MAX_RUN,
    CutoffUnderflowError,
    QExpansion,
    QSeriesError,
    _evaluate_grid,
    product_expansion,
)
from supertriplet.specialfn import ThetaIndex, eisenstein, theta

from oracles import partitions_into_distinct_parts, pentagonal_eta_terms


def random_series(rng, n_terms=6, cutoff=None):
    terms = {}
    for _ in range(n_terms):
        e = Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 6, 8, 12, 24]))
        terms[e] = Fraction(rng.randint(-9, 9))
    return QExpansion(terms, cutoff=cutoff)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        s = QExpansion({Fraction(1, 2): 0, Fraction(1): 3})
        assert len(s) == 1

    def test_terms_sorted(self):
        s = QExpansion({Fraction(3): 1, Fraction(1, 2): 2})
        assert [e for e, _ in s.terms] == [Fraction(1, 2), Fraction(3)]

    def test_truncation_at_build(self):
        s = QExpansion({Fraction(5): 1, Fraction(1): 1}, cutoff=3)
        assert [e for e, _ in s.terms] == [Fraction(1)]

    def test_inexact_coefficients_refused(self):
        for value in (1.5, 1j, 0.5 + 2j):
            with pytest.raises(QSeriesError):
                QExpansion({0: 1, Fraction(1, 3): value})
        # refused even when the cutoff would discard the term
        with pytest.raises(QSeriesError):
            QExpansion({0: 1, 5: 0.5}, cutoff=2)

    def test_float_cutoff_is_not_read_as_a_binary_fraction(self):
        # float 0.1 is 3602879701896397/2^55, just above 1/10, which would keep q^{1/10}
        with pytest.raises(QSeriesError, match="float"):
            QExpansion({Fraction(1, 10): 1}, cutoff=0.1)
        assert QExpansion({Fraction(1, 10): 1}, cutoff=Fraction(1, 10)).is_zero()

    @pytest.mark.parametrize("value", [0.1, np.float64(0.5)])
    @pytest.mark.parametrize("coeffs", [[1], [0, 2, 0], []])
    def test_float_scale_refused(self, coeffs, value):
        # from_lattice stored 0.1 as 3602879701896397/2^55; scale() and * already refuse it
        with pytest.raises(QSeriesError, match="exact rationals"):
            QExpansion.from_lattice(0, 1, coeffs, value)
        assert QExpansion.from_lattice(0, 1, [1], Fraction(1, 10)).terms == ((0, Fraction(1, 10)),)

    @pytest.mark.parametrize("value", [0.5, 0.1, np.float64(0.5)])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: QExpansion({x: 1}),
            lambda x: QExpansion({0: 1}, cutoff=x),
            lambda x: QExpansion.monomial(x),
            lambda x: QExpansion.zero(x),
            lambda x: QExpansion.one(x),
            lambda x: QExpansion.from_lattice(x, 1, [1]),
            lambda x: QExpansion.from_lattice(0, 1, [1], 1, x),
            lambda x: QExpansion({0: 1}, cutoff=1).truncated(x),
            lambda x: QExpansion({0: 1}).shifted(x),
            lambda x: QExpansion({0: 1}).coeff(x),
            lambda x: product_expansion(-1, x, 0, 2),
            lambda x: product_expansion(-1, 0, x, 2),
            lambda x: product_expansion(-1, 0, 0, x),
        ],
    )
    def test_float_exponents_offsets_shifts_and_cutoffs_refused(self, build, value):
        # refused even where the float is exactly a dyadic rational
        with pytest.raises(QSeriesError, match="float"):
            build(value)
        build(Fraction(1, 2))


class TestArithmetic:
    def test_add_same_exponent(self):
        a = QExpansion({Fraction(1, 2): 1})
        assert (a + a).coeff(Fraction(1, 2)) == 2

    def test_geometric_mul(self):
        one_minus_q = QExpansion({0: 1, 1: -1})
        geo = QExpansion({n: 1 for n in range(10)}, cutoff=10)
        assert (one_minus_q * geo - QExpansion.one(10)).is_zero()

    def test_scale(self):
        s = QExpansion({Fraction(1, 24): 1}).scale(2)
        assert s.coeff(Fraction(1, 24)) == 2

    def test_inexact_scalars_refused(self):
        s = QExpansion({Fraction(1, 2): 1}, cutoff=4)
        with pytest.raises(QSeriesError):
            s.scale(0.5)
        with pytest.raises(QSeriesError):
            s * 0.5
        with pytest.raises(QSeriesError):
            s + 0.5
        with pytest.raises(QSeriesError):
            0.5 + s
        with pytest.raises(QSeriesError):
            s / 2.0
        with pytest.raises(QSeriesError):
            s.scale(1j)

    def test_mul_cutoff_rule(self):
        a = QExpansion({Fraction(1, 2): 1}, cutoff=10)
        b = QExpansion({Fraction(2): 1}, cutoff=8)
        prod = a * b
        # min(10 + 2, 8 + 1/2)
        assert prod.cutoff == Fraction(17, 2)

    def test_mul_window_never_closes_for_canonical_operands(self):
        # stored exponents sit strictly below their cutoff, so the product
        # window always contains the leading term
        a = QExpansion({Fraction(10): 1}, cutoff=12)
        b = QExpansion({Fraction(10): 1}, cutoff=12)
        prod = a * b
        assert prod.coeff(20) == 1
        assert prod.cutoff == 22

    def test_product_expansion_underflow(self):
        with pytest.raises(CutoffUnderflowError):
            product_expansion(1, 0, Fraction(5), Fraction(5))

    def test_beyond_window_content_drops_to_known_zero(self):
        a = QExpansion({Fraction(1, 2): 1}, cutoff=10)
        b = QExpansion({Fraction(5): 1}, cutoff=Fraction(1, 4))
        total = a + b
        assert total.cutoff == Fraction(1, 4)
        assert total.is_zero()

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(2718)
        for _ in range(25):
            a = random_series(rng, cutoff=30)
            b = random_series(rng, cutoff=25)
            c = random_series(rng, cutoff=35)
            assert (((a + b) + c) - (a + (b + c))).is_zero()
            assert (((a * b) * c) - (a * (b * c))).is_zero()
            assert ((a * (b + c)) - (a * b + a * c)).is_zero()

    def test_reciprocal_inverts(self):
        rng = random.Random(99)
        for _ in range(10):
            s = random_series(rng, cutoff=30) + QExpansion({Fraction(-1, 3): 5})
            inv = s.reciprocal()
            assert ((s * inv) - QExpansion.one()).is_zero()

    def test_division_by_series(self):
        num = QExpansion({0: 1, 1: 1}, cutoff=12)
        den = QExpansion({0: 1, 1: -1}, cutoff=12)
        q = num / den
        # (1+q)/(1-q) = 1 + 2q + 2q^2 + ...
        assert q.coeff(0) == 1
        assert q.coeff(1) == 2
        assert q.coeff(5) == 2

    def test_reciprocal_monomial_exact(self):
        s = QExpansion.monomial(Fraction(1, 24), 3)
        inv = s.reciprocal()
        assert inv.coeff(Fraction(-1, 24)) == Fraction(1, 3)
        assert inv.cutoff is None


class TestSubstitutions:
    def test_half_exponents(self):
        s = QExpansion({1: 1})
        assert s.half_exponents().coeff(Fraction(1, 2)) == 1

    def test_half_exponents_multiple_terms(self):
        s = QExpansion({Fraction(1, 24): 2, 1: 1})
        h = s.half_exponents()
        assert h.coeff(Fraction(1, 48)) == 2
        assert h.coeff(Fraction(1, 2)) == 1

    def test_round_trip(self):
        rng = random.Random(31)
        s = random_series(rng, cutoff=20)
        assert (s.half_exponents().double_exponents() - s).is_zero()

    def test_shift_tau_half_integer(self):
        s = QExpansion({Fraction(1, 2): 1})
        assert s.shift_tau_deviation(s, -1) < 1e-15
        assert s.shift_tau_deviation(s, 1) == pytest.approx(2)

    def test_shift_tau_integer(self):
        s = QExpansion({1: 1})
        assert s.shift_tau_deviation(s, 1) < 1e-15

    def test_shift_tau_24th(self):
        s = QExpansion({Fraction(1, 24): 1})
        expected = cmath.exp(1j * math.pi / 12)
        assert s.shift_tau_deviation(s, expected) < 1e-15

    def test_shift_tau_deviation_matches_termwise_phases(self):
        # against the identity target the deviation at q^e is |c_e| |e^{2 pi i frac(e)} - 1|
        rng = random.Random(5)
        s = random_series(rng, cutoff=30)
        expected = max(abs(c) * abs(cmath.exp(2j * math.pi * float(e % 1)) - 1) for e, c in s.terms)
        assert abs(s.shift_tau_deviation(s, 1) - float(expected)) < 1e-12

    def test_shift_tau_deviation_uses_smaller_cutoff(self):
        s = QExpansion({Fraction(1, 2): 1, 3: 5}, cutoff=4)
        target = QExpansion({Fraction(1, 2): -1}, cutoff=2)
        assert s.shift_tau_deviation(target, 1) < 1e-15
        assert s.shift_tau_deviation(QExpansion({Fraction(1, 2): -1}, cutoff=4), 1) == 5


class TestEvaluate:
    def test_constant(self):
        assert QExpansion.one().evaluate(0.3 + 0.9j).value == pytest.approx(1)

    def test_single_power(self):
        val = QExpansion({1: 1}).evaluate(1j).value
        assert abs(val - math.exp(-2 * math.pi)) < 1e-15

    def test_eta_special_value_at_i(self):
        # eta(i) = Gamma(1/4) / (2 pi^{3/4})
        eta = product_expansion(-1, 0, Fraction(1, 24), 50)
        expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
        value = eta.evaluate(1j).value
        assert abs(value - expected) < 1e-8

    def test_additivity(self):
        rng = random.Random(13)
        a = random_series(rng, cutoff=30)
        b = random_series(rng, cutoff=30)
        tau = 0.2 + 0.8j
        lhs = (a + b).evaluate(tau).value
        rhs = a.evaluate(tau).value + b.evaluate(tau).value
        assert abs(lhs - rhs) < 1e-12

    def test_error_bound_reported(self):
        s = QExpansion({0: 1}, cutoff=100)
        res = s.evaluate(1j, growth_bound=2.0)
        assert res.error_bound < 1e-200
        assert res.error_bound > 0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(QSeriesError):
            QExpansion.one().evaluate(-1j)
        with pytest.raises(QSeriesError):
            QExpansion.one().evaluate([1j, 0.5 - 1j])

    def test_overflowing_term_raises(self):
        # |q^-2| = e^{800 pi} at tau = 200i is beyond the largest float
        with pytest.raises(ArithmeticError):
            QExpansion({-2: 1}).evaluate(200j)
        with pytest.raises(ArithmeticError):
            QExpansion({-2: 1}).evaluate([1j, 200j])

    def test_underflowing_q_with_negative_cutoff_is_unbounded(self):
        # |q| = e^{-400 pi} underflows to 0.0, and 0.0 ** -1 has no float value
        res = QExpansion.zero(-1).evaluate(200j)
        assert res.value == 0j
        assert res.error_bound == math.inf
        grid = QExpansion.zero(-1).evaluate([1j, 200j, 118j])
        assert grid.value.tolist() == [0j, 0j, 0j]
        assert math.isfinite(grid.error_bound[0])
        assert grid.error_bound[1] == math.inf
        # |q| = e^{-236 pi} is subnormal, and |q| ** -1 overflows a float
        assert grid.error_bound[2] == math.inf

    def test_two_dimensional_grid_refused(self):
        # a 2-D tau array would come back flattened to shape (4,), so it is refused
        eta = product_expansion(-1, 0, Fraction(1, 24), 30)
        points = np.array([[1j, 2j], [1.5j, 0.7j]])
        with pytest.raises(QSeriesError, match="1-D grid"):
            eta.evaluate(points)
        with pytest.raises(QSeriesError, match="1-D grid"):
            _evaluate_grid([eta, QExpansion({1: 1})], points)

    def test_empty_series_and_empty_grid(self):
        assert QExpansion.zero(3).evaluate(1j).value == 0j
        assert QExpansion.zero().evaluate([1j, 2j]).value.tolist() == [0j, 0j]
        assert QExpansion({1: 1}).evaluate([]).value.shape == (0,)


class TestDenseRunLimit:
    """Every dense run longer than MAX_RUN is refused before it is allocated."""

    def test_wide_lattice_refused(self):
        with pytest.raises(QSeriesError, match="1655458 entries"):
            QExpansion({Fraction(1, 41): 1, Fraction(1, 43): 1, Fraction(1, 47): 1, 20: 1})

    def test_from_lattice_refused(self):
        assert len(QExpansion.from_lattice(0, 1, [1] * MAX_RUN)) == MAX_RUN
        with pytest.raises(QSeriesError):
            QExpansion.from_lattice(0, 1, [1] * (MAX_RUN + 1))

    def test_common_lattice_of_sum_and_product_refused(self):
        # each run is a few hundred entries; their common lattice has d = 263 * 269
        a = QExpansion({Fraction(1, 263): 1, 1: 1})
        b = QExpansion({Fraction(1, 269): 1, 1: 1})
        with pytest.raises(QSeriesError):
            a + b
        with pytest.raises(QSeriesError):
            a * b

    def test_long_products_refused(self):
        with pytest.raises(QSeriesError):
            product_expansion(-1, 0, 0, MAX_RUN + 1)
        with pytest.raises(QSeriesError):
            QExpansion({0: 1, 1: 1}, cutoff=MAX_RUN + 1).reciprocal()

    def test_special_function_runs_refused(self):
        with pytest.raises(QSeriesError):
            theta(ThetaIndex(Fraction(0), Fraction(3, 2)), 10 ** 7)
        with pytest.raises(QSeriesError):
            eisenstein(1, "full", MAX_RUN + 1)


class TestProductExpansion:
    def test_eta_pentagonal_window_60(self):
        cutoff = Fraction(60)
        eta = product_expansion(-1, 0, Fraction(1, 24), cutoff)
        expected = QExpansion(pentagonal_eta_terms(cutoff), cutoff=cutoff)
        assert (eta - expected).is_zero()

    def test_f2_distinct_parts(self):
        cutoff = Fraction(30)
        f2 = product_expansion(1, 0, Fraction(1, 24), cutoff)
        counts = partitions_into_distinct_parts(30)
        for g in range(29):
            assert f2.coeff(Fraction(1, 24) + g) == counts[g]

    def test_f1_leading_terms(self):
        f1 = product_expansion(-1, Fraction(1, 2), Fraction(-1, 48), 3)
        base = Fraction(-1, 48)
        assert f1.coeff(base) == 1
        assert f1.coeff(base + Fraction(1, 2)) == -1
        assert f1.coeff(base + Fraction(3, 2)) == -1
        assert f1.coeff(base + 2) == 1

    def test_cutoff_precondition(self):
        with pytest.raises(QSeriesError):
            product_expansion(1, 0, Fraction(5), 4)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = random.Random(21)
        s = random_series(rng, cutoff=18)
        again = QExpansion.from_json_dict(s.to_json_dict())
        assert again == s

    def test_complex_domain_refused(self):
        data = {
            "domain": "complex-float",
            "cutoff": ["4", "1"],
            "terms": [{"exp": ["1", "3"], "coef": {"re": 0.5, "im": 2.0}}],
        }
        with pytest.raises(QSeriesError):
            QExpansion.from_json_dict(data)
        assert QExpansion({0: 1}).to_json_dict()["domain"] == "exact-rational"

    def test_integers_serialized_as_strings(self):
        d = QExpansion({Fraction(1, 2): Fraction(3, 7)}, cutoff=2).to_json_dict()
        assert d["cutoff"] == ["2", "1"]
        assert d["terms"][0]["exp"] == ["1", "2"]
        assert d["terms"][0]["coef"] == ["3", "7"]
