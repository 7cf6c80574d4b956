import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binom_fraction_loop
from supertriplet.arith import (
    QuadRational,
    SQRT2,
    UniPoly,
    bernoulli_number,
    bernoulli_poly_at,
    binom,
)


class TestBinom:
    def test_integer_case(self):
        assert binom(5, 2) == 10

    def test_single_factor(self):
        assert binom(Fraction(-1, 2), 1) == Fraction(-1, 2)

    def test_product_formula(self):
        # (3/2)(1/2)/2
        assert binom(Fraction(3, 2), 2) == Fraction(3, 8)

    def test_zero_lower_index(self):
        assert binom(Fraction(7, 3), 0) == 1

    def test_vanishes_on_small_nonneg_integers(self):
        assert binom(3, 5) == 0

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            binom(1, -1)

    def test_pascal_identity_random_rational_grid(self):
        rng = random.Random(1234)
        for _ in range(50):
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 15))
            n = rng.randint(1, 9)
            assert binom(x, n) == binom(x - 1, n - 1) + binom(x - 1, n)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.integers(-200, 200), st.fractions(max_denominator=50, min_value=-200, max_value=200)),
        st.integers(0, 15),
    )
    def test_matches_fraction_product_loop(self, x, n):
        value = binom(x, n)
        assert type(value) is Fraction
        assert value == binom_fraction_loop(x, n)


class TestBernoulli:
    def test_b0(self):
        assert bernoulli_number(0) == 1

    def test_b1_convention(self):
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_b2_from_recurrence(self):
        assert bernoulli_number(2) == Fraction(1, 6)

    def test_b4(self):
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        assert bernoulli_number(3) == 0
        assert bernoulli_number(7) == 0

    def test_poly_at_zero_is_number(self):
        assert bernoulli_poly_at(2, 0) == Fraction(1, 6)

    def test_poly_b2_at_half(self):
        # x^2 - x + 1/6 at 1/2
        assert bernoulli_poly_at(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_poly_b1_at_half(self):
        assert bernoulli_poly_at(1, Fraction(1, 2)) == 0

    def test_forward_difference_is_power(self):
        rng = random.Random(77)
        for _ in range(25):
            k = rng.randint(1, 12)
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            lhs = bernoulli_poly_at(k, x + 1) - bernoulli_poly_at(k, x)
            assert lhs == k * x ** (k - 1)


class TestQuadRational:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == QuadRational(2)

    def test_inverse_of_random_sample(self):
        rng = random.Random(9)
        checked = 0
        while checked < 100:
            z = QuadRational(
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            )
            if not z:
                continue
            assert z * z.inverse() == QuadRational(1)
            checked += 1

    def test_conjugate_norm(self):
        z = QuadRational(Fraction(3, 4), Fraction(-2, 5))
        assert z * z.conjugate() == QuadRational(z.norm())

    def test_arithmetic_with_plain_rationals(self):
        z = QuadRational(1, 1)
        assert z + 1 == QuadRational(2, 1)
        assert 2 * z == QuadRational(2, 2)
        assert z - Fraction(1, 2) == QuadRational(Fraction(1, 2), 1)

    def test_division(self):
        one_over_sqrt2 = 1 / SQRT2
        assert one_over_sqrt2 == QuadRational(0, Fraction(1, 2))

    def test_float_value(self):
        assert abs(float(SQRT2) - 2 ** 0.5) < 1e-15


class TestUniPoly:
    def test_mul(self):
        p = UniPoly([1, 1])  # x + 1
        q = UniPoly([-1, 1])  # x - 1
        assert p * q == UniPoly([-1, 0, 1])

    def test_eval(self):
        assert UniPoly([-1, 0, 1]).eval_at(3) == 8

    def test_compose_linear(self):
        sq = UniPoly([0, 0, 1])
        assert sq.compose_linear(2, 1) == UniPoly([1, 4, 4])

    def test_canonical_trailing_zeros(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])

    def test_zero_degree_sentinel(self):
        assert UniPoly.zero().degree is None
        assert UniPoly([0, 0]).degree is None
        assert UniPoly([5]).degree == 0

    def test_from_roots(self):
        p = UniPoly.from_roots([1, -1])
        assert p == UniPoly([-1, 0, 1])

    def test_pow(self):
        p = UniPoly([1, 1])
        assert p ** 3 == UniPoly([1, 3, 3, 1])

    def test_add_sub_random(self):
        rng = random.Random(4)
        for _ in range(30):
            a = UniPoly(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6)))
            b = UniPoly(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6)))
            assert (a + b) - b == a

    def test_eval_respects_ring_ops(self):
        rng = random.Random(5)
        for _ in range(20):
            a = UniPoly(Fraction(rng.randint(-9, 9)) for _ in range(5))
            b = UniPoly(Fraction(rng.randint(-9, 9)) for _ in range(4))
            x = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
            assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
            assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
