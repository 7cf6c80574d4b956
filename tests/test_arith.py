import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binom_fraction_loop
from supertriplet.arith import (
    QuadRational,
    SQRT2,
    bernoulli_number,
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


class TestQuadRational:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == QuadRational(2)

    def test_arithmetic_with_plain_rationals(self):
        z = QuadRational(1, 1)
        assert z + 1 == QuadRational(2, 1)
        assert 2 * z == QuadRational(2, 2)
        assert z - Fraction(1, 2) == QuadRational(Fraction(1, 2), 1)

