"""Exact scalar arithmetic shared by every layer of the package.

Rationals are ``fractions.Fraction`` throughout (aliased ``Rational``): the
stdlib type already keeps values reduced with a positive denominator, which
is the canonical form everything else relies on.  On top of that this module
provides the ring Q(sqrt(2)) (add, subtract, multiply; nothing divides in
it), generalized binomial coefficients and Bernoulli numbers.  Exact
polynomials are :class:`~supertriplet.qseries.QExpansion` series with no
cutoff.

Bernoulli convention: B_1 = -1/2 (the recurrence ``sum_j C(n+1, j) B_j = 0``).
Only even indices reach the Eisenstein constants, so the choice is inert,
but it is fixed here once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Union

Rational = Fraction

RationalLike = Union[Fraction, int]

__all__ = [
    "Rational",
    "binom",
    "bernoulli_number",
    "QuadRational",
    "SQRT2",
]


def binom(x: RationalLike, n: int) -> Fraction:
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n!.

    ``x`` may be any rational; ``n`` must be a nonnegative integer.
    """
    if n < 0:
        raise ValueError("binom: lower index must be >= 0")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    num = 1
    for i in range(n):  # (x - i) = (p - i*q) / q: one integer product, one reduction
        num *= p - i * q
    return Fraction(num, q**n * factorial(n))


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2; zero for odd k >= 3."""
    if k < 0:
        raise ValueError("bernoulli_number: index must be >= 0")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


class QuadRational:
    """An element a + b*sqrt(2) of Q(sqrt 2), as a ring: the Fock layer only
    adds, negates and multiplies.  Equality is componentwise."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("QuadRational is immutable")

    @staticmethod
    def _coerce(value) -> "QuadRational":
        if isinstance(value, QuadRational):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadRational(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} to QuadRational")

    def __add__(self, other):
        other = self._coerce(other)
        return QuadRational(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadRational(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return QuadRational(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadRational(-self.a, -self.b)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadRational({self.a})"
        return f"QuadRational({self.a}, {self.b})"


SQRT2 = QuadRational(0, 1)
