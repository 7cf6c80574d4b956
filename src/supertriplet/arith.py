"""Exact scalar arithmetic shared by every layer of the package.

Rationals are ``fractions.Fraction`` throughout (aliased ``Rational``): the
stdlib type already keeps values reduced with a positive denominator, which
is the canonical form everything else relies on.  On top of that this module
provides the quadratic extension Q(sqrt(2)), generalized binomial
coefficients, Bernoulli numbers and polynomials, and dense univariate
polynomials with exact coefficients.

Bernoulli convention: B_1 = -1/2 (the recurrence ``sum_j C(n+1, j) B_j = 0``).
Only even indices reach the Eisenstein constants, so the choice is inert,
but it is fixed here once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

__all__ = [
    "Rational",
    "binom",
    "bernoulli_number",
    "bernoulli_poly_at",
    "QuadRational",
    "SQRT2",
    "UniPoly",
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


def bernoulli_poly_at(k: int, x: RationalLike) -> Fraction:
    """Evaluate the Bernoulli polynomial B_k(x) = sum_j C(k, j) B_j x^{k-j}."""
    if k < 0:
        raise ValueError("bernoulli_poly_at: index must be >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(k + 1):
        acc += comb(k, j) * bernoulli_number(j) * x ** (k - j)
    return acc


class QuadRational:
    """An element a + b*sqrt(2) of the field Q(sqrt 2).

    Equality is componentwise; inversion uses the conjugate and the norm
    a^2 - 2 b^2, which vanishes only at zero since sqrt(2) is irrational.
    """

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

    def conjugate(self) -> "QuadRational":
        return QuadRational(self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - 2 * self.b * self.b

    def inverse(self) -> "QuadRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadRational division by zero")
        return QuadRational(self.a / n, -self.b / n)

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

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

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

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadRational({self.a})"
        return f"QuadRational({self.a}, {self.b})"


SQRT2 = QuadRational(0, 1)


class UniPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    Canonical form never stores trailing zero coefficients; the zero
    polynomial has an empty coefficient tuple and ``degree`` is ``None``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: RationalLike) -> "UniPoly":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike]) -> "UniPoly":
        """Monic polynomial prod (x - r) over the given roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-Fraction(r), 1))
        return p

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    @staticmethod
    def _coerce(other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        raise TypeError(f"cannot coerce {type(other).__name__} to UniPoly")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("UniPoly power must be >= 0")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_at(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval_at

    def compose_linear(self, a: RationalLike, b: RationalLike) -> "UniPoly":
        """Substitute x -> a*x + b, returning p(a x + b)."""
        lin = UniPoly((Fraction(b), Fraction(a)))
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * lin + UniPoly.constant(c)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        return self.coeffs == self._coerce(other).coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "UniPoly(" + " + ".join(parts) + ")"
