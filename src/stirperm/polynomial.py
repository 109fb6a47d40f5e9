"""Exact arithmetic kernel: dense integer-coefficient polynomials.

Scalars are plain Python ints and ``fractions.Fraction`` (arbitrary
precision, always lowest terms, positive denominator), which already meet
the exactness requirements, so this module only adds the polynomial layer.
No floating point appears anywhere; every operation is pure and every value
immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def double_factorial(n: int) -> int:
    """1 * 3 * ... * (2n-1): the number of Stirling permutations of order n."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    result = 1
    for odd in range(3, 2 * n, 2):
        result *= odd
    return result


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    ``coefficients[i]`` holds the coefficient of x**i. The tuple is kept
    canonical: no trailing zeros, and the zero polynomial is the empty tuple.
    ``degree()`` of the zero polynomial is None, a distinguished stand-in for
    minus infinity that cannot be mistaken for the degree of a constant.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPolynomial(summed)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial()
        prod = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        return IntPolynomial(prod)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self._coeffs) if i)

    def __call__(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact for int and Fraction arguments."""
        acc: Scalar = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, numerator: int, denominator: int = 1) -> int:
        """Exact sign of the value at numerator/denominator (denominator > 0).

        Homogeneous Horner in integers. With denominator = odd * 2^s, the
        term of x^i is scaled by odd^(d-i), a running product skipped when
        odd is 1, and shifted left by s(d-i) bits: at a dyadic point the
        only multiplications are the accumulator's by the numerator.
        """
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if not self._coeffs:
            return 0
        s = (denominator & -denominator).bit_length() - 1
        odd = denominator >> s
        acc, power, shift = self._coeffs[-1], 1, 0
        for c in reversed(self._coeffs[:-1]):
            shift += s
            if odd > 1:
                power *= odd
                c *= power
            acc = acc * numerator + (c << shift)
        return (acc > 0) - (acc < 0)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"
