"""Exact arithmetic kernel: dense integer-coefficient polynomials.

``IntPolynomial`` holds canonical integer coefficients and answers what the
root certifier and ``poly --eval`` ask of them: the degree, exact Horner
evaluation at int and ``fractions.Fraction`` points, and the exact sign at a
dyadic point by two loops, integer points through ``__call__``. It has no
ring arithmetic; the oracles that build polynomials by a recurrence do so on
coefficient tuples of their own. No floating point appears anywhere, and
every value is immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def double_factorial(n: int) -> int:
    """1 * 3 * ... * (2n-1): the number of Stirling permutations of order n."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    return math.prod(range(3, 2 * n, 2))


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

    def __call__(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact for int and Fraction arguments."""
        acc: Scalar = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, numerator: int, *, shift: int = 0) -> int:
        """Exact sign of the value at the dyadic numerator / 2^shift.

        Homogeneous Horner in integers: the value times 2^(shift * d), d the
        degree. Two loops, integer points through ``__call__``. At
        -1 / 2^shift the reversed polynomial is taken at -2^shift, so each
        step is one shift and one subtraction; at any other point with a
        shift the term of x^i is shifted left by shift * (d - i) bits. The
        only multiplications are the accumulator's by the numerator. Other
        rationals go through ``__call__`` too.
        """
        if shift < 0:
            raise ValueError("shift must be non-negative")
        coeffs = self._coeffs
        if numerator == -1:
            # 2^(sd) P(-2^-s) = (-1)^d R(-2^s), R(y) = y^d P(1/y): Horner on R
            # reads the coefficients from c_0 up
            acc = 0
            for c in coeffs:
                acc = c - (acc << shift)
            if len(coeffs) % 2 == 0:
                acc = -acc
        elif shift:
            terms = reversed(coeffs)
            acc = next(terms, 0)
            bits = 0
            for c in terms:
                bits += shift
                acc = acc * numerator + (c << bits)
        else:
            acc = self(numerator)
        return (acc > 0) - (acc < 0)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"
