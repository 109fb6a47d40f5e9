import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirperm.polynomial import IntPolynomial, double_factorial

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
polys = coeff_lists.map(IntPolynomial)
rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=30
)


def test_double_factorial_small_values():
    assert double_factorial(1) == 1  # empty product
    assert double_factorial(2) == 3
    assert double_factorial(5) == math.prod(range(1, 10, 2))  # 945


def test_double_factorial_rejects_non_positive():
    with pytest.raises(ValueError):
        double_factorial(0)
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_double_factorial_recurrence():
    for n in range(2, 51):
        assert double_factorial(n) == (2 * n - 1) * double_factorial(n - 1)


def test_canonical_form_strips_trailing_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert IntPolynomial([0, 0, 0]).coefficients == ()
    assert IntPolynomial([]) == IntPolynomial([0])


def test_zero_polynomial_degree_is_distinguished():
    zero = IntPolynomial()
    assert zero.degree() is None
    assert not zero
    assert IntPolynomial([7]).degree() == 0  # never confused with a constant


def test_derivative_examples():
    x = IntPolynomial([0, 1])
    assert x.derivative() == IntPolynomial([1])
    assert IntPolynomial([0, 1, 2]).derivative() == IntPolynomial([1, 4])
    assert IntPolynomial([7]).derivative() == IntPolynomial()


def test_eval_examples():
    assert IntPolynomial([0, 1, 2])(1) == 3
    assert IntPolynomial([0, 1])(0) == 0
    assert IntPolynomial([0, 1, 8, 6])(1) == double_factorial(3)
    assert IntPolynomial([0, 1, 2])(Fraction(1, 2)) == Fraction(1)


def test_arithmetic_examples():
    x = IntPolynomial([0, 1])
    assert x + IntPolynomial([0, 0, 2]) == IntPolynomial([0, 1, 2])
    # (x - x^2)(4x + 1) expands by hand to x + 3x^2 - 4x^3
    product = IntPolynomial([0, 1, -1]) * IntPolynomial([1, 4])
    assert product == IntPolynomial([0, 1, 3, -4])
    for point in (0, 1, -2):
        assert product(point) == (point - point**2) * (4 * point + 1)


def test_scalar_multiplication_and_pow():
    p = IntPolynomial([1, -1])
    assert 3 * p == IntPolynomial([3, -3])


def test_sign_at_matches_eval():
    p = IntPolynomial([-1, 0, 2])  # 2x^2 - 1
    for num, den in ((0, 1), (1, 1), (-1, 1), (1, 2), (-7, 10), (5, 7)):
        value = p(Fraction(num, den))
        assert p.sign_at(num, den) == (value > 0) - (value < 0)
    # degree 34, roots at -3/8, -5/12 and 7/3 among others
    tail = IntPolynomial([(-1) ** i * (i * i + 1) for i in range(32)])
    q = IntPolynomial([3, 8]) * IntPolynomial([5, 12]) * IntPolynomial([-7, 3]) * tail
    numerators = (0, 1, -1, -3, -5, 7, 2**40 + 1, -(3**30))
    denominators = (1, 2, 8, 2**45, 3, 12, 3 * 2**33, 7, 101, 3**21)
    near_roots = [(-3 * 2**57 + e, 2**60) for e in (-1, 1)]
    near_roots += [(-5 * 2**50 + e, 3 * 2**52) for e in (-1, 1)]
    points = [(n, d) for n in numerators for d in denominators] + near_roots
    for num, den in points:
        value = q(Fraction(num, den))
        assert q.sign_at(num, den) == (value > 0) - (value < 0), (num, den)
    roots = [(-3, 8), (-5, 12), (7, 3), (-3 * 2**40, 2**43), (-5 * 2**30, 3 * 2**32)]
    for num, den in roots + [(14, 6), (7 * 3**20, 3**21)]:  # lowest terms or not
        assert q.sign_at(num, den) == 0, (num, den)


@given(polys, polys, rationals)
def test_eval_is_a_ring_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@given(polys, polys)
def test_derivative_linearity_and_product_rule(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(rationals, rationals, rationals)
def test_rational_field_axioms_and_lowest_terms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    total = a + b * c
    assert math.gcd(total.numerator, total.denominator) == 1
    assert total.denominator > 0
