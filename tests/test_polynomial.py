import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

from stirperm.polynomial import IntPolynomial, double_factorial

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=30
)


def _product(*factors):
    """The coefficients of a product of coefficient lists, by schoolbook
    convolution: ``IntPolynomial`` has no ring arithmetic of its own."""
    prod = [1]
    for factor in factors:
        acc = [0] * (len(prod) + len(factor) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(factor):
                acc[i + j] += a * b
        prod = acc
    return prod


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


def test_eval_examples():
    assert IntPolynomial([0, 1, 2])(1) == 3
    assert IntPolynomial([0, 1])(0) == 0
    assert IntPolynomial([0, 1, 8, 6])(1) == double_factorial(3)
    assert IntPolynomial([0, 1, 2])(Fraction(1, 2)) == Fraction(1)


#: degree 34, roots at -3/8, -5/12 and 7/3 among others
_TAIL = [(-1) ** i * (i * i + 1) for i in range(32)]
_Q = IntPolynomial(_product([3, 8], [5, 12], [-7, 3], _TAIL))


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def test_sign_at_matches_eval():
    p = IntPolynomial([-1, 0, 2])  # 2x^2 - 1
    for num, shift in ((0, 0), (1, 0), (-1, 0), (1, 1), (-7, 3), (5, 70)):
        assert p.sign_at(num, shift=shift) == _sign(p(Fraction(num, 1 << shift)))
    numerators = (0, 1, -1, -3, -5, 7, 2**40 + 1, -(3**30))
    points = [(num, shift) for num in numerators for shift in (0, 1, 3, 33, 45)]
    points += [(-3 * 2**57 + e, 60) for e in (-1, 1)]  # beside -3/8
    for num, shift in points:
        value = _Q(Fraction(num, 1 << shift))
        assert _Q.sign_at(num, shift=shift) == _sign(value), (num, shift)
    for num, shift in ((-3, 3), (-3 * 2**40, 43), (-6, 4)):  # lowest terms or not
        assert _Q.sign_at(num, shift=shift) == 0, (num, shift)
    r = IntPolynomial(_product([2, 1], _TAIL))  # an exact integer root at -2
    for num in (-3, -2, -1, 0, 1, 5):
        assert r.sign_at(num, shift=0) == _sign(r(num)), num
    assert r.sign_at(-2, shift=0) == 0
    for num, shift in ((-1, 0), (-1, 4), (3, 2), (4, 0)):  # each loop, zero polynomial
        assert IntPolynomial().sign_at(num, shift=shift) == 0


def test_eval_is_exact_at_odd_denominators():
    # ``sign_at`` takes dyadic points only; other rationals go through here
    for root in (Fraction(-5, 12), Fraction(7, 3)):
        assert _Q(root) == 0
    beside = [Fraction(-5 * 2**50 + e, 3 * 2**52) for e in (-1, 1)]  # about -5/12
    signs = [_sign(_Q(x)) for x in beside]
    assert signs == [_sign(sum(c * x**i for i, c in enumerate(_Q.coefficients))) for x in beside]
    assert signs[0] == -signs[1]


def test_sign_at_takes_a_non_negative_keyword_shift():
    p = IntPolynomial([1, 1])
    with pytest.raises(ValueError):
        p.sign_at(1, shift=-1)
    with pytest.raises(TypeError):  # the old call sign_at(numerator, denominator)
        p.sign_at(1, 2)


def _fraction_sign(p: IntPolynomial, x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return _sign(acc)


wide_polys = st.lists(st.integers(-(10**20), 10**20), max_size=12).map(IntPolynomial)
numerators = st.integers(-(10**6), 10**6)
#: (numerator, shift) for each of ``sign_at``'s loops: -1 / 2^k, k = 0 too;
#: an integer, 0 among them; any other dyadic
sign_points = st.one_of(
    st.tuples(st.just(-1), st.integers(0, 70)),
    st.tuples(numerators, st.just(0)),
    st.just((0, 0)),
    st.tuples(numerators, st.integers(1, 70)),
)


@given(wide_polys, sign_points)
def test_sign_at_matches_a_fraction_horner(p, point):
    num, shift = point
    assert p.sign_at(num, shift=shift) == _fraction_sign(p, Fraction(num, 1 << shift))


@given(wide_polys, sign_points)
def test_sign_at_is_zero_at_an_exact_root(p, point):
    num, shift = point
    # vanishes at num / 2^shift
    q = IntPolynomial(_product(p.coefficients, [-num, 1 << shift]))
    assert _fraction_sign(q, Fraction(num, 1 << shift)) == 0
    assert q.sign_at(num, shift=shift) == 0


@given(coeff_lists, coeff_lists, rationals)
def test_eval_is_a_ring_homomorphism(a, b, x):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert IntPolynomial(_product(a, b))(x) == p(x) * q(x)
    summed = [c + d for c, d in zip_longest(a, b, fillvalue=0)]
    assert IntPolynomial(summed)(x) == p(x) + q(x)


@given(rationals, rationals, rationals)
def test_rational_field_axioms_and_lowest_terms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    total = a + b * c
    assert math.gcd(total.numerator, total.denominator) == 1
    assert total.denominator > 0
