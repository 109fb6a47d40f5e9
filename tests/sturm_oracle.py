"""Sturm-chain root counting: an independent oracle for the witness-based
certificates in ``stirperm.sturm``.

The chain of p is p_0 = p, p_1 = p', p_(k+1) = -rem(p_(k-1), p_k), with each
remainder rescaled to a primitive integer polynomial. Both the pseudo-
remainder multiplier and the content divisor are kept positive, so the sign
pattern at every point is the same as for the exact rational chain and the
classical sign-variation count applies: variations(a) - variations(b) is
the number of distinct real roots in the half-open interval (a, b]. The
count is correct even at endpoints where p vanishes, and for non-squarefree
p it counts distinct roots (the chain then ends at a gcd-like element of
positive degree instead of a constant).

Chains grow like n^6 in bit cost for the order-n descent polynomial, so the
tests use this oracle for small orders only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from stirperm.polynomial import IntPolynomial


def primitive(p: IntPolynomial) -> IntPolynomial:
    """p divided by the gcd of its coefficients; a positive scaling, so
    signs are kept."""
    g = gcd(*p.coefficients)
    if g <= 1:
        return p
    return IntPolynomial(c // g for c in p.coefficients)


def sign_at(p: IntPolynomial, x: Fraction) -> int:
    """Sign of p at x = a / b: the sign of b^d p(a / b), d the degree, by
    Horner in integers with a running power of b. The oracle's own
    evaluation, so that it shares no code with the certificates it checks."""
    if not p:
        return 0
    a, b = x.numerator, x.denominator
    terms = reversed(p.coefficients)
    acc, power = next(terms), 1
    for c in terms:
        power *= b
        acc = acc * a + c * power
    return (acc > 0) - (acc < 0)


def sign_towards_infinity(p: IntPolynomial, positive: bool) -> int:
    """Sign of p(x) for x -> +inf (or -inf when positive=False)."""
    if not p:
        return 0
    s = 1 if p.coefficients[-1] > 0 else -1
    if not positive and p.degree() % 2 == 1:
        s = -s
    return s


def pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Integer remainder of a by b, scaled by a *positive* power of the
    leading coefficient so that its sign at every point matches the exact
    rational remainder's."""
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    da, db = a.degree(), b.degree()
    if da is None or da < db:
        return a
    lead = b.coefficients[-1]
    bc = b.coefficients
    work = list(a.coefficients)
    steps = da - db + 1
    for _ in range(steps):
        if len(work) - 1 < db:
            work = [c * lead for c in work]
            continue
        top = work.pop()
        work = [c * lead for c in work]
        offset = len(work) - db
        for i in range(db):
            work[offset + i] -= top * bc[i]
        while work and work[-1] == 0:
            work.pop()
    if lead < 0 and steps % 2 == 1:
        work = [-c for c in work]
    return IntPolynomial(work)


class SturmChain:
    """Signed-remainder chain of one polynomial, with memoized
    sign-variation counts."""

    __slots__ = ("polynomials", "_cache")

    def __init__(self, p: IntPolynomial):
        if not p:
            raise ValueError("Sturm chain of the zero polynomial is undefined")
        chain = [primitive(p)]
        derivative = IntPolynomial(i * c for i, c in enumerate(p.coefficients) if i)
        if derivative:
            chain.append(primitive(derivative))
            while True:
                rem = pseudo_remainder(chain[-2], chain[-1])
                if not rem:
                    break
                chain.append(primitive(IntPolynomial(-c for c in rem.coefficients)))
                if chain[-1].degree() == 0:
                    break
        self.polynomials = tuple(chain)
        self._cache: dict[Fraction, int] = {}

    def is_squarefree(self) -> bool:
        """Constant final element <=> gcd(p, p') is constant <=> all roots
        simple (degree >= 1 assumed)."""
        return self.polynomials[-1].degree() == 0

    def variations_at(self, point: Fraction) -> int:
        cached = self._cache.get(point)
        if cached is not None:
            return cached
        count = _variations(sign_at(p, point) for p in self.polynomials)
        self._cache[point] = count
        return count

    def variations_towards(self, positive: bool) -> int:
        return _variations(
            sign_towards_infinity(p, positive) for p in self.polynomials
        )

    def count_roots(self, lower: Fraction | None, upper: Fraction | None) -> int:
        """Distinct real roots in (lower, upper]; None means unbounded."""
        if lower is not None and upper is not None and lower >= upper:
            raise ValueError(f"empty interval: lower {lower} >= upper {upper}")
        at_lower = (
            self.variations_towards(positive=False)
            if lower is None
            else self.variations_at(lower)
        )
        at_upper = (
            self.variations_towards(positive=True)
            if upper is None
            else self.variations_at(upper)
        )
        return at_lower - at_upper


def _variations(signs) -> int:
    count = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last and s != last:
            count += 1
        last = s
    return count


def count_real_roots(
    p: IntPolynomial,
    lower: Fraction | None = None,
    upper: Fraction | None = None,
) -> int:
    """Distinct real roots of p in (lower, upper]; None bounds are infinite."""
    return SturmChain(p).count_roots(lower, upper)


def root_magnitude_bound(p: IntPolynomial) -> Fraction:
    """1 + max|coeff|/|lead|: every root r satisfies |r| < this bound."""
    if not p or p.degree() == 0:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.coefficients[-1])
    biggest = max(abs(c) for c in p.coefficients)
    return 1 + Fraction(biggest, lead)


def isolate_roots(
    chain: SturmChain, lower: Fraction, upper: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (lo, hi], ascending, each holding
    exactly one distinct root, jointly holding every root in (lower, upper]."""
    segments: list[tuple[Fraction, Fraction, int]] = []
    cut_points = [lower]
    binade = 0
    while Fraction(-(1 << binade)) > lower:  # pre-split at -2^k inside range
        cut_points.append(Fraction(-(1 << binade)))
        binade += 1
    cut_points = sorted(p for p in cut_points if lower <= p < upper)
    cut_points.append(upper)
    for a, b in zip(cut_points, cut_points[1:]):
        roots_here = chain.count_roots(a, b)
        if roots_here:
            segments.append((a, b, roots_here))
    isolated: list[tuple[Fraction, Fraction]] = []
    while segments:
        a, b, roots_here = segments.pop()
        if roots_here == 1:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        left = chain.count_roots(a, mid)
        right = roots_here - left
        if left:
            segments.append((a, mid, left))
        if right:
            segments.append((mid, b, right))
    isolated.sort()
    return isolated


def refine_interval(
    chain: SturmChain, lower: Fraction, upper: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval below the requested width."""
    if width <= 0:
        raise ValueError("width must be positive")
    while upper - lower > width:
        mid = (lower + upper) / 2
        if chain.count_roots(lower, mid) == 1:
            upper = mid
        else:
            lower = mid
    return lower, upper
