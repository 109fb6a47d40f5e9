"""Exact moments and normal-convergence measurements for the plateau count.

The statistic is the number of plateaux of a uniform random Stirling
permutation of order n; by the triangle equality it is equidistributed with
the descent and ascent counts, so one probability mass function serves all
three labels. Means, second moments and variances are closed-form
rationals:

    mean        (2n + 1) / 3
    E(count^2)  (8n^3 + 6n^2 - 2n - 3) / (18n - 9)
    variance    (2n^2 - 2) / (18n - 9)

and every identity below is checked in exact rational arithmetic. Floating
point enters only at the last step of a distribution distance, where exact
rationals meet the normal CDF. The standardized support point of value k
is (k - mean)/sigma, whose square is the exact rational

    (3k - 2n - 1)^2 (2n - 1) / (2(n^2 - 1)),

so each point is one correctly rounded int true division, one sqrt and a
sign, with no gcd: the same float that float(Fraction) of the square gives.
The jump points of every distance are computed in one loop,
``_sup_distance``, and only where it reads them: at a nonzero count, or at
every point of a row with slack, so the Monte-Carlo distance standardizes
only the values drawn.

The exact distance is the float that the exact row gives, whichever row it
is read from. It is read from the first of ``triangle.row_enclosures(n)``
that certifies it. In a row of scale S and slack delta, each exact CDF value
F at a jump lies in [Q/S, (Q + delta)/S] (see the triangle module). Int true
division rounds correctly, so it is monotone: where both ends round to the
same float, that float is the one the exact row gives, and elsewhere the
term |F - Phi| is at most the larger of its two end terms, since float
subtraction is monotone too. The distance is certified when no such bound
passes the largest term known exactly, which is then the distance. The
exact row, with slack 0, always certifies; it is read at every point with
a nonzero count.

A fixed-point row holds only its band [lo, hi] of nonzero entries, about
22 sigma wide (255 of 1200 entries, 399 of 3000), with lo its ``first``,
and the points and Phi are evaluated only there. Every prefix sum Q left
of lo is 0, so each exact CDF value there, the one below lo too, lies in
[0, delta/S]; right of hi each lies in [1 - delta/S, 1]. Phi increases, so
each term on the left tail is at most max(delta/S, Phi(t_(lo-1))), and each
on the right at most max(delta/S, 1 - Phi(t_(hi+1))): one Phi per tail, at
its innermost point. Twice the larger bound joins the uncertain terms:
libm's erfc is accurate but not proven monotone, and the factor 2 is the
margin that keeps every tail term of the exact row below the bound. So a
float the band certifies is still the exact row's, the one a scan of every
point would certify. A tail bound above the largest exact term leaves the
row uncertified, and the next enclosure is tried.

The pmf floats that ``normality --plot-out`` draws are read the same way,
first from a fixed-point row 1074 bits wider, whose every enclosure is
narrower than 2^-1074, the spacing of the subnormal floats: a row certifies
the pmf where both ends of every entry's enclosure round alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import copysign, sqrt
from typing import NamedTuple

from .permutations import (
    MAX_ENUMERATION_ORDER,
    brute_force_triangle,
    enumeration_census,
)
from .polynomial import double_factorial
from .rng import SplitMix64
from .special import normal_cdf
from .triangle import FixedRow, row_enclosures


class Moments(NamedTuple):
    order: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction

    @property
    def sigma(self) -> float:
        """Display-only standard deviation."""
        return sqrt(float(self.variance))


def moments_exact(n: int) -> Moments:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    mean = Fraction(2 * n + 1, 3)
    second = Fraction(8 * n**3 + 6 * n**2 - 2 * n - 3, 18 * n - 9)
    return Moments(n, mean, second, second - mean * mean)


def second_moments_by_recurrence(n_max: int) -> list[Fraction]:
    """E(count^2) for orders 1..n_max via the one-step recurrence

        s_(n+1) = (2n - 1)/(2n + 1) * s_n + (4n + 4)/3,   s_1 = 1,

    an independent route that must agree with the closed form termwise."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    values = [Fraction(1)]
    for n in range(1, n_max):
        values.append(
            Fraction(2 * n - 1, 2 * n + 1) * values[-1] + Fraction(4 * n + 4, 3)
        )
    return values


def brute_force_moments(n: int) -> tuple[Fraction, Fraction]:
    """(mean, second moment) of the plateau count by full enumeration."""
    row = brute_force_triangle(n, "plateaux")
    population = sum(row)
    total = sum(k * c for k, c in enumerate(row, start=1))
    square_total = sum(k * k * c for k, c in enumerate(row, start=1))
    return Fraction(total, population), Fraction(square_total, population)


# --- plateau indicator variables --------------------------------------------

def plateau_probability(n: int, value: int) -> Fraction:
    """Probability that the two copies of ``value`` sit adjacent in a
    uniform order-n permutation, exact from the telescoping product

        P(copies of n-i adjacent) = prod_(j=1..i) (2n - 2j) / (2n - 2j + 1),

    the empty product (value = n) being 1: the top pair is always adjacent,
    and each insertion of a larger pair keeps an adjacency alive with
    probability (gaps not splitting it) / (all gaps)."""
    if not 1 <= value <= n:
        raise ValueError(f"value must be in 1..{n}, got {value}")
    prob = Fraction(1)
    for j in range(1, n - value + 1):
        prob *= Fraction(2 * n - 2 * j, 2 * n - 2 * j + 1)
    return prob


def sum_identity_check(n: int) -> bool:
    """Adjacency probabilities over all values must sum to the mean plateau
    count (2n + 1)/3. The i-th summand, which covers value n - i, is
    r_1 ... r_i with r_j = (2n - 2j)/(2n - 2j + 1), so the sum is
    1 + r_1 (1 + r_2 (... (1 + r_(n-1)))): one Horner pass from the inside
    out, on an integer numerator and denominator with no gcd."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    num = den = 1
    for even in range(2, 2 * n, 2):  # r_j = even / (even + 1), even = 2n - 2j
        den *= even + 1
        num = den + even * num
    return 3 * num == (2 * n + 1) * den


def indicator_expectations(
    n: int,
) -> tuple[dict[int, Fraction], dict[tuple[int, int], Fraction]]:
    """Enumeration oracle: adjacency probability of each value, and joint
    adjacency probability of each unordered value pair."""
    population = double_factorial(n)
    singles = [0] * (n + 1)
    pairs: dict[tuple[int, int], int] = {}
    for _, mask, count in enumeration_census(n):
        here = [v for v in range(1, n + 1) if mask >> v & 1]
        for a in here:
            singles[a] += count
        for pair in combinations(here, 2):
            pairs[pair] = pairs.get(pair, 0) + count
    single_probs = {
        i: Fraction(singles[i], population) for i in range(1, n + 1)
    }
    pair_probs = {key: Fraction(v, population) for key, v in pairs.items()}
    return single_probs, pair_probs


def indicator_pair_step_checks(n: int) -> bool:
    """Verify the three insertion-step identities for adjacency indicators
    between orders n and n+1 by double enumeration, exactly:

      1. joint adjacency of values i != j <= n scales by (2n-1)/(2n+1)
      2. adjacency of a value i <= n scales by 2n/(2n+1)
      3. jointly with the top value n+1, adjacency of i is unchanged
         (the top pair is always adjacent)
    """
    if n + 1 > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"check needs enumeration of order {n + 1}, above the cap"
        )
    single_n, pair_n = indicator_expectations(n)
    single_up, pair_up = indicator_expectations(n + 1)
    if single_up[n + 1] != 1:
        return False
    step_pair = Fraction(2 * n - 1, 2 * n + 1)
    step_single = Fraction(2 * n, 2 * n + 1)
    for i in range(1, n + 1):
        if single_up[i] != step_single * single_n[i]:
            return False
        if pair_up.get((i, n + 1), Fraction(0)) != single_up[i]:
            return False
        for j in range(i + 1, n + 1):
            left = pair_up.get((i, j), Fraction(0))
            right = step_pair * pair_n.get((i, j), Fraction(0))
            if left != right:
                return False
    return True


# --- standardized distribution and distances --------------------------------

def _standardized_point(k: int, n: int) -> float:
    # (k - mean)/sigma at order n >= 2, from the exact square in the module
    # docstring: the only roundings are one int true division and one sqrt
    offset = 3 * k - 2 * n - 1
    return copysign(sqrt(offset * offset * (2 * n - 1) / (2 * (n * n - 1))), offset)


def _sup_distance(
    counts, total: int, n: int, first: int = 1, slack: int = 0, doubt: float = 0.0
) -> float | None:
    """Sup distance between the step CDF with mass count/total at the
    standardized points of order n of the values first, first + 1, ... and
    the standard normal CDF, evaluated from both sides of every jump. Each
    point is computed here, and only where it is read: at a nonzero count,
    or at every value passed when there is slack. Int true division of the
    integer prefix sums rounds each exact CDF value correctly, as
    float(Fraction) would.

    With a ``slack``, each exact prefix sum, the one below the first jump
    too, is only known to lie in [Q, Q + slack] for the prefix sum Q of
    ``counts``. ``doubt`` bounds the terms of any jumps not passed. The
    result is certified as described in the module docstring, and None when
    it cannot be."""
    worst = 0.0  # the largest term known exactly; doubt bounds the rest
    seen = 0
    before = (0.0, slack / total)  # the CDF below the next jump, at both ends
    for k, count in enumerate(counts, first):
        if count or slack:
            phi = normal_cdf(_standardized_point(k, n))
            seen += count
            after = (seen / total, (seen + slack) / total)
            for low, high in (before, after):
                if low == high:
                    worst = max(worst, abs(low - phi))
                else:
                    doubt = max(doubt, abs(low - phi), abs(high - phi))
            before = after
    return worst if doubt <= worst else None


def ks_distance_exact(n: int) -> float:
    """Sup distance between the standardized exact distribution's step CDF
    and the standard normal CDF, from the first of
    ``triangle.row_enclosures(n)`` that certifies it."""
    if n < 2:
        raise ValueError(f"order must be >= 2 to standardize, got {n}")
    return next(d for d in map(_row_distance, row_enclosures(n)) if d is not None)


def _row_distance(row: FixedRow) -> float | None:
    """``_sup_distance`` of one enclosure, None when it does not certify. It
    reads the entries the row holds and bounds each zero tail, where they
    stop short of value 1 or n, by one normal CDF value at its innermost
    point (see the module docstring); the exact row holds all n, no tail."""
    n, total, entries, slack, first = row
    last = first + len(entries) - 1
    tail = slack / total  # the exact CDF's distance from 0 or 1 on a tail
    if first > 1:
        tail = max(tail, normal_cdf(_standardized_point(first - 1, n)))
    if last < n:
        tail = max(tail, 1.0 - normal_cdf(_standardized_point(last + 1, n)))
    return _sup_distance(entries, total, n, first, slack, 2.0 * tail)


#: Extra bits of the fixed-point row behind ``pmf_floats``: 2^-1074 is the
#: least positive float.
_SUBNORMAL_BITS = 1074


def pmf_floats(n: int) -> tuple[float, ...]:
    """T(n, i)/(2n - 1)!! for i = 1..n, each rounded correctly, from the
    first of ``triangle.row_enclosures(n, _SUBNORMAL_BITS)`` that certifies
    every entry (see the module docstring)."""
    return next(p for p in map(_pmf, row_enclosures(n, _SUBNORMAL_BITS)) if p is not None)


def _pmf(row: FixedRow) -> tuple[float, ...] | None:
    """The n floats q/scale, q = 0 outside the band, when each equals
    (q + slack)/scale, so that it is the exact entry's float; else None."""
    entries = (0,) * (row.first - 1) + row.entries
    entries += (0,) * (row.order - len(entries))
    pmf = tuple(q / row.scale for q in entries)
    if all(p == (q + row.slack) / row.scale for p, q in zip(pmf, entries)):
        return pmf
    return None


def sample_statistic_histogram(
    n: int, samples: int, seed: int
) -> tuple[int, ...]:
    """Histogram (index = plateau count 0..n) of ``samples`` independent
    uniform order-n permutations, without materializing any words.

    Uniform insertion touches the plateau count alone through one question
    per step: of the 2k + 1 gaps of the current order-k word, does the
    chosen one split an existing adjacent pair (count stays) or not (count
    grows by one)? Exactly ``count`` gaps split a pair, so drawing a
    uniform gap index and comparing it with the running count reproduces
    the statistic's law exactly while skipping the O(n) word surgery per
    step. Seeds give bit-identical histograms across runs.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    histogram = [0] * (n + 1)
    # step k = 1..n-1 inserts into the 2k + 1 gaps of an order-k word
    for count in SplitMix64(seed).below_chain(range(3, 2 * n, 2), samples):
        histogram[count] += 1
    return tuple(histogram)


def ks_distance_empirical(n: int, samples: int, seed: int) -> float:
    """Sup distance between the standardized empirical distribution of the
    statistic and the standard normal CDF; deterministic given the seed."""
    if n < 2:
        raise ValueError(f"order must be >= 2 to standardize, got {n}")
    histogram = sample_statistic_histogram(n, samples, seed)
    return _sup_distance(histogram[1:], samples, n)
