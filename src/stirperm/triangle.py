"""The descent-count triangle and its generating polynomials.

Row n is built by the integer recurrence on triangle entries,
    T(n, i) = i * T(n-1, i) + (2n - i) * T(n-1, i-1),   T(1, 1) = 1,
with out-of-range entries read as 0, and P_n(x) = sum_i T(n, i) x^i is that
row as a polynomial. Row n counts Stirling permutations of order n by number
of descents (equally: plateaux, or ascents) of the statistic value
i = 1..n; it sums to (2n - 1)!!. ``triangle_row`` remembers only the last
row it returned, so a run of calls in ascending order costs one recurrence
step each and memory stays at two rows. The certifier walks the rows
upwards.

The verify suite checks the rows against the derivative recurrence on the
polynomials, P_n = (x - x^2) P_(n-1)' + (2n - 1) x P_(n-1), and this module
checks them against Gessel and Stanley's definition of P_n through Stirling
numbers of the second kind,
    sum_k S(n+k, k) x^k = P_n(x) / (1 - x)^(2n+1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .polynomial import IntPolynomial

_last_row: tuple[int, ...] = (1,)


def triangle_row(n: int) -> tuple[int, ...]:
    """Entries (T(n,1), ..., T(n,n)) by the integer recurrence, extended from
    the last row returned when its order is at most n, else from row 1."""
    global _last_row
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    row = _last_row if len(_last_row) <= n else (1,)
    for m in range(len(row) + 1, n + 1):
        row = tuple(
            i * a + (2 * m - i) * b
            for i, a, b in zip(range(1, m + 1), row + (0,), (0,) + row)
        )
    _last_row = row
    return row


def triangle_rows(n_max: int) -> list[tuple[int, ...]]:
    """Rows 1..n_max, in a new list."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    return [triangle_row(n) for n in range(1, n_max + 1)]


def descent_polynomial(n: int) -> IntPolynomial:
    """P_n(x) = sum_i T(n, i) x^i, the generating polynomial of row n."""
    return IntPolynomial((0,) + triangle_row(n))


def gessel_stanley_checks(orders: Iterable[int]) -> Iterator[tuple[int, bool]]:
    """For each order n in ``orders``, in ascending order and once each,
    (n, whether P_n(x) = (1 - x)^(2n+1) sum_k S(n+k, k) x^k), the definition
    of Gessel and Stanley, with S the Stirling numbers of the second kind.

    S(n+k, k) is a polynomial in k of degree 2n, so the series times
    (1 - x)^(2n+1) is a polynomial of degree at most 2n, and its
    coefficients 0..2n, which need S(n+k, k) for k = 0..2n only, decide the
    identity. Equivalently, S(n+k, k) for k = 0..2n must equal the first
    2n + 1 coefficients of P_n / (1 - x)^(2n+1), and P_n may have degree at
    most 2n. One row S(k+d, k), k = 0..2 max(orders), is walked from d = 0
    upwards: S(k+d, k) = k S(k+d-1, k) + S(k+d-1, k-1) makes each depth the
    prefix sums of k S(k+d-1, k), and each division by (1 - x) is a prefix
    sum too, so every step is one C-level pass over plain ints.
    """
    wanted = set(orders)
    if not wanted:
        raise ValueError("check needs at least one order")
    if min(wanted) < 1:
        raise ValueError(f"check needs orders >= 1, got {min(wanted)}")
    top = max(wanted)
    for d, row in zip(range(top + 1), _stirling_rows(2 * top + 1)):
        if d in wanted:
            size = 2 * d + 1
            # P_d / (1 - x)^(2d+1) up to degree 2d; a P_d of higher degree
            # leaves the quotient longer than the row, so it fails
            quotient = list(descent_polynomial(d).coefficients)
            quotient += [0] * (size - len(quotient))
            for _ in range(size):
                quotient = list(accumulate(quotient))
            yield d, row[:size] == quotient


def _stirling_rows(width: int) -> Iterator[list[int]]:
    """[S(k+d, k) for k in range(width)] for d = 0, 1, 2, ...: each row is
    the prefix sums of k times the row before, which gives S(d, 0) = 0."""
    row = [1] * width  # S(k, k) = 1
    while True:
        yield row
        row = list(accumulate(map(mul, range(width), row)))


def gessel_stanley_check(n: int) -> bool:
    """Whether P_n satisfies the Gessel-Stanley identity at order n alone;
    see ``gessel_stanley_checks``."""
    return next(gessel_stanley_checks((n,)))[1]


class ModeReport(NamedTuple):
    """Where the maximal entries of row n sit, against the unit-distance
    bound around the mean statistic value."""

    order: int
    mean: Fraction
    argmax_indices: tuple[int, ...]
    predicted_indices: tuple[int, ...]

    @property
    def within_unit_of_mean(self) -> bool:
        return all(abs(self.mean - m) < 1 for m in self.argmax_indices)

    @property
    def argmax_in_predicted(self) -> bool:
        return set(self.argmax_indices) <= set(self.predicted_indices)


def locate_mode(n: int) -> ModeReport:
    """Argmax indices of row n and the predicted peak locations.

    The mean statistic value is (2n + 1)/3; real-rootedness forces every
    peak within distance 1 of it, so the predicted set is {(2n+1)/3} when
    that is an integer and {floor, ceil} otherwise. Ties are reported as a
    set, never broken.
    """
    row = triangle_row(n)
    top = max(row)
    argmax = tuple(i for i, v in enumerate(row, start=1) if v == top)
    mean = Fraction(2 * n + 1, 3)
    if mean.denominator == 1:
        predicted = (int(mean),)
    else:
        floor = int(mean)
        predicted = (floor, floor + 1)
    return ModeReport(n, mean, argmax, predicted)


# --- export formats ---------------------------------------------------------

def triangle_csv(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as CSV text with header ``n,i,count``, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    yield "n,i,count\n"
    for n in range(1, n_max + 1):
        yield "".join(
            f"{n},{i},{c}\n" for i, c in enumerate(triangle_row(n), start=1)
        )


def triangle_json(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as a compact JSON array of arrays, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        yield ("[[" if n == 1 else ",[") + ",".join(map(str, triangle_row(n))) + "]"
    yield "]\n"
